package query

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"cure/internal/lattice"
	"cure/internal/obsv"
)

// batchOf opens the predicate test cube and returns it with n copies of
// one node's id, so a NodeQueryBatch over them runs n small queries
// whose tasks are told apart by qi.
func batchOf(t *testing.T, n int) (*Engine, []lattice.NodeID) {
	t.Helper()
	dir, _, _ := buildPredCube(t, false)
	eng, err := Open(dir, Options{CacheFraction: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	ids := make([]lattice.NodeID, n)
	for i := range ids {
		ids[i] = eng.Enum().AllNodes()[0]
	}
	return eng, ids
}

// firstRows counts the queries of a batch that delivered a row: fn
// reports qi's first row to first, which returns whether it was.
type firstRows struct {
	seen []atomic.Bool
	n    atomic.Int64
}

func newFirstRows(n int) *firstRows { return &firstRows{seen: make([]atomic.Bool, n)} }

func (f *firstRows) first(qi int) bool {
	if f.seen[qi].CompareAndSwap(false, true) {
		f.n.Add(1)
		return true
	}
	return false
}

func TestForEachStopsOnFirstError(t *testing.T) {
	boom := errors.New("boom")
	eng, ids := batchOf(t, 1000)
	for _, workers := range []int{1, 4, 16} {
		ran := newFirstRows(len(ids))
		err := eng.NodeQueryBatch(workers, ids, func(qi int, r Row) error {
			ran.first(qi)
			if qi == 3 {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want %v", workers, err, boom)
		}
		// The first error stops new claims; only in-flight queries
		// finish, so nothing close to the full batch runs.
		if n := ran.n.Load(); n >= int64(len(ids)) {
			t.Fatalf("workers=%d: %d queries ran after the error", workers, n)
		}
	}
}

func TestForEachJoinsConcurrentErrors(t *testing.T) {
	// Force several workers to fail in the same round: every query blocks
	// on its first row until all are claimed, then all fail at once.
	const workers = 4
	eng, ids := batchOf(t, workers)
	barrier := make(chan struct{})
	var arrived atomic.Int64
	err := eng.NodeQueryBatch(workers, ids, func(qi int, r Row) error {
		if arrived.Add(1) == workers {
			close(barrier)
		}
		<-barrier
		return fmt.Errorf("task %d failed", qi)
	})
	if err == nil {
		t.Fatal("NodeQueryBatch swallowed the errors")
	}
	for i := 0; i < workers; i++ {
		if want := fmt.Sprintf("task %d failed", i); !strings.Contains(err.Error(), want) {
			t.Errorf("joined error %q missing %q", err, want)
		}
	}
}

func TestForEachEdgeCases(t *testing.T) {
	eng, ids := batchOf(t, 10)
	if err := eng.NodeQueryBatch(4, nil, func(int, Row) error { return errors.New("must not run") }); err != nil {
		t.Fatalf("no ids: %v", err)
	}
	ran := newFirstRows(len(ids))
	if err := eng.NodeQueryBatch(0, ids, func(qi int, _ Row) error { ran.first(qi); return nil }); err != nil {
		t.Fatal(err)
	}
	if ran.n.Load() != 10 {
		t.Fatalf("workers=0 ran %d of 10 queries", ran.n.Load())
	}
	// The sequential path returns the error immediately.
	calls := newFirstRows(len(ids))
	err := eng.NodeQueryBatch(1, ids, func(qi int, _ Row) error {
		calls.first(qi)
		if qi == 2 {
			return errors.New("stop")
		}
		return nil
	})
	if err == nil || calls.n.Load() != 3 {
		t.Fatalf("sequential: err=%v calls=%d", err, calls.n.Load())
	}
}

// TestNodeQueryBatchErrorPaths drives batch queries whose consumer fails
// mid-stream and checks the engine's tracking stays consistent: the
// error propagates, nothing stays in-flight, and the inflight gauge
// settles at zero. Run with -race this also checks the error path is
// race-clean.
func TestNodeQueryBatchErrorPaths(t *testing.T) {
	dir, _, _ := buildPredCube(t, false)
	reg := obsv.NewRegistry()
	tracker := obsv.NewQueryTracker(reg, 32)
	eng, err := Open(dir, Options{CacheFraction: 1, PinAggregates: true, Metrics: reg, Queries: tracker})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	ids := eng.Enum().AllNodes()
	for _, workers := range []int{0, 1, 4, 16} {
		cancel := errors.New("consumer gave up")
		err := eng.NodeQueryBatch(workers, ids, func(qi int, r Row) error {
			if qi == len(ids)/2 {
				return cancel
			}
			return nil
		})
		if !errors.Is(err, cancel) {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
		if n := len(tracker.Inflight()); n != 0 {
			t.Fatalf("workers=%d: %d queries in-flight after failed batch", workers, n)
		}
		if g := reg.Snapshot().Gauges["query.inflight"]; g != 0 {
			t.Fatalf("workers=%d: inflight gauge = %d", workers, g)
		}
	}

	// The failed queries landed in the ring with their error recorded.
	var failed int
	for _, rec := range tracker.Recent() {
		if rec.Err != "" {
			failed++
			if rec.Err != "consumer gave up" {
				t.Fatalf("recorded error = %q", rec.Err)
			}
		}
	}
	if failed == 0 {
		t.Fatal("no failed query recorded in the ring")
	}

	// A clean batch over the same engine still works after the failures.
	var rows atomic.Int64
	if err := eng.NodeQueryBatch(4, ids, func(int, Row) error { rows.Add(1); return nil }); err != nil {
		t.Fatal(err)
	}
	if rows.Load() == 0 {
		t.Fatal("clean batch returned no rows")
	}
}
