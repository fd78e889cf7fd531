package query

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"cure/internal/obsv"
)

// collectNode runs a node query and returns its rows rendered to stable
// strings (the result multiset, order-independent and copy-safe).
func collectNode(t *testing.T, eng *Engine, id int64) []string {
	t.Helper()
	var rows []string
	if err := eng.NodeQuery(eng.Enum().AllNodes()[id], func(r Row) error {
		rows = append(rows, fmt.Sprintf("%v|%v|%d", r.Dims, r.Aggrs, r.RRowid))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	sort.Strings(rows)
	return rows
}

// checkBatchMatchesSequential runs every node query of eng at C = 1, 4, 16
// concurrent clients and requires byte-identical results to the
// sequential NodeQuery at every concurrency level.
func checkBatchMatchesSequential(t *testing.T, eng *Engine) {
	t.Helper()
	nodes := eng.Enum().AllNodes()
	want := make([][]string, len(nodes))
	for i := range nodes {
		want[i] = collectNode(t, eng, int64(i))
	}
	for _, c := range []int{1, 4, 16} {
		got := make([][]string, len(nodes))
		var mu sync.Mutex
		if err := eng.NodeQueryBatch(c, nodes, func(qi int, r Row) error {
			s := fmt.Sprintf("%v|%v|%d", r.Dims, r.Aggrs, r.RRowid)
			mu.Lock()
			got[qi] = append(got[qi], s)
			mu.Unlock()
			return nil
		}); err != nil {
			t.Fatalf("C=%d: %v", c, err)
		}
		for qi := range nodes {
			sort.Strings(got[qi])
			if len(got[qi]) != len(want[qi]) {
				t.Fatalf("C=%d node %d: %d rows, want %d", c, qi, len(got[qi]), len(want[qi]))
			}
			for i := range want[qi] {
				if got[qi][i] != want[qi][i] {
					t.Fatalf("C=%d node %d row %d: %q != %q", c, qi, i, got[qi][i], want[qi][i])
				}
			}
		}
	}
}

// TestConcurrentNodeQueryEquivalence runs the same node-query workload at
// C = 1, 4, 16 concurrent clients over one engine with an undersized
// cache (so evictions race reads) and requires byte-identical results at
// every concurrency level.
func TestConcurrentNodeQueryEquivalence(t *testing.T) {
	dir, _, _ := buildTestCube(t)
	eng, err := Open(dir, Options{CacheFraction: 0.3, PinAggregates: true})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	checkBatchMatchesSequential(t, eng)
}

// TestConcurrentMixedOps hammers one engine with every public query
// operation from many goroutines; under -race this is the engine's
// thread-safety regression test, and the tiny cache keeps evictions
// racing the copied-out reads (the aliasing bug this PR fixes).
func TestConcurrentMixedOps(t *testing.T) {
	dir, _, _ := buildTestCube(t)
	reg := obsv.NewRegistry()
	eng, err := Open(dir, Options{CacheFraction: 0.2, PinAggregates: true, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	nodes := eng.Enum().AllNodes()

	const workers = 8
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			nop := func(Row) error { return nil }
			for i := 0; i < 6; i++ {
				id := nodes[(w+i)%len(nodes)]
				switch (w + i) % 5 {
				case 0:
					if err := eng.NodeQuery(id, nop); err != nil {
						errCh <- err
						return
					}
				case 1:
					// Predicates must not be finer than the node's level;
					// query a fixed base-grouped node.
					whereNode := eng.Enum().Encode([]int{0, 0})
					if err := eng.NodeQueryWhere(whereNode, []Predicate{{Dim: 1, Level: 0, Lo: 0, Hi: 2}}, nop); err != nil {
						errCh <- err
						return
					}
				case 2:
					if err := eng.SliceQuery(id, 0, 1, 1, nop); err != nil {
						errCh <- err
						return
					}
				case 3:
					if err := eng.IcebergQuery(id, 1, 2, nop); err != nil {
						errCh <- err
						return
					}
				case 4:
					if _, err := eng.Verify(2, 1); err != nil {
						errCh <- err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	// Counters must have survived the stampede coherently.
	hits, misses := eng.CacheStats()
	snap := reg.Snapshot()
	if snap.Counters["query.cache.hits"] != hits || snap.Counters["query.cache.misses"] != misses {
		t.Fatalf("registry (%d, %d) != CacheStats (%d, %d)",
			snap.Counters["query.cache.hits"], snap.Counters["query.cache.misses"], hits, misses)
	}
}

func TestForEach(t *testing.T) {
	eng, ids := batchOf(t, 100)
	want := len(collectNode(t, eng, 0))
	for _, workers := range []int{0, 1, 3, 16} {
		rows := make([]atomic.Int64, len(ids))
		var sum atomic.Int64
		if err := eng.NodeQueryBatch(workers, ids, func(qi int, _ Row) error {
			if rows[qi].Add(1) == 1 {
				sum.Add(int64(qi))
			}
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := sum.Load(); got != 4950 {
			t.Errorf("workers=%d: sum of answered qi = %d, want 4950", workers, got)
		}
		for qi := range rows {
			if got := rows[qi].Load(); got != int64(want) {
				t.Fatalf("workers=%d: query %d delivered %d rows, want %d", workers, qi, got, want)
			}
		}
	}
	// An empty batch is a no-op.
	if err := eng.NodeQueryBatch(4, nil, func(int, Row) error { t.Error("fn ran"); return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestForEachError(t *testing.T) {
	boom := errors.New("boom")
	eng, ids := batchOf(t, 1000)
	ran := newFirstRows(len(ids))
	err := eng.NodeQueryBatch(4, ids, func(qi int, _ Row) error {
		ran.first(qi)
		if qi == 10 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	// The error must stop new claims well before all 1000 queries run.
	if n := ran.n.Load(); n == int64(len(ids)) {
		t.Error("error did not stop the batch")
	}
	// Sequential mode stops at the first error.
	ran = newFirstRows(len(ids))
	if err := eng.NodeQueryBatch(1, ids[:100], func(qi int, _ Row) error {
		ran.first(qi)
		if qi == 5 {
			return boom
		}
		return nil
	}); !errors.Is(err, boom) {
		t.Fatalf("sequential err = %v", err)
	}
	if ran.n.Load() != 6 {
		t.Errorf("sequential ran %d queries, want 6", ran.n.Load())
	}
}
