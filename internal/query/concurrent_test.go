package query

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"cure/internal/obsv"
)

// collectSpec runs the query s and returns its rows rendered to stable
// strings (the result multiset, order-independent and copy-safe).
func collectSpec(t *testing.T, eng *Engine, s Spec) []string {
	t.Helper()
	var rows []string
	if err := eng.Query(s, func(r Row) error {
		rows = append(rows, fmt.Sprintf("%v|%v|%d", r.Dims, r.Aggrs, r.RRowid))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	sort.Strings(rows)
	return rows
}

// checkBatchMatchesSequential runs every node query of eng from C = 1, 4,
// 16 concurrent clients, each taking the next node, and requires the
// results of the sequential Query at every concurrency level.
func checkBatchMatchesSequential(t *testing.T, eng *Engine) {
	t.Helper()
	nodes := eng.Enum().AllNodes()
	want := make([][]string, len(nodes))
	for i, id := range nodes {
		want[i] = collectSpec(t, eng, Spec{Node: id})
	}
	for _, c := range []int{1, 4, 16} {
		got := make([][]string, len(nodes))
		var next atomic.Int64
		var wg sync.WaitGroup
		errs := make(chan error, c)
		for range c {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for qi := int(next.Add(1) - 1); qi < len(nodes); qi = int(next.Add(1) - 1) {
					if err := eng.Query(Spec{Node: nodes[qi]}, func(r Row) error {
						got[qi] = append(got[qi], fmt.Sprintf("%v|%v|%d", r.Dims, r.Aggrs, r.RRowid))
						return nil
					}); err != nil {
						errs <- err
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatalf("C=%d: %v", c, err)
		}
		for qi := range nodes {
			sort.Strings(got[qi])
			if !slices.Equal(got[qi], want[qi]) {
				t.Fatalf("C=%d node %d: %d rows %v, want %d %v", c, qi, len(got[qi]), got[qi], len(want[qi]), want[qi])
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

// TestConcurrentMixedOps hammers one engine with every kind of Spec and
// Verify from many goroutines; under -race this is the engine's
// thread-safety regression test, and the tiny cache keeps evictions
// racing the copied-out reads. The fact-store counters must come out
// coherent: the registry's totals equal the sums of the per-query records.
func TestConcurrentMixedOps(t *testing.T) {
	dir, _, _ := buildTestCube(t)
	reg := obsv.NewRegistry()
	tracker := obsv.NewQueryTracker(reg, 1024)
	eng, err := Open(dir, Options{CacheFraction: 0.2, PinAggregates: true, Metrics: reg, Queries: tracker})
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
				var err error
				switch (w + i) % 5 {
				case 0:
					err = eng.Query(Spec{Node: id}, nop)
				case 1:
					// Predicates must not be finer than the node's level;
					// query a fixed base-grouped node.
					err = eng.Query(Spec{Node: eng.Enum().Encode([]int{0, 0}), Where: []Predicate{{Dim: 1, Level: 0, Lo: 0, Hi: 2}}}, nop)
				case 2:
					err = eng.SliceQuery(id, 0, 1, 1, nop)
				case 3:
					err = eng.Query(Spec{Node: id, MinCount: 2}, nop)
				case 4:
					_, err = eng.Verify(2, int64(w))
				}
				if err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	var hits, misses int64
	recent := tracker.Recent()
	for _, rec := range recent {
		hits += rec.IO.CacheHits
		misses += rec.IO.PagesFaulted
	}
	snap := reg.Snapshot()
	if int64(len(recent)) != snap.Counters["query.completed"] {
		t.Fatalf("ring holds %d of %d queries; enlarge it", len(recent), snap.Counters["query.completed"])
	}
	if snap.Counters["query.cache.hits"] != hits || snap.Counters["query.cache.misses"] != misses || misses == 0 {
		t.Fatalf("registry (%d, %d) != per-query records (%d, %d)",
			snap.Counters["query.cache.hits"], snap.Counters["query.cache.misses"], hits, misses)
	}
}
