package core

import (
	"errors"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cure/internal/relation"
	"cure/internal/signature"
)

// TestParallelEquivalence is the correctness contract of the segment
// fan-out: for every build path — in-memory hierarchical, flat, iceberg,
// and externally partitioned — Parallelism 2 and 8 must answer every
// node query identically to the sequential build, write the same number
// of trivial tuples, and classify the same total number of signatures.
// Run with -race this is also the fan-out's data-race regression test.
func TestParallelEquivalence(t *testing.T) {
	hier := paperHier(t)
	configs := []struct {
		name string
		ft   *relation.FactTable
		opts Options
	}{
		{name: "hierarchical", ft: randomFact(t, 1500, 7), opts: Options{Hier: hier, AggSpecs: testSpecs()}},
		{name: "flat", ft: randomFact(t, 1500, 8), opts: Options{Hier: hier, AggSpecs: testSpecs(), Flat: true}},
		{name: "iceberg", ft: randomFact(t, 1500, 9), opts: Options{Hier: hier, AggSpecs: testSpecs(), Iceberg: 3}},
		{name: "partitioned", ft: randomFact(t, 1200, 19), opts: Options{Hier: hier, AggSpecs: testSpecs(), MemoryBudget: 24_000}},
		{name: "pair-partitioned", ft: pairEquivFact(t, 27), opts: Options{Hier: pairHier(t), AggSpecs: testSpecs(), MemoryBudget: 5_600}},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			base := t.TempDir()
			seqOpts := cfg.opts
			seqOpts.Parallelism = 1
			seqDir := filepath.Join(base, "p1")
			seqStats := buildAt(t, seqDir, cfg.ft, seqOpts)
			for _, p := range []int{2, 8} {
				parOpts := cfg.opts
				parOpts.Parallelism = p
				parDir := filepath.Join(base, "p"+string(rune('0'+p)))
				parStats := buildAt(t, parDir, cfg.ft, parOpts)
				diffCubes(t, filepath.Join(seqDir, "cube"), filepath.Join(parDir, "cube"))
				if parStats.TTs != seqStats.TTs {
					t.Errorf("P=%d wrote %d TTs, sequential %d", p, parStats.TTs, seqStats.TTs)
				}
				if parStats.Pool.Total != seqStats.Pool.Total {
					t.Errorf("P=%d classified %d signatures, sequential %d", p, parStats.Pool.Total, seqStats.Pool.Total)
				}
				if cfg.opts.MemoryBudget > 0 && !parStats.Partitioned {
					t.Errorf("P=%d did not take the external path", p)
				}
			}
		})
	}
}

// TestParallelNoPoolStatsEquality pins the full NT/CAT accounting in the
// one configuration where the split is deterministic: with the pool
// disabled every signature is a normal tuple, so NT counts must match
// exactly across worker counts. (With pooling, sharding the capacity
// legitimately shifts the NT/CAT boundary; only Total is invariant.)
func TestParallelNoPoolStatsEquality(t *testing.T) {
	hier := paperHier(t)
	ft := randomFact(t, 1000, 21)
	var ref *BuildStats
	for _, p := range []int{1, 2, 8} {
		opts := Options{Hier: hier, AggSpecs: testSpecs(), PoolCapacity: NoPool, Parallelism: p}
		stats := buildAt(t, t.TempDir(), ft, opts)
		if stats.Pool.CatGroups != 0 {
			t.Fatalf("P=%d classified CATs with the pool disabled", p)
		}
		if ref == nil {
			ref = stats
			continue
		}
		if stats.Pool.NTs != ref.Pool.NTs || stats.Pool.Total != ref.Pool.Total || stats.TTs != ref.TTs {
			t.Errorf("P=%d stats (NT=%d total=%d tt=%d) != sequential (NT=%d total=%d tt=%d)",
				p, stats.Pool.NTs, stats.Pool.Total, stats.TTs, ref.Pool.NTs, ref.Pool.Total, ref.TTs)
		}
	}
}

// TestParallelInMemoryMatchesReference ties the parallel in-memory build
// to ground truth computed straight from the fact table (not just to the
// sequential build).
func TestParallelInMemoryMatchesReference(t *testing.T) {
	stats := buildChecked(t, randomFact(t, 900, 33), Options{Hier: paperHier(t), AggSpecs: testSpecs(), Parallelism: 4})
	if stats.Partitioned {
		t.Fatal("expected an in-memory build")
	}
	if stats.CatFormat != signature.FormatB {
		t.Errorf("parallel in-memory format = %v, want pinned B", stats.CatFormat)
	}
}

// TestRunPartitionsParallelErrorAggregation is the regression test for
// the worker-pool deadlock: with more partitions than workers and every
// read failing, the old channel-fed pool blocked forever on the jobs
// send once all workers had exited. The rewrite must return promptly
// with the failing partition's path in the error.
func TestRunPartitionsParallelErrorAggregation(t *testing.T) {
	hier := paperHier(t)
	paths := make([]string, 6)
	for i := range paths {
		paths[i] = filepath.Join(t.TempDir(), "part-missing.bin")
	}
	opts := Options{Hier: hier, AggSpecs: testSpecs(), Parallelism: 2}
	lim := newParLimiter(opts.Parallelism)
	done := make(chan error, 1)
	go func() {
		var stats BuildStats
		done <- runPartitions(paths, []int{0}, hier, opts, lim, nil, nil, &stats, nil)
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("reading nonexistent partitions succeeded")
		}
		if !strings.Contains(err.Error(), "partition") || !strings.Contains(err.Error(), "part-missing.bin") {
			t.Fatalf("error lacks per-partition context: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("runPartitions deadlocked on worker errors")
	}
}

func TestRunTasksRunsEverything(t *testing.T) {
	for _, p := range []int{1, 3, 8} {
		lim := newParLimiter(p)
		var ran [50]atomic.Int32
		err := runTasks(lim, len(ran), func(slot, i int) error {
			if slot < 0 || slot >= p {
				t.Errorf("slot %d outside [0, %d)", slot, p)
			}
			ran[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range ran {
			if got := ran[i].Load(); got != 1 {
				t.Fatalf("p=%d: task %d ran %d times", p, i, got)
			}
		}
		// Every limiter slot must be back: a full build reuses the
		// limiter across many fan-outs.
		free := 0
		for lim.tryAcquire() {
			free++
		}
		if p > 1 && free != p-1 {
			t.Fatalf("p=%d: %d slots free after runTasks, want %d", p, free, p-1)
		}
	}
}

func TestRunTasksAggregatesErrors(t *testing.T) {
	// Sequential (nil limiter): the first failure stops later claims and
	// is the one reported.
	ran := 0
	err := runTasks(nil, 10, func(slot, i int) error {
		ran++
		if i == 2 {
			return errors.New("boom-2")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "boom-2") {
		t.Fatalf("err = %v", err)
	}
	if ran != 3 {
		t.Fatalf("ran %d tasks after failure at task 2, want 3", ran)
	}
	// Concurrent failures all surface through errors.Join.
	lim := newParLimiter(4)
	err = runTasks(lim, 4, func(slot, i int) error {
		return errors.New("boom-all")
	})
	if err == nil {
		t.Fatal("no error reported")
	}
}

func TestBatchRunsBalanceAndCoverage(t *testing.T) {
	runs := []segRun{{0, 100}, {100, 101}, {101, 103}, {103, 106}, {106, 110}, {110, 115}}
	batches := batchRuns(runs, 4)
	if len(batches) < 2 || len(batches) > 4 {
		t.Fatalf("got %d batches, want 2..4", len(batches))
	}
	seen := map[segRun]int{}
	hotAlone := false
	for _, b := range batches {
		if len(b) == 0 {
			t.Fatal("empty batch")
		}
		rows := 0
		for _, r := range b {
			seen[r]++
			rows += r.hi - r.lo
		}
		if len(b) == 1 && b[0] == (segRun{0, 100}) {
			hotAlone = true
		}
		_ = rows
	}
	for _, r := range runs {
		if seen[r] != 1 {
			t.Fatalf("run %v assigned %d times", r, seen[r])
		}
	}
	if !hotAlone {
		t.Fatalf("hot run not isolated in its own batch: %v", batches)
	}
	// Two runs never collapse into one batch — that would silently
	// serialize the fan-out.
	two := batchRuns([]segRun{{0, 1}, {1, 500}}, 8)
	if len(two) != 2 {
		t.Fatalf("two runs packed into %d batches, want 2", len(two))
	}
}
