package core

import (
	"errors"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cure/internal/par"
	"cure/internal/partition"
	"cure/internal/relation"
)

// TestParallelEquivalence is the correctness contract of Parallelism: for
// every build path — in-memory hierarchical, flat, iceberg, and externally
// partitioned — Parallelism 2 and 8 must answer every node query
// identically to the sequential build, write the same number of trivial
// tuples, and classify the same total number of signatures. In memory,
// where cubing stays sequential, they must write the same bytes too. Run
// with -race this is also the data-race regression test of the partition
// task loop.
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
			factPath := filepath.Join(base, "fact.bin")
			if err := relation.WriteFactFile(factPath, cfg.ft); err != nil {
				t.Fatal(err)
			}
			seqOpts := cfg.opts
			seqOpts.Parallelism = 1
			seqDir := filepath.Join(base, "p1")
			seqStats := buildFrom(t, factPath, seqDir, seqOpts)
			for _, p := range []int{2, 8} {
				parOpts := cfg.opts
				parOpts.Parallelism = p
				parDir := filepath.Join(base, "p"+string(rune('0'+p)))
				parStats := buildFrom(t, factPath, parDir, parOpts)
				diffCubes(t, seqDir, parDir)
				if parStats.TTs != seqStats.TTs {
					t.Errorf("P=%d wrote %d TTs, sequential %d", p, parStats.TTs, seqStats.TTs)
				}
				if parStats.Pool.Total != seqStats.Pool.Total {
					t.Errorf("P=%d classified %d signatures, sequential %d", p, parStats.Pool.Total, seqStats.Pool.Total)
				}
				if cfg.opts.MemoryBudget > 0 && !parStats.Partitioned {
					t.Errorf("P=%d did not take the external path", p)
				}
				if cfg.opts.MemoryBudget == 0 {
					sameCubeFiles(t, seqDir, parDir)
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
// sequential build), and to the sequential build's dynamic CAT format:
// nothing cubes concurrently in memory, so nothing pins it.
func TestParallelInMemoryMatchesReference(t *testing.T) {
	ft := randomFact(t, 900, 33)
	opts := Options{Hier: paperHier(t), AggSpecs: testSpecs(), Parallelism: 4}
	stats := buildChecked(t, ft, opts)
	if stats.Partitioned {
		t.Fatal("expected an in-memory build")
	}
	opts.Parallelism = 1
	seq := buildAt(t, t.TempDir(), ft, opts)
	if stats.CatFormat != seq.CatFormat {
		t.Errorf("parallel in-memory format = %v, sequential %v", stats.CatFormat, seq.CatFormat)
	}
}

// TestRunPartitionsParallelErrorAggregation is the regression test for
// the worker-pool deadlock: with more tasks than workers and every task
// failing, the old channel-fed pool blocked forever on the jobs send once
// all workers had exited. The partition task loop must return promptly
// with the failing root in the error: a partition's path, or N_0, whose
// task fails to make its pool (it is given no aggregates).
func TestRunPartitionsParallelErrorAggregation(t *testing.T) {
	hier := paperHier(t)
	paths := make([]string, 6)
	for i := range paths {
		paths[i] = filepath.Join(t.TempDir(), "part-missing.bin")
	}
	res := &partition.Result{PartitionPaths: paths, N: []*relation.FactTable{randomFact(t, 10, 3)}, NCountCol: -1}
	opts := Options{Hier: hier, AggSpecs: testSpecs(), Parallelism: 2}
	lim := par.NewLimiter(opts.Parallelism)
	done := make(chan error, 1)
	go func() {
		var stats BuildStats
		done <- runPartitions(res, []int{0}, hier, opts, lim, nil, nil, &stats, nil)
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("every task failed, runPartitions succeeded")
		}
		if !strings.Contains(err.Error(), "partition") || !strings.Contains(err.Error(), "part-missing.bin") {
			t.Fatalf("error lacks per-partition context: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("runPartitions deadlocked on worker errors")
	}
	// The first failure stops further claims, so N_0 may not have run
	// above: on its own its failure must name it.
	done2 := make(chan error, 1)
	go func() {
		var stats BuildStats
		done2 <- runPartitions(&partition.Result{N: res.N, NCountCol: -1}, []int{0}, hier, opts, lim, nil, nil, &stats, nil)
	}()
	select {
	case err := <-done2:
		if err == nil || !strings.Contains(err.Error(), "N_0") {
			t.Fatalf("failing N_0 task: err = %v, want its root named", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("runPartitions deadlocked on a failing N task")
	}
}

// TestRunTasksRunsEverything pins the contract core's partition task loop
// relies on from par.Do: every task runs once, on a slot inside the
// limiter's width, and every grant comes back.
func TestRunTasksRunsEverything(t *testing.T) {
	for _, p := range []int{1, 3, 8} {
		lim := par.NewLimiter(p)
		var ran [50]atomic.Int32
		err := par.Do(lim, len(ran), func(slot, i int) error {
			if slot < 0 || slot >= lim.Slots() {
				t.Errorf("slot %d outside [0, %d)", slot, lim.Slots())
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
		if !fullWidthAgain(lim, p) {
			t.Fatalf("p=%d: the limiter cannot run %d workers at once after Do", p, p)
		}
	}
}

// fullWidthAgain reports whether lim can again run p workers at once:
// p tasks that each wait until all p have started finish only if every
// grant came back. A lost grant would quietly narrow every later par.Do
// on the same limiter.
func fullWidthAgain(lim *par.Limiter, p int) bool {
	var arrived atomic.Int32
	all := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- par.Do(lim, p, func(slot, i int) error {
			if arrived.Add(1) == int32(p) {
				close(all)
			}
			<-all
			return nil
		})
	}()
	select {
	case <-done:
		return true
	case <-time.After(10 * time.Second):
		return false
	}
}

func TestRunTasksAggregatesErrors(t *testing.T) {
	// Sequential (nil limiter): the first failure stops later claims and
	// is the one reported.
	ran := 0
	err := par.Do(nil, 10, func(slot, i int) error {
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
	lim := par.NewLimiter(4)
	err = par.Do(lim, 4, func(slot, i int) error {
		return errors.New("boom-all")
	})
	if err == nil {
		t.Fatal("no error reported")
	}
}
