package core

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"

	"cure/internal/hierarchy"
	"cure/internal/obsv"
	"cure/internal/par"
	"cure/internal/partition"
	"cure/internal/relation"
	"cure/internal/signature"
	"cure/internal/storage"
)

// Test hook: CURE_TEST_PANIC=worker makes the first cube task panic, so
// the exec-based flight-recorder test can crash a real build through the
// production panic path. Read once; fires once.
var (
	testPanicOnce  sync.Once
	testPanicMode  string
	testPanicFired atomic.Bool
)

func injectTestPanic(site string) bool {
	testPanicOnce.Do(func() { testPanicMode = os.Getenv("CURE_TEST_PANIC") })
	return testPanicMode == site && testPanicFired.CompareAndSwap(false, true)
}

// nodePath renders the node the executor is currently computing as its
// dimension.level names ("Product.Class,Outlet.ALL") — the attribution
// the panic wrapper puts into diagnostic bundles.
func (ex *executor) nodePath() string {
	var b strings.Builder
	for d, lv := range ex.levels {
		if d > 0 {
			b.WriteByte(',')
		}
		b.WriteString(ex.hier.Dims[d].Name)
		b.WriteByte('.')
		b.WriteString(ex.hier.Dims[d].LevelName(lv))
	}
	return b.String()
}

// shardedPoolCap is the per-task signature-pool capacity: the build's
// pool budget split across Parallelism tasks (floor 1024), so parallel
// builds honor roughly the same memory envelope as sequential ones.
func shardedPoolCap(opts *Options) int {
	poolCap := opts.PoolCapacity
	switch {
	case poolCap == NoPool:
		return 0
	case poolCap == 0:
		poolCap = DefaultPoolCapacity
	}
	if opts.Parallelism > 1 {
		poolCap /= opts.Parallelism
		if poolCap < 1024 {
			poolCap = 1024
		}
	}
	return poolCap
}

// runPartitions cubes every independent root of a partitioned build: the
// partition files on the prefix levels (phase 1), then N_0 and, for a
// pair partitioning, N_1 (phase 2). Each root is one par.Do task run by
// one sequential executor, under a "part" or "n" child of cubeSpan.
// Without a limiter the tasks run in that order on the calling goroutine
// and share the build's pool. With one, the roots cover disjoint nodes —
// partitions are sound on the prefix, and each N_j yields only the nodes
// no partition does — so concurrent tasks each own a sharded signature
// pool (flushed when the task is done), classification needs no
// cross-task coordination, and the shared writer is already armed for
// locking. Nothing nests: a task never fans out again. Errors from all
// tasks are joined in task order, each wrapped with its root.
func runPartitions(res *partition.Result, levels []int, hier *hierarchy.Schema, opts Options, lim *par.Limiter, shared *signature.Pool, w *storage.Writer, stats *BuildStats, cubeSpan *obsv.Span) error {
	reg := opts.Metrics
	paths := res.PartitionPaths
	locals := make([]BuildStats, len(paths)+len(res.N))
	err := par.Do(lim, len(locals), func(slot, i int) error {
		j := i - len(paths) // the N_j this task cubes, when j ≥ 0
		var root string
		if j < 0 {
			root = "partition " + paths[i]
		} else {
			root = fmt.Sprintf("N_%d", j)
		}
		var ex *executor
		defer obsv.CapturePanic(reg, func() string {
			node := "-"
			if ex != nil {
				node = ex.nodePath()
			}
			return fmt.Sprintf("cube worker slot=%d %s node=%s", slot, root, node)
		})
		var (
			t        *relation.FactTable
			specs    = opts.AggSpecs
			countCol = -1
			spanName = "part"
			err      error
		)
		if j < 0 {
			if t, err = relation.ReadFactFile(paths[i]); err != nil {
				return fmt.Errorf("core: %s: %w", root, err)
			}
			partitionReadBytes(reg, paths[i])
		} else {
			t, specs, countCol, spanName = res.N[j], res.NSpecs, res.NCountCol, "n"
		}
		if t.Len() == 0 {
			return nil
		}
		pool := shared
		if lim != nil {
			if pool, err = signature.NewPool(len(specs), shardedPoolCap(&opts), w); err != nil {
				return fmt.Errorf("core: %s: %w", root, err)
			}
			pool.ForceFormat = opts.forceFormat
			pool.Metrics = reg
		}
		sp := cubeSpan.Child(spanName)
		sp.AddRowsIn(int64(t.Len()))
		ex = newExecutor(t, hier, specs, countCol, pool, w, opts.Iceberg, opts.forceQuickSort, reg)
		if injectTestPanic("worker") {
			panic("injected test panic (CURE_TEST_PANIC=worker)")
		}
		local := &locals[i]
		switch {
		case j == 0:
			// N_0: dimension 0 starts at its top level and never descends
			// below L_0+1.
			ex.baseLevel[0] = levels[0] + 1
			err = ex.run(local)
		case j == 1:
			// N_1: one root {A_l} per level l ≤ L_0, dimension 1 stopping
			// at L_1+1.
			for la := 0; la <= levels[0] && err == nil; la++ {
				err = ex.runRoot(la, []int{la, levels[1] + 1}, local)
			}
		case len(levels) == 1:
			err = ex.runRoot(levels[0], nil, local)
		default:
			for la := 0; la <= levels[0] && err == nil; la++ {
				err = ex.runPartitionPair(la, levels[1], local)
			}
		}
		if err == nil && pool != shared {
			err = pool.Flush()
			local.workerPool = pool.Stats()
		}
		if err != nil {
			return fmt.Errorf("core: %s: %w", root, err)
		}
		sp.End()
		return nil
	})
	for _, l := range locals {
		stats.TTs += l.TTs
		stats.workerPool = stats.workerPool.Add(l.workerPool)
	}
	return err
}
