package core

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"cure/internal/obsv"
	"cure/internal/par"
	"cure/internal/signature"
)

// Test hook: CURE_TEST_PANIC=worker makes the first parallel cube
// worker task panic, so the exec-based flight-recorder test can crash a
// real build through the production panic path. Read once; fires once.
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
// the panic wrappers put into diagnostic bundles.
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

// segRun is one run of equal key codes in a freshly sorted root
// segment — an independent subproblem of the Figure 13 recursion.
type segRun struct{ lo, hi int }

// parCtx is one executor's fan-out state: the build-wide limiter, the
// span that parents the per-batch "seg" spans, and the lazily built
// per-slot worker executors.
type parCtx struct {
	lim      *par.Limiter
	span     *obsv.Span
	reg      *obsv.Registry
	poolCap  int          // per-worker signature-pool capacity (pre-sharded)
	batching int          // target batches per fan-out (≈ 4 × parallelism)
	workers  []*segWorker // slot-indexed; [0] stays nil (the owning executor)
	runs     []segRun     // scratch, reused across fan-outs
}

// segWorker is one slot's private cubing state: a cloned executor that
// shares the parent's fact table and index array (batches touch
// disjoint subranges) but owns its sorter, key scratch, level state,
// aggregate scratch, and a sharded signature pool. Its trivial-tuple and
// pool statistics merge into the parent's BuildStats in finishPar.
type segWorker struct {
	ex  *executor
	tts int64
}

func (p *parCtx) newSegWorker(parent *executor) (*segWorker, error) {
	pool, err := signature.NewPool(len(parent.specs), p.poolCap, parent.w)
	if err != nil {
		return nil, err
	}
	pool.ForceFormat = parent.pool.ForceFormat
	pool.Metrics = p.reg
	w := &segWorker{}
	ex := &executor{
		table:         parent.table,
		hier:          parent.hier,
		specs:         parent.specs,
		enum:          parent.enum,
		pool:          pool,
		w:             parent.w,
		countCol:      parent.countCol,
		minCount:      parent.minCount,
		shortPlan:     parent.shortPlan,
		levels:        make([]int, len(parent.levels)),
		baseLevel:     make([]int, len(parent.baseLevel)),
		aggBuf:        make([]float64, len(parent.specs)),
		ttWritten:     &w.tts,
		tr:            parent.tr,
		cSortCounting: parent.cSortCounting,
		cSortInsert:   parent.cSortInsert,
		cSortQuick:    parent.cSortQuick,
		cSortRows:     parent.cSortRows,
		cSegments:     parent.cSegments,
		cTTPruned:     parent.cTTPruned,
		cIcePruned:    parent.cIcePruned,
	}
	ex.sorter.ForceQuick = parent.sorter.ForceQuick
	w.ex = ex
	return w, nil
}

// fanOut distributes the runs of the freshly sorted full-table segment
// across the worker pool: runs are packed into size-balanced batches
// (longest first, so one hot run under skew fills a batch alone instead
// of serializing the build) and each batch is cubed by one slot. The
// false return means the segment collapsed to a single run and the
// caller should recurse sequentially — the next dimension down offers
// fan-out again through the same hook.
func (ex *executor) fanOut(dim int) (bool, error) {
	p := ex.par
	p.runs = p.runs[:0]
	for lo := 0; lo < len(ex.idx); {
		hi := runEnd(ex.keys, lo, len(ex.idx))
		p.runs = append(p.runs, segRun{lo, hi})
		lo = hi
	}
	if len(p.runs) < 2 {
		return false, nil
	}
	batches := batchRuns(p.runs, p.batching)
	// Snapshot the traversal state workers must enter with: the parent
	// executor keeps mutating its own levels while cubing slot 0's
	// batches.
	levels := append([]int(nil), ex.levels...)
	base := append([]int(nil), ex.baseLevel...)
	err := par.Do(p.lim, len(batches), func(slot, bi int) error {
		wex := ex
		// wex rebinds to the slot's worker below; the closure sees the
		// rebound value, so a panic names the worker that actually ran.
		defer obsv.CapturePanic(p.reg, func() string {
			return fmt.Sprintf("cube worker slot=%d batch=%d node=%s span=%s",
				slot, bi, wex.nodePath(), p.span.Path())
		})
		if injectTestPanic("worker") {
			panic("injected test panic (CURE_TEST_PANIC=worker)")
		}
		if slot > 0 {
			w := p.workers[slot]
			if w == nil {
				var werr error
				if w, werr = p.newSegWorker(ex); werr != nil {
					return werr
				}
				p.workers[slot] = w
			}
			copy(w.ex.levels, levels)
			copy(w.ex.baseLevel, base)
			wex = w.ex
		}
		var rows int64
		for _, r := range batches[bi] {
			rows += int64(r.hi - r.lo)
		}
		sp := p.span.Child("seg")
		sp.AddRowsIn(rows)
		defer sp.End()
		for _, r := range batches[bi] {
			lo, hi := r.lo, r.hi
			if slot > 0 {
				// A worker sees the run as its whole index array, so its
				// key scratch is as long as its longest run, not the table.
				lo, hi = 0, r.hi-r.lo
				wex.idx = ex.idx[r.lo:r.hi]
				if len(wex.keys) < hi {
					wex.keys = make([]int32, hi)
				}
			}
			if err := wex.executePlan(lo, hi, dim+1); err != nil {
				return err
			}
		}
		return nil
	})
	return true, err
}

// batchRuns packs runs into at most maxBatches size-balanced batches
// (greedy longest-processing-time: biggest run first, into the lightest
// batch). Oversubscribing the workers ~4× lets the dynamic claiming in
// par.Do smooth whatever imbalance the packing leaves.
func batchRuns(runs []segRun, maxBatches int) [][]segRun {
	if maxBatches < 2 {
		maxBatches = 2
	}
	nb := maxBatches
	if nb > len(runs) {
		nb = len(runs)
	}
	order := make([]int, len(runs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		sa := runs[order[a]].hi - runs[order[a]].lo
		sb := runs[order[b]].hi - runs[order[b]].lo
		if sa != sb {
			return sa > sb
		}
		return order[a] < order[b]
	})
	batches := make([][]segRun, nb)
	loads := make([]int, nb)
	for _, ri := range order {
		min := 0
		for b := 1; b < nb; b++ {
			if loads[b] < loads[min] {
				min = b
			}
		}
		batches[min] = append(batches[min], runs[ri])
		loads[min] += runs[ri].hi - runs[ri].lo
	}
	return batches
}

// attachPar arms one executor for segment fan-out under span. The
// signature budget is sharded across Parallelism workers exactly like
// the partition-worker pools. A nil limiter leaves the executor
// sequential.
func attachPar(ex *executor, lim *par.Limiter, span *obsv.Span, opts *Options) {
	if lim == nil {
		return
	}
	ex.par = &parCtx{
		lim:      lim,
		span:     span,
		reg:      opts.Metrics,
		poolCap:  shardedPoolCap(opts),
		batching: 4 * opts.Parallelism,
		workers:  make([]*segWorker, lim.Slots()),
	}
}

// shardedPoolCap is the per-worker signature-pool capacity: the build's
// pool budget split across Parallelism workers (floor 1024), so
// parallel builds honor roughly the same memory envelope as sequential
// ones.
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

// finishPar flushes the fan-out workers' pools and folds their trivial-
// tuple counts and signature statistics into stats. Call once, after
// the executor's last traversal; a no-op for sequential executors.
func (ex *executor) finishPar(stats *BuildStats) error {
	if ex.par == nil {
		return nil
	}
	var errs []error
	for _, w := range ex.par.workers {
		if w == nil {
			continue
		}
		if err := w.ex.pool.Flush(); err != nil {
			errs = append(errs, err)
			continue
		}
		stats.TTs += w.tts
		stats.workerPool = stats.workerPool.Add(w.ex.pool.Stats())
	}
	return errors.Join(errs...)
}
