package core

import (
	"cure/internal/hierarchy"
	"cure/internal/lattice"
	"cure/internal/obsv"
	"cure/internal/relation"
	"cure/internal/signature"
	"cure/internal/sortutil"
	"cure/internal/storage"
)

// edgeKind tags the plan edge a FollowEdge call descends: solid edges
// introduce a dimension with a fresh sort, dashed edges refine the
// rightmost grouping dimension inside an existing order (the pipelined
// shared sorts of §3.2).
type edgeKind uint8

const (
	edgeSolid edgeKind = iota
	edgeDashed
)

func (e edgeKind) String() string {
	if e == edgeDashed {
		return "dashed"
	}
	return "solid"
}

// mode maps the edge kind to the paper's sort-vs-pipeline terminology.
func (e edgeKind) mode() string {
	if e == edgeDashed {
		return "pipeline"
	}
	return "sort"
}

// executor runs the ExecutePlan / FollowEdge recursion of Figure 13 over
// one in-memory input table (the full fact table, one partition, or the
// node N). Several executors may share one signature pool and one cube
// writer across phases of a partitioned build.
type executor struct {
	table *relation.FactTable
	hier  *hierarchy.Schema
	specs []relation.AggSpec
	enum  *lattice.Enum
	pool  *signature.Pool
	w     *storage.Writer

	// countCol is the measure column holding per-row source-tuple counts
	// when the input is pre-aggregated (node N), or -1 when every input
	// row is one source tuple.
	countCol int
	// minCount is the iceberg threshold (1 = complete cube).
	minCount int64

	sorter sortutil.Sorter
	// shortPlan switches the traversal to the paper's P2 (every solid
	// edge adds a dimension at *each* of its levels; no dashed edges).
	shortPlan bool
	idx       []int32
	// keys is aligned with idx: keys[j] is the sort code of row idx[j] on
	// the edge that last sorted position j. A recursion overwrites only
	// the subrange it was handed, and every run loop finds a run's end
	// before descending into it, so one array serves the whole depth.
	keys []int32
	// levels[d] is the hierarchy level of dimension d in the node being
	// computed; AllLevel means the dimension is aggregated away.
	levels []int
	// baseLevel[d] is the most detailed level the dashed edges may reach
	// for dimension d (0 normally; L+1 for dimension 0 in the N phase).
	baseLevel []int
	aggBuf    []float64
	ttWritten *int64

	// Instrumentation: nil-safe counters (no-ops without a registry) and
	// an optional plan-traversal trace sink.
	tr            *obsv.TraceWriter
	cSortCounting *obsv.Counter
	cSortInsert   *obsv.Counter
	cSortQuick    *obsv.Counter
	cSortRows     *obsv.Counter
	cSegments     *obsv.Counter
	cTTPruned     *obsv.Counter
	cIcePruned    *obsv.Counter
}

func newExecutor(t *relation.FactTable, hier *hierarchy.Schema, specs []relation.AggSpec, countCol int, pool *signature.Pool, w *storage.Writer, iceberg int64, forceQuick bool, reg *obsv.Registry) *executor {
	ex := &executor{
		table:    t,
		hier:     hier,
		specs:    specs,
		enum:     w.Enum(),
		pool:     pool,
		w:        w,
		countCol: countCol,
		minCount: iceberg,
	}
	if reg != nil {
		ex.tr = reg.Trace()
		ex.cSortCounting = reg.Counter("core.sort.counting")
		ex.cSortInsert = reg.Counter("core.sort.insertion")
		ex.cSortQuick = reg.Counter("core.sort.quick")
		ex.cSortRows = reg.Counter("core.sort.rows")
		ex.cSegments = reg.Counter("core.segments")
		ex.cTTPruned = reg.Counter("core.tt_pruned")
		ex.cIcePruned = reg.Counter("core.iceberg_pruned")
	}
	if ex.minCount < 1 {
		ex.minCount = 1
	}
	ex.sorter.ForceQuick = forceQuick
	ex.idx = sortutil.Iota(nil, t.Len())
	ex.keys = make([]int32, t.Len())
	ex.levels = make([]int, hier.NumDims())
	ex.baseLevel = make([]int, hier.NumDims())
	for d, dim := range hier.Dims {
		ex.levels[d] = dim.AllLevel()
	}
	ex.aggBuf = make([]float64, len(specs))
	return ex
}

// run executes the full plan from the root (∅) node — Figure 13 line 8
// (in-memory path) and line 20 (N phase).
func (ex *executor) run(stats *BuildStats) error {
	ex.ttWritten = &stats.TTs
	if ex.table.Len() == 0 {
		return nil
	}
	return ex.executePlan(0, len(ex.idx), 0)
}

// runRoot executes the plan subtree that enters dimension 0 at level
// (one solid edge from the root ∅) with base overriding baseLevel for
// the duration (nil keeps every dimension free to descend to its base).
// With no override it is the partition phase for one partition (Figure
// 13 lines 12–15), covering exactly the nodes with dimension 0 at levels
// ≤ level. The N_1 phase of a pair build pins dimension 0 with
// base = {level, M+1}: dimension 0 never descends, and dimension 1 stops
// at M+1. Either way {A_level} is a phase root, recorded as such: its
// trivial tuples belong to this phase only.
func (ex *executor) runRoot(level int, base []int, stats *BuildStats) error {
	ex.ttWritten = &stats.TTs
	ex.levels[0] = level
	copy(ex.baseLevel, base)
	defer func() {
		ex.levels[0] = ex.hier.Dims[0].AllLevel()
		clear(ex.baseLevel)
	}()
	ex.w.SetPlanParent(ex.enum.Encode(ex.levels), storage.PlanRoot)
	if ex.table.Len() == 0 {
		return nil
	}
	return ex.followEdge(0, len(ex.idx), 0, edgeSolid)
}

// executePlan computes the tuple of the current node (identified by
// ex.levels) for the segment idx[lo:hi], then follows the plan's solid
// edges (adding each dimension ≥ dim at its levels directly under ALL)
// and dashed edges (refining dimension dim-1 one dashed-tree step).
func (ex *executor) executePlan(lo, hi, dim int) error {
	// Source-tuple count: row count for raw input, summed counts for the
	// pre-aggregated node N.
	var srcCount int64
	if ex.countCol < 0 {
		srcCount = int64(hi - lo)
	} else {
		col := ex.table.Measures[ex.countCol]
		for j := lo; j < hi; j++ {
			srcCount += int64(col[ex.idx[j]])
		}
	}
	if srcCount < ex.minCount {
		ex.cIcePruned.Inc()
		return nil // iceberg pruning: neither stored nor refined
	}
	node := ex.enum.Encode(ex.levels)
	ex.cSegments.Inc()
	if ex.tr != nil {
		ex.tr.Emit(obsv.NodeEvent{Ev: "node", Node: int64(node), Rows: hi - lo, Depth: dim})
	}
	if srcCount == 1 {
		// Trivial tuple: store only the R-rowid, once, at this (least
		// detailed) node, and prune — the whole plan subtree shares it.
		(*ex.ttWritten)++
		ex.cTTPruned.Inc()
		return ex.w.WriteTT(node, ex.table.RowID(int(ex.idx[lo])))
	}
	aggs := relation.AggregateRange(ex.table, ex.specs, ex.idx, lo, hi, ex.aggBuf)
	minRowid := ex.table.RowID(int(ex.idx[lo]))
	for j := lo + 1; j < hi; j++ {
		if id := ex.table.RowID(int(ex.idx[j])); id < minRowid {
			minRowid = id
		}
	}
	if err := ex.pool.Add(node, minRowid, aggs); err != nil {
		return err
	}

	numDims := ex.hier.NumDims()
	if ex.shortPlan {
		// Shortest plan (P2): every edge adds one dimension, at each of
		// its levels; refinement never happens in place, so sorts are
		// not shared across levels of a dimension.
		for d := dim; d < numDims; d++ {
			dimD := ex.hier.Dims[d]
			for l := dimD.AllLevel() - 1; l >= 0; l-- {
				ex.levels[d] = l
				if err := ex.followEdge(lo, hi, d, edgeSolid); err != nil {
					return err
				}
			}
			ex.levels[d] = dimD.AllLevel()
		}
		return nil
	}
	// Solid edges: bring in each remaining dimension at its level(s)
	// directly under ALL (rule 1; several for complex hierarchies).
	for d := dim; d < numDims; d++ {
		dimD := ex.hier.Dims[d]
		for _, top := range dimD.DashChildren(dimD.AllLevel()) {
			if top < ex.baseLevel[d] {
				continue
			}
			ex.levels[d] = top
			if err := ex.followEdge(lo, hi, d, edgeSolid); err != nil {
				return err
			}
		}
		ex.levels[d] = dimD.AllLevel()
	}
	// Dashed edges: refine the rightmost grouping dimension one step
	// down its dashed tree (rule 2 / modified rule 2).
	if dim >= 1 {
		dimP := ex.hier.Dims[dim-1]
		cur := ex.levels[dim-1]
		for _, c := range dimP.DashChildren(cur) {
			if c < ex.baseLevel[dim-1] {
				continue
			}
			ex.levels[dim-1] = c
			if err := ex.followEdge(lo, hi, dim-1, edgeDashed); err != nil {
				return err
			}
		}
		ex.levels[dim-1] = cur
	}
	return nil
}

// followEdge re-sorts the segment idx[lo:hi] on dimension dim at its
// current level and recurses into every run of equal codes (Figure 13's
// FollowEdge).
func (ex *executor) followEdge(lo, hi, dim int, edge edgeKind) error {
	alg := ex.sortSegment(lo, hi, dim)
	if ex.tr != nil {
		ex.tr.Emit(obsv.EdgeEvent{
			Ev:    "edge",
			Node:  int64(ex.enum.Encode(ex.levels)),
			Edge:  edge.String(),
			Mode:  edge.mode(),
			Alg:   alg.String(),
			Dim:   dim,
			Level: ex.levels[dim],
			Rows:  hi - lo,
		})
	}
	for lo < hi {
		end := sortutil.RunEnd(ex.keys, lo, hi)
		if err := ex.executePlan(lo, end, dim+1); err != nil {
			return err
		}
		lo = end
	}
	return nil
}

// sortSegment materialises the codes of rows idx[lo:hi] on dimension dim
// at its current level into keys[lo:hi] — one pass, no interface call per
// row — and sorts the two arrays together, so the run loops that follow
// read sorted codes instead of looking every row up again.
func (ex *executor) sortSegment(lo, hi, dim int) sortutil.Alg {
	seg, keys := ex.idx[lo:hi], ex.keys[lo:hi]
	d := ex.hier.Dims[dim]
	lvl := ex.levels[dim]
	var levelMap []int32 // level 0 is the column itself
	if lvl > 0 {
		levelMap = d.Levels[lvl].Map
	}
	sortutil.Codes(keys, seg, ex.table.Dims[dim], levelMap)
	alg := ex.sorter.SortKeyed(seg, keys, int(d.Card(lvl)))
	switch alg {
	case sortutil.AlgCounting:
		ex.cSortCounting.Inc()
	case sortutil.AlgInsertion:
		ex.cSortInsert.Inc()
	case sortutil.AlgQuick:
		ex.cSortQuick.Inc()
	}
	if alg != sortutil.AlgNone {
		ex.cSortRows.Add(int64(len(seg)))
	}
	return alg
}

// runPartitionPair executes one pair-partitioning root {A_la, B_lb}, the
// k = 2 prefix pin of the partition phase: the segment tree fixes
// dimension 0 at level la and enters dimension 1 at level lb, covering
// exactly the plan subtree rooted at that node (§4's pair extension).
// Dimension 0 never descends here — it is never the rightmost grouping
// dimension inside this subtree. The node is recorded as a phase root.
func (ex *executor) runPartitionPair(la, lb int, stats *BuildStats) error {
	ex.ttWritten = &stats.TTs
	ex.levels[0] = la
	ex.levels[1] = lb
	defer func() {
		ex.levels[0] = ex.hier.Dims[0].AllLevel()
		ex.levels[1] = ex.hier.Dims[1].AllLevel()
	}()
	ex.w.SetPlanParent(ex.enum.Encode(ex.levels), storage.PlanRoot)
	if ex.table.Len() == 0 {
		return nil
	}
	ex.sortSegment(0, len(ex.idx), 0)
	for lo := 0; lo < len(ex.idx); {
		hi := sortutil.RunEnd(ex.keys, lo, len(ex.idx))
		// Inner segmentation on dimension 1 at level lb.
		if err := ex.followEdge(lo, hi, 1, edgeSolid); err != nil {
			return err
		}
		lo = hi
	}
	return nil
}
