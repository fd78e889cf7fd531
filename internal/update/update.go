// Package update implements incremental maintenance of CURE cubes — the
// future-work direction §8 of the paper reports solving for NTs and TTs
// (with CATs in progress). Apply appends a batch of new fact tuples to
// the cube's fact table and produces a refreshed cube directory by
// merging the delta into every lattice node, instead of re-cubing the
// full fact table:
//
//  1. The delta rows are appended to the fact file (row-ids continue), so
//     existing R-rowid references stay valid and the old cube remains
//     queryable until the caller swaps directories.
//  2. The execution-plan tree is walked depth-first. At each node the old
//     tuples (materialized through the query engine, trivial-tuple
//     inheritance included) and the delta's groups are merged by their
//     projected dimension values.
//  3. Merged tuples are re-emitted through a fresh signature pool and
//     cube writer: groups that remain singletons are stored as trivial
//     tuples exactly at the least detailed node where they are singleton
//     (decided against the parent node's merged counts), and everything
//     else is re-classified into NTs and CATs — aggregate collisions may
//     change with the new data, so classification must re-run.
//
// Requirements: the cube must carry a COUNT aggregate (source-set sizes
// are recovered from it), must not be a CURE_DR cube (its NT rows drop
// the R-rowid), and must not be an iceberg cube (pruned groups cannot be
// merged). Memory grows with the tuple counts along one root-to-leaf plan
// path, matching the in-memory spirit of the merge.
package update

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"time"

	"cure/internal/factstore"
	"cure/internal/hierarchy"
	"cure/internal/lattice"
	"cure/internal/query"
	"cure/internal/relation"
	"cure/internal/signature"
	"cure/internal/storage"
)

// Options configures an incremental update.
type Options struct {
	// OldDir is the existing cube directory.
	OldDir string
	// NewDir receives the refreshed cube (must differ from OldDir).
	NewDir string
	// Delta holds the new fact tuples (same schema as the fact table).
	Delta *relation.FactTable
	// PoolCapacity sizes the signature pool for re-classification
	// (default core.DefaultPoolCapacity).
	PoolCapacity int
}

// Stats reports what an update did.
type Stats struct {
	// DeltaRows is the number of appended fact tuples.
	DeltaRows int
	// Nodes is the number of lattice nodes merged.
	Nodes int
	// Updated counts merged tuples whose aggregates changed.
	Updated int64
	// Inserted counts tuples that exist only because of the delta.
	Inserted int64
	// Carried counts old tuples re-emitted unchanged.
	Carried int64
	// TTs is the number of trivial tuples in the refreshed cube.
	TTs int64
	// Sizes is the refreshed cube's footprint.
	Sizes storage.Sizes
	// Elapsed is the wall-clock merge time.
	Elapsed time.Duration
}

// mergedTuple is one group during the per-node merge.
type mergedTuple struct {
	aggrs    []float64
	count    int64
	minRowid int64
	updated  bool // touched by the delta
	isNew    bool // exists only because of the delta
}

// Apply merges a delta batch into the cube at OldDir, writing the
// refreshed cube into NewDir.
func Apply(opts Options) (*Stats, error) {
	start := time.Now()
	if opts.OldDir == "" || opts.NewDir == "" || opts.OldDir == opts.NewDir {
		return nil, errors.New("update: need distinct OldDir and NewDir")
	}
	if opts.Delta == nil || opts.Delta.Len() == 0 {
		return nil, errors.New("update: empty delta")
	}
	if opts.Delta.RowIDs != nil {
		return nil, errors.New("update: delta must not carry explicit row-ids")
	}
	old, err := query.OpenDefault(opts.OldDir)
	if err != nil {
		return nil, err
	}
	defer old.Close()
	m := old.Manifest()
	if m.DimsInline {
		return nil, errors.New("update: CURE_DR cubes drop R-rowids and cannot be incrementally maintained")
	}
	if m.Iceberg > 1 {
		return nil, errors.New("update: iceberg cubes cannot be incrementally maintained (pruned groups are unrecoverable)")
	}
	countAgg := -1
	for i, s := range m.AggSpecs {
		if s.Func == relation.AggCount {
			countAgg = i
			break
		}
	}
	if countAgg < 0 {
		return nil, errors.New("update: cube needs a COUNT aggregate to recover source-set sizes")
	}
	hier := old.Hier()
	if hier.NumDims() != opts.Delta.Schema.NumDims() {
		return nil, fmt.Errorf("update: delta has %d dims, cube %d", opts.Delta.Schema.NumDims(), hier.NumDims())
	}

	// 1. Extend the fact table; delta tuple i becomes row-id firstID+i.
	factPath := old.FactPath()
	firstID, err := relation.AppendToFactFile(factPath, opts.Delta)
	if err != nil {
		return nil, err
	}
	factRows := firstID + int64(opts.Delta.Len())
	// Load the extended fact table once through the chunked scan path: the
	// merge re-projects a source row per singleton tuple, which would
	// otherwise be one random read each (the merge is an in-memory pass,
	// like the builds it replaces). Loading exactly factRows also shields
	// the merge from rows appended concurrently after ours.
	fact, err := relation.LoadFactRows(factPath, factRows)
	if err != nil {
		return nil, err
	}
	if int64(fact.Len()) < factRows {
		return nil, fmt.Errorf("update: extended fact file holds %d rows, want %d", fact.Len(), factRows)
	}

	w, err := storage.NewWriter(storage.Options{
		Dir:      opts.NewDir,
		Hier:     hier,
		AggSpecs: m.AggSpecs,
		FactFile: factPath,
		FactRows: factRows,
		Plus:     m.Plus,
	})
	if err != nil {
		return nil, err
	}
	poolCap := opts.PoolCapacity
	if poolCap <= 0 {
		poolCap = 1_000_000
	}
	pool, err := signature.NewPool(len(m.AggSpecs), poolCap, w)
	if err != nil {
		w.Abort()
		return nil, err
	}

	mg := &merger{
		old:      old,
		delta:    opts.Delta,
		firstID:  firstID,
		hier:     hier,
		enum:     old.Enum(),
		specs:    m.AggSpecs,
		countAgg: countAgg,
		pool:     pool,
		w:        w,
		facts:    factstore.FromColumns(fact),
		stats:    &Stats{DeltaRows: opts.Delta.Len()},
	}
	if err := mg.walk(mg.enum.RootID(), nil); err != nil {
		w.Abort()
		return nil, err
	}
	if err := pool.Flush(); err != nil {
		w.Abort()
		return nil, err
	}
	manifest, err := w.Finalize(pool.Format())
	if err != nil {
		return nil, err
	}
	mg.stats.Sizes = manifest.Sizes
	mg.stats.Elapsed = time.Since(start)
	return mg.stats, nil
}

type merger struct {
	old      *query.Engine
	delta    *relation.FactTable
	firstID  int64
	hier     *hierarchy.Schema
	enum     *lattice.Enum
	specs    []relation.AggSpec
	countAgg int
	pool     *signature.Pool
	w        *storage.Writer
	facts    *factstore.Store // the extended fact table
	stats    *Stats

	keyBuf  []byte
	dimBuf  []int32
	measBuf []float64
}

// walk merges node id and recurses into its plan children, carrying the
// merged map so children can place trivial tuples correctly.
func (mg *merger) walk(id lattice.NodeID, parent map[string]*mergedTuple) error {
	merged, err := mg.mergeNode(id, parent)
	if err != nil {
		return err
	}
	mg.stats.Nodes++
	for _, child := range mg.enum.PlanChildren(id) {
		if err := mg.walk(child, merged); err != nil {
			return err
		}
	}
	return nil
}

// mergeNode builds the merged tuple map of one node, emits its tuples,
// and returns the map for the children's trivial-tuple placement.
func (mg *merger) mergeNode(id lattice.NodeID, parent map[string]*mergedTuple) (map[string]*mergedTuple, error) {
	levels := mg.enum.Decode(id, nil)
	active := make([]int, 0, len(levels))
	for d, l := range levels {
		if !mg.hier.Dims[d].IsAll(l) {
			active = append(active, d)
		}
	}
	merged := map[string]*mergedTuple{}

	// Old side: the query engine materializes the node completely,
	// including inherited trivial tuples, and exposes each tuple's
	// minimum source row-id.
	err := mg.old.NodeQuery(id, func(row query.Row) error {
		if row.RRowid < 0 {
			return fmt.Errorf("update: node %s produced a tuple without an R-rowid", mg.enum.Name(id))
		}
		t := &mergedTuple{
			aggrs:    append([]float64(nil), row.Aggrs...),
			count:    int64(row.Aggrs[mg.countAgg]),
			minRowid: row.RRowid,
		}
		merged[mg.key(row.Dims)] = t
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Delta side: project and fold every delta row.
	numAggrs := len(mg.specs)
	if cap(mg.measBuf) < len(mg.delta.Measures) {
		mg.measBuf = make([]float64, len(mg.delta.Measures))
	}
	dims := make([]int32, len(active))
	for r := 0; r < mg.delta.Len(); r++ {
		for i, d := range active {
			dims[i] = mg.hier.Dims[d].MapCode(mg.delta.Dims[d][r], levels[d])
		}
		k := mg.key(dims)
		rowid := mg.firstID + int64(r)
		meas := mg.delta.MeasureRow(r, mg.measBuf)
		t, ok := merged[k]
		if !ok {
			t = &mergedTuple{
				aggrs:    make([]float64, numAggrs),
				minRowid: rowid,
				isNew:    true,
				updated:  true,
			}
			initAggrs(t.aggrs, mg.specs, meas)
			t.count = 1
			merged[k] = t
			continue
		}
		foldAggrs(t.aggrs, mg.specs, meas)
		t.count++
		t.updated = true
		if rowid < t.minRowid {
			t.minRowid = rowid
		}
	}

	// Emit in ascending minimum row-id — unique per group within a node —
	// so that two applies of one delta write the same bytes.
	emit := make([]*mergedTuple, 0, len(merged))
	for _, t := range merged {
		emit = append(emit, t)
	}
	slices.SortFunc(emit, func(a, b *mergedTuple) int { return cmp.Compare(a.minRowid, b.minRowid) })
	// A singleton's group in the plan parent comes from re-projecting its
	// source fact row; the node's singletons are dereferenced in one batch.
	var plevels []int
	base := make([][]int32, mg.hier.NumDims())
	if parent != nil {
		pid, ok := mg.enum.PlanParent(id)
		if !ok {
			return nil, fmt.Errorf("update: node %s has no plan parent", mg.enum.Name(id))
		}
		plevels = mg.enum.Decode(pid, nil)
		var rowids []int64
		for _, t := range emit {
			if t.count == 1 {
				rowids = append(rowids, t.minRowid)
			}
		}
		for d := range base {
			base[d] = make([]int32, len(rowids))
		}
		if err := mg.facts.Deref(rowids, base, nil, nil); err != nil {
			return nil, fmt.Errorf("update: node %s: %w", mg.enum.Name(id), err)
		}
	}
	singles := 0
	for _, t := range emit {
		switch {
		case t.isNew:
			mg.stats.Inserted++
		case t.updated:
			mg.stats.Updated++
		default:
			mg.stats.Carried++
		}
		if t.count == 1 {
			// Singleton: a trivial tuple. Store it only at the least
			// detailed node it belongs to — here, unless the parent's
			// group is also a singleton (then an ancestor already holds
			// it and this node inherits it).
			if parent != nil {
				pt, ok := parent[mg.parentKey(plevels, base, singles)]
				singles++
				if ok && pt.count == 1 {
					continue
				}
			}
			mg.stats.TTs++
			if err := mg.w.WriteTT(id, t.minRowid); err != nil {
				return nil, err
			}
			continue
		}
		if err := mg.pool.Add(id, t.minRowid, t.aggrs); err != nil {
			return nil, err
		}
	}
	return merged, nil
}

// key encodes projected dimension codes into a map key.
func (mg *merger) key(dims []int32) string {
	mg.keyBuf = mg.keyBuf[:0]
	for _, d := range dims {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], uint32(d))
		mg.keyBuf = append(mg.keyBuf, b[:]...)
	}
	return string(mg.keyBuf)
}

// parentKey computes the group key, in the plan parent whose levels are
// plevels, of the singleton whose source row is position k of the
// dereferenced base columns.
func (mg *merger) parentKey(plevels []int, base [][]int32, k int) string {
	proj := mg.dimBuf[:0]
	for d, l := range plevels {
		if !mg.hier.Dims[d].IsAll(l) {
			proj = append(proj, mg.hier.Dims[d].MapCode(base[d][k], l))
		}
	}
	mg.dimBuf = proj
	return mg.key(proj)
}

// initAggrs seeds aggregate values from one source tuple's measures.
func initAggrs(dst []float64, specs []relation.AggSpec, meas []float64) {
	for i, s := range specs {
		if s.Func == relation.AggCount {
			dst[i] = 1
		} else {
			dst[i] = meas[s.Measure]
		}
	}
}

// foldAggrs folds one more source tuple into aggregate values.
func foldAggrs(dst []float64, specs []relation.AggSpec, meas []float64) {
	for i, s := range specs {
		switch s.Func {
		case relation.AggSum:
			dst[i] += meas[s.Measure]
		case relation.AggCount:
			dst[i]++
		case relation.AggMin:
			if meas[s.Measure] < dst[i] {
				dst[i] = meas[s.Measure]
			}
		case relation.AggMax:
			if meas[s.Measure] > dst[i] {
				dst[i] = meas[s.Measure]
			}
		}
	}
}
