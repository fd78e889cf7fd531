package storage

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"

	"cure/internal/hierarchy"
	"cure/internal/lattice"
	"cure/internal/obsv"
	"cure/internal/relation"
	"cure/internal/signature"
)

// DimResolver fetches the base-level dimension codes of a batch of
// original fact-table rows: dims[d][i] receives the code of dimension d in
// row rowids[i], every column being at least len(rowids) long. It must
// reject a row-id outside the fact table with an error. Finalize needs it
// to fold zone maps and, for the CURE_DR variant, to replace NT row-ids
// with projected dimension values, and hands it an extent (or a
// resolveChunkRows slice of one) at a time; builds back it with
// factstore.Store.Deref.
type DimResolver func(rowids []int64, dims [][]int32) error

// Options configures a cube writer.
type Options struct {
	// Dir is the cube directory (created if missing).
	Dir string
	// Hier is the hierarchical schema the cube is built over.
	Hier *hierarchy.Schema
	// AggSpecs are the cube's aggregates (Y = len).
	AggSpecs []relation.AggSpec
	// FactFile is the fact table path recorded for query-time row-id
	// dereferencing.
	FactFile string
	// FactRows is the fact table's row count.
	FactRows int64
	// DimsInline selects the CURE_DR variant.
	DimsInline bool
	// Resolver is required when DimsInline is set.
	Resolver DimResolver
	// StageBudget bounds the bytes buffered across per-node stages
	// before they are spilled to the logs (default 8 MiB).
	StageBudget int64
	// ZoneBlockRows is the rows per extent block and per zone-map block
	// (0 = DefaultZoneBlockRows; negative = default blocks, no zone maps).
	// Zone maps also require a Resolver; writers without one skip them
	// silently.
	ZoneBlockRows int
	// Parallelism caps the workers of the finalize extent pipeline; ≤1
	// keeps it sequential. The output is byte-identical at every setting.
	// When Parallelism > 1 the Resolver must be safe for concurrent calls.
	Parallelism int
	// Iceberg records the min-count threshold of the build (default 1).
	Iceberg int64
	// Metrics is the optional observability registry: per-relation tuple
	// and byte counters (storage.nt.*, storage.tt.*, storage.cat.*,
	// storage.agg.*) and final size gauges. nil disables it.
	Metrics *obsv.Registry

	// plainLayout is set by PlainLayout only.
	plainLayout bool
}

// PlainLayout makes o write plain CURE's row-id layout instead of §5.3's
// CURE+ one: TT and format-(a) CAT row-ids stay in the order the build
// emitted them, and no TT extent becomes a bitmap block. It exists for
// the baseline arm of the paper's CURE-versus-CURE+ exhibits.
func PlainLayout(o *Options) { o.plainLayout = true }

// Writer materializes a cube. It implements signature.Sink for NT/CAT
// traffic and additionally receives trivial tuples directly (they bypass
// the signature pool). Construction spools every relation to a log;
// Finalize turns the logs into the cube. A Writer is single-goroutine
// until Lock() arms its mutex; parallel builds then share one writer
// across all workers, and the storage.lock.* counters report how
// contended that sharing was.
type Writer struct {
	opts Options
	enum *lattice.Enum
	// mu serializes sink calls when the build runs partition workers in
	// parallel; taken only after Lock() arms it.
	mu     sync.Mutex
	locked bool

	logs    [numRels]*blockLog // construction logs, by relation
	aggRows int64

	catFormat signature.Format
	// planParents is Manifest.PlanParents, filled by SetPlanParent.
	planParents map[string]lattice.NodeID

	// Bound instruments (nil-safe no-ops when no registry is attached).
	cNTRows, cNTBytes   *obsv.Counter
	cTTRows, cTTBytes   *obsv.Counter
	cCATRows, cCATBytes *obsv.Counter
	cAggRows, cAggBytes *obsv.Counter
	// Lock-contention accounting for parallel builds: every armed lock()
	// counts an acquisition; the ones that found the mutex held count as
	// contended. Their ratio tells whether the shared writer is the
	// scaling bottleneck.
	cLockAcq, cLockContended *obsv.Counter

	// finSpan, when set, parents the finalize sub-phase spans
	// (extents.nt/tt/agg/cat, commit). nil is fine — child spans of a nil
	// span are inert.
	finSpan *obsv.Span

	finalized bool
}

// NewWriter creates the cube directory and opens the construction logs.
func NewWriter(opts Options) (*Writer, error) {
	if len(opts.AggSpecs) == 0 {
		return nil, errors.New("storage: cube needs at least one aggregate")
	}
	if opts.DimsInline && opts.Resolver == nil {
		return nil, errors.New("storage: DimsInline requires a Resolver")
	}
	if opts.StageBudget <= 0 {
		opts.StageBudget = 8 << 20
	}
	if opts.Iceberg <= 0 {
		opts.Iceberg = 1
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	w := &Writer{opts: opts, enum: lattice.NewEnum(opts.Hier), planParents: map[string]lattice.NodeID{}}
	share := &stageBudget{limit: opts.StageBudget}
	y := len(opts.AggSpecs)
	for rel, width := range [numRels]int{relNT: ntLogRowWidth(y), relTT: ttLogRowWidth, relAgg: aggLogRowWidth(y), relCAT: catLogRowWidth} {
		var err error
		if w.logs[rel], err = newBlockLog(filepath.Join(opts.Dir, relFiles[rel]+".log"), width, share); err != nil {
			w.discard()
			return nil, err
		}
	}
	reg := opts.Metrics // nil registry yields nil (inert) counters
	w.cNTRows, w.cNTBytes = reg.Counter("storage.nt.rows"), reg.Counter("storage.nt.bytes")
	w.cTTRows, w.cTTBytes = reg.Counter("storage.tt.rows"), reg.Counter("storage.tt.bytes")
	w.cCATRows, w.cCATBytes = reg.Counter("storage.cat.rows"), reg.Counter("storage.cat.bytes")
	w.cAggRows, w.cAggBytes = reg.Counter("storage.agg.rows"), reg.Counter("storage.agg.bytes")
	w.cLockAcq = reg.Counter("storage.lock.acquired")
	w.cLockContended = reg.Counter("storage.lock.contended")
	return w, nil
}

// Enum returns the node enumeration of the cube's schema.
func (w *Writer) Enum() *lattice.Enum { return w.enum }

// SetPlanParent records that the build's plan tree enters node from
// parent rather than from lattice.PlanParent(node); parent PlanRoot marks
// a phase root. Queries share trivial tuples along the recorded tree.
func (w *Writer) SetPlanParent(node, parent lattice.NodeID) {
	w.lock()
	defer w.unlock()
	w.planParents[nodeKey(node)] = parent
}

// Lock arms internal locking so several construction workers may share
// the writer; single-threaded builds skip the mutex entirely.
func (w *Writer) Lock() { w.locked = true }

// SetFinalizeSpan attaches the span Finalize hangs its sub-phase child
// spans off (typically the caller's "finalize" span).
func (w *Writer) SetFinalizeSpan(sp *obsv.Span) { w.finSpan = sp }

func (w *Writer) lock() {
	if !w.locked {
		return
	}
	if !w.mu.TryLock() {
		w.cLockContended.Inc()
		w.mu.Lock()
	}
	w.cLockAcq.Inc()
}

func (w *Writer) unlock() {
	if w.locked {
		w.mu.Unlock()
	}
}

// WriteNT implements signature.Sink.
func (w *Writer) WriteNT(node lattice.NodeID, rrowid int64, aggrs []float64) error {
	w.lock()
	defer w.unlock()
	row := w.logs[relNT].rowBuf()
	putInt64(row, rrowid)
	putAggrs(row[8:], aggrs)
	w.cNTRows.Inc()
	w.cNTBytes.Add(int64(len(row)))
	return w.logs[relNT].append(node, row)
}

// AppendAggregate implements signature.Sink. A-rowids are the append
// order. The log row always carries the R-rowid column (-1 under format
// (b)); Finalize drops it again when the locked format has none.
func (w *Writer) AppendAggregate(rrowid int64, aggrs []float64) (int64, error) {
	w.lock()
	defer w.unlock()
	inferred := signature.FormatB
	if rrowid >= 0 {
		inferred = signature.FormatA
	}
	switch w.catFormat {
	case signature.FormatUndecided:
		w.catFormat = inferred
	case inferred:
	default:
		return 0, fmt.Errorf("storage: AGGREGATES format flip: had %v, got %v", w.catFormat, inferred)
	}
	row := w.logs[relAgg].rowBuf()
	putInt64(row, rrowid)
	putAggrs(row[8:], aggrs)
	w.cAggRows.Inc()
	w.cAggBytes.Add(int64(len(row)))
	id := w.aggRows
	w.aggRows++
	return id, w.logs[relAgg].append(aggNode, row)
}

// WriteCAT implements signature.Sink.
func (w *Writer) WriteCAT(node lattice.NodeID, rrowid, arowid int64) error {
	w.lock()
	defer w.unlock()
	row := w.logs[relCAT].rowBuf()
	putInt64(row, rrowid)
	putInt64(row[8:], arowid)
	w.cCATRows.Inc()
	w.cCATBytes.Add(int64(len(row)))
	return w.logs[relCAT].append(node, row)
}

// WriteTT records a trivial tuple: just the R-rowid, stored once in its
// least detailed node.
func (w *Writer) WriteTT(node lattice.NodeID, rrowid int64) error {
	w.lock()
	defer w.unlock()
	row := w.logs[relTT].rowBuf()
	putInt64(row, rrowid)
	w.cTTRows.Inc()
	w.cTTBytes.Add(int64(len(row)))
	return w.logs[relTT].append(node, row)
}

// Abort discards everything the writer put into the cube directory
// (best effort). It is a no-op after Finalize.
func (w *Writer) Abort() {
	if w.finalized {
		return
	}
	w.finalized = true
	w.discard()
}

// discard removes the logs and whatever a partial Finalize wrote, so a
// failed build never leaves a directory that opens.
func (w *Writer) discard() {
	for _, l := range w.logs {
		if l != nil {
			l.remove()
		}
	}
	for _, name := range []string{NTFile, TTFile, CATFile, AggFile, HierFile, ManifestFile, ManifestFile + ".tmp"} {
		os.Remove(filepath.Join(w.opts.Dir, name))
	}
}

func nodeKey(id lattice.NodeID) string { return strconv.FormatInt(int64(id), 10) }
