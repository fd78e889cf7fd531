// Package query answers queries over materialized CURE cubes. There is
// one op, Engine.Query(Spec): the tuples of one lattice node, optionally
// restricted by predicates at any level the node's grouping rolls up into
// (Spec.Where) and by an iceberg threshold on the cube's COUNT
// (Spec.MinCount). It reassembles the node's tuples from its NT/TT/CAT
// relations (collecting shared trivial tuples along the execution-plan
// path), prunes extent blocks by their zone maps, and dereferences
// R-rowids against the original fact table a block at a time through a
// budgeted factstore.Store (§5.3 identifies the fact table and AGGREGATES
// as the two relations worth caching). Explain plans the same Spec, and
// Verify checks whole nodes and drawn Specs against a brute-force CUBE of
// the fact table. The engine is safe for concurrent use: any number of
// goroutines may run queries over one Engine.
package query

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cure/internal/factstore"
	"cure/internal/hierarchy"
	"cure/internal/lattice"
	"cure/internal/obsv"
	"cure/internal/relation"
	"cure/internal/storage"
)

// Options configures a query engine.
type Options struct {
	// CacheFraction is the fraction of the fact table the fact store may
	// keep resident (0 = nothing, 1 = the whole table, which then never
	// evicts). This is the knob of the paper's Figure 17.
	CacheFraction float64
	// PinAggregates loads the whole AGGREGATES relation into memory —
	// the other half of §5.3's caching advice. Defaults to true via
	// OpenDefault.
	PinAggregates bool
	// NoIndex disables zone-map block pruning for predicate queries;
	// selections then fall back to full extent scans.
	NoIndex bool
	// DecodedCacheBytes budgets the decoded-block cache in raw-equivalent
	// bytes (0 = a 32 MiB default, negative = disabled).
	DecodedCacheBytes int64
	// Metrics is the optional observability registry: cache
	// hit/miss/eviction counters, per-query row counters, and a
	// node-query latency histogram (microseconds). nil disables it.
	Metrics *obsv.Registry
	// Queries is the optional per-query tracker: every public query op
	// registers itself in-flight, publishes the extent it is scanning,
	// and lands a completed record (with I/O attribution) in the
	// tracker's ring and slow-query log. nil disables tracking.
	Queries *obsv.QueryTracker
}

// Engine answers queries over one materialized cube directory.
type Engine struct {
	r      *storage.Reader
	fact   *relation.FactReader
	facts  *factstore.Store // every R-rowid dereference goes through it
	bufs   sync.Pool        // of *scanBufs
	aggRaw []byte           // pinned AGGREGATES, nil when not pinned
	enum   *lattice.Enum
	// countAgg is the index of the cube's first COUNT aggregate, the one
	// an iceberg Spec thresholds; -1 when the cube has none.
	countAgg int
	// reg is nil when no registry is attached; every instrument is then
	// nil and inert, and a query without a plan skips the clock.
	reg      *obsv.Registry
	ops      map[string]opStats // per-op counter and latency histogram
	cRows    *obsv.Counter
	cTTScan  *obsv.Counter
	cNTScan  *obsv.Counter
	cCATScan *obsv.Counter
	// Fact-store accounting; it settles once per query, like every other
	// query.* counter.
	cHits, cMisses, cEvicts *obsv.Counter
	// Zone-map index accounting and the umbrella latency histogram every
	// query op observes.
	cIdxHits    *obsv.Counter
	cIdxSkipped *obsv.Counter
	cBytes      *obsv.Counter
	cDecoded    *obsv.Counter
	hQuery      *obsv.Histogram
	noIndex     bool
	zones       *storage.ZoneLayout // lowers predicates onto zone-map slots
	// queries is the optional per-query tracker; qid numbers queries when
	// no tracker is attached (EXPLAIN still wants a stable query id).
	queries *obsv.QueryTracker
	qid     atomic.Int64
}

// Open opens a cube directory for querying.
func Open(dir string, opts Options) (*Engine, error) {
	r, err := storage.OpenReader(dir)
	if err != nil {
		return nil, err
	}
	r.SetMetrics(opts.Metrics)
	fact, err := relation.OpenFactReader(r.FactPath())
	if err != nil {
		r.Close()
		return nil, err
	}
	e := &Engine{
		r:        r,
		fact:     fact,
		facts:    factstore.New(fact, int64(min(max(opts.CacheFraction, 0), 1)*float64(fact.Rows()))),
		enum:     r.Enum(),
		countAgg: -1,
		reg:      opts.Metrics,
		ops:      make(map[string]opStats, len(queryOps)),
		cRows:    opts.Metrics.Counter("query.rows"),
		cTTScan:  opts.Metrics.Counter("query.scan.tt_rows"),
		cNTScan:  opts.Metrics.Counter("query.scan.nt_rows"),
		cCATScan: opts.Metrics.Counter("query.scan.cat_rows"),
		cHits:    opts.Metrics.Counter("query.cache.hits"),
		cMisses:  opts.Metrics.Counter("query.cache.misses"),
		cEvicts:  opts.Metrics.Counter("query.cache.evictions"),

		cIdxHits:    opts.Metrics.Counter("query.index.hits"),
		cIdxSkipped: opts.Metrics.Counter("query.index.blocks_skipped"),
		cBytes:      opts.Metrics.Counter("query.bytes_read"),
		cDecoded:    opts.Metrics.Counter("query.bytes_decoded"),
		hQuery:      opts.Metrics.Histogram("query.latency_us"),
		noIndex:     opts.NoIndex,
		queries:     opts.Queries,
	}
	// Row-ids come off disk and index the fact file: a file shorter than
	// the cube was built over, or with other columns, cannot be the one they
	// reference. A longer one is legal: update.Apply extends the file as
	// its last step, so the cube it refreshed sees more rows than it covers
	// — and a refreshed cube whose append never happened sees fewer.
	if fact.Rows() < r.Manifest().FactRows || fact.Schema().NumDims() != r.Hier().NumDims() {
		e.Close()
		return nil, fmt.Errorf("query: fact file %s has %d rows × %d dims, the cube references %d rows × %d dims",
			r.FactPath(), fact.Rows(), fact.Schema().NumDims(), r.Manifest().FactRows, r.Hier().NumDims())
	}
	for _, op := range queryOps {
		e.ops[op] = opStats{
			count: opts.Metrics.Counter("query." + op + ".count"),
			lat:   opts.Metrics.Histogram("query." + op + ".latency_us"),
		}
	}
	for i, s := range r.Manifest().AggSpecs {
		if s.Func == relation.AggCount {
			e.countAgg = i
			break
		}
	}
	e.zones = storage.NewZoneLayout(r.Hier())
	opts.Metrics.Gauge("query.cache.fraction_pct").Set(int64(opts.CacheFraction * 100))
	// Extents are read through a decoded-block cache: a hit costs neither
	// the pread nor the decode. Attached before any read path runs, per
	// the reader's concurrency contract.
	if bc := newBlockCache(opts.DecodedCacheBytes, opts.Metrics); bc != nil {
		r.SetBlockCache(bc)
	}
	if opts.PinAggregates {
		if e.aggRaw, err = r.AggregatesRaw(); err != nil {
			e.Close()
			return nil, err
		}
	}
	return e, nil
}

// OpenDefault opens a cube with full fact-table caching and pinned
// AGGREGATES — the configuration the paper's headline query numbers use.
func OpenDefault(dir string) (*Engine, error) {
	return Open(dir, Options{CacheFraction: 1, PinAggregates: true})
}

// Close releases the engine's resources.
func (e *Engine) Close() error {
	err := e.r.Close()
	if cerr := e.fact.Close(); err == nil {
		err = cerr
	}
	return err
}

// Enum exposes the node enumeration of the cube's schema.
func (e *Engine) Enum() *lattice.Enum { return e.enum }

// Hier exposes the hierarchical schema the cube was built over.
func (e *Engine) Hier() *hierarchy.Schema { return e.r.Hier() }

// FactPath returns the resolved path of the fact table the cube's row-ids
// reference.
func (e *Engine) FactPath() string { return e.r.FactPath() }

// Manifest exposes the cube catalog.
func (e *Engine) Manifest() *storage.Manifest { return e.r.Manifest() }

// PlanRoots returns the phase roots the cube's build recorded, in id
// order; an in-memory build has none.
func (e *Engine) PlanRoots() []lattice.NodeID { return e.r.PlanRoots() }

// Row is one result tuple of a query: the node's grouping-attribute
// codes (at the node's levels, in dimension order) and the aggregates.
// RRowid is the minimum fact-table row-id of the tuple's source set (-1
// for CURE_DR normal tuples, whose storage drops the reference);
// incremental maintenance relies on it.
type Row struct {
	Dims   []int32
	Aggrs  []float64
	RRowid int64
}

// qctx is the per-query attribution context: one per query, owned by
// the single goroutine running it, threaded through scanNode down to
// the storage reader and fact store. Tallies are plain fields (no
// atomics — concurrent queries each carry their own) and settle into
// the engine's registry counters exactly once at query end, which is
// what makes an EXPLAIN ANALYZE's actuals equal the cure_query_*
// counter deltas observed around that query.
type qctx struct {
	id   int64
	rows int64
	io   storage.IOStats
	// Fact-store treatment of the row-ids dereferenced.
	facts factstore.Stats
	// Rows visited per extent class (post zone-map pruning).
	ttScanned  int64
	ntScanned  int64
	catScanned int64
	// Zone-map pruning verdicts across the extents consulted.
	zoneKept    int64
	zoneSkipped int64
	active      *obsv.ActiveQuery // tracker handle, nil without a tracker
	plan        *Plan             // EXPLAIN ANALYZE attaches its plan here
}

// queryIO renders the tally as the record's I/O block.
func (q *qctx) queryIO() obsv.QueryIO {
	return obsv.QueryIO{
		BytesRead:         q.io.BytesRead + q.facts.BytesRead,
		Reads:             q.io.Reads + q.facts.Faults,
		BytesDecoded:      q.io.BytesDecoded,
		CacheHits:         q.facts.Hits,
		PagesFaulted:      q.facts.Faults,
		TTScanned:         q.ttScanned,
		NTScanned:         q.ntScanned,
		CATScanned:        q.catScanned,
		ZoneBlocksKept:    q.zoneKept,
		ZoneBlocksSkipped: q.zoneSkipped,
	}
}

// beginQuery opens the per-query context: a fresh tally, a monotonic
// query id, and (when a tracker is attached) the in-flight registration.
func (e *Engine) beginQuery(op string, s Spec) *qctx {
	q := &qctx{}
	if e.queries != nil {
		q.active = e.queries.Begin(op, int64(s.Node), e.nodeName(s.Node), e.whereString(s))
		q.id = q.active.ID()
	} else {
		q.id = e.qid.Add(1)
	}
	return q
}

// endQuery settles the query's tallies into the registry counters
// (exactly once per query) and completes the tracker record. Returns
// err unchanged so callers can tail-call it.
func (e *Engine) endQuery(q *qctx, err error) error {
	e.cTTScan.Add(q.ttScanned)
	e.cNTScan.Add(q.ntScanned)
	e.cCATScan.Add(q.catScanned)
	e.cIdxHits.Add(q.zoneKept)
	e.cIdxSkipped.Add(q.zoneSkipped)
	e.cBytes.Add(q.io.BytesRead + q.facts.BytesRead)
	e.cDecoded.Add(q.io.BytesDecoded)
	e.cRows.Add(q.rows)
	e.cHits.Add(q.facts.Hits)
	e.cMisses.Add(q.facts.Faults)
	e.cEvicts.Add(q.facts.Evictions)
	if e.queries != nil {
		var plan any
		if q.plan != nil {
			plan = q.plan
		}
		e.queries.End(q.active, q.rows, err, q.queryIO(), plan)
	}
	return err
}

// panicCtx is the capture context runQuery defers: a panic anywhere
// under the op is attributed to this query's id, op, and node in the
// diagnostic bundle and the re-raised *obsv.PanicError.
func (e *Engine) panicCtx(q *qctx, op string, id lattice.NodeID) func() string {
	return func() string {
		return fmt.Sprintf("query id=%d op=%s node=%s", q.id, op, e.nodeName(id))
	}
}

// nodeName renders a node as its grouped dimension levels
// ("dim.Level,dim.Level", "ALL" for the apex) for query records.
func (e *Engine) nodeName(id lattice.NodeID) string {
	if !e.enum.Valid(id) {
		return ""
	}
	levels := e.enum.Decode(id, nil)
	hier := e.r.Hier()
	var b strings.Builder
	for d, l := range levels {
		if hier.Dims[d].IsAll(l) {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		b.WriteString(hier.Dims[d].Name)
		b.WriteByte('.')
		b.WriteString(hier.Dims[d].LevelName(l))
	}
	if b.Len() == 0 {
		return "ALL"
	}
	return b.String()
}

// whereString renders a validated spec's selection for query records
// ("dim.Level=code" / "dim.Level in [lo,hi]" / "count>n", " and "-joined).
func (e *Engine) whereString(s Spec) string {
	hier := e.r.Hier()
	var b strings.Builder
	for _, p := range s.Where {
		if b.Len() > 0 {
			b.WriteString(" and ")
		}
		d := hier.Dims[p.Dim]
		b.WriteString(d.Name)
		b.WriteByte('.')
		b.WriteString(d.LevelName(p.Level))
		if p.Lo == p.Hi {
			fmt.Fprintf(&b, "=%d", p.Lo)
		} else {
			fmt.Fprintf(&b, " in [%d,%d]", p.Lo, p.Hi)
		}
	}
	if s.MinCount > 0 {
		if b.Len() > 0 {
			b.WriteString(" and ")
		}
		fmt.Fprintf(&b, "count>%v", s.MinCount)
	}
	return b.String()
}

// Spec is one query: the tuples of lattice node Node, restricted to those
// that satisfy every predicate of Where and, when MinCount > 0, whose
// COUNT exceeds MinCount.
type Spec struct {
	Node lattice.NodeID
	// Where selects tuples by the codes of their source rows; see
	// Predicate for the levels a predicate may reference.
	Where []Predicate
	// MinCount > 0 makes the query an iceberg query (HAVING count(*) >
	// MinCount) over the cube's first COUNT aggregate; a cube without one
	// refuses it. It must be at least 1 (0 means no threshold).
	MinCount float64
}

// queryOps are the op names a query runs under: the three a Spec picks
// (see op) and EXPLAIN ANALYZE's.
var queryOps = []string{"node", "where", "iceberg", "explain"}

// op names the spec in metrics, spans and query records: "iceberg" with a
// threshold, else "where" with predicates, else "node".
func (s Spec) op() string {
	switch {
	case s.MinCount > 0:
		return "iceberg"
	case len(s.Where) > 0:
		return "where"
	}
	return "node"
}

// opStats are one op's query.<op>.count counter and query.<op>.latency_us
// histogram.
type opStats struct {
	count *obsv.Counter
	lat   *obsv.Histogram
}

// Query streams the tuples of s.Node that pass s's selection to fn; the
// Row passed to fn reuses internal buffers. It is the one query op: the
// paper's §7 node queries, selections over ranges at any hierarchy level,
// and iceberg queries. An iceberg spec skips trivial tuples wholesale
// (their count is always 1), the property that makes iceberg queries on
// CURE cubes orders of magnitude cheaper than on formats that materialize
// them. Safe for concurrent use.
func (e *Engine) Query(s Spec, fn func(Row) error) error {
	f, levels, err := e.compileFilter(s)
	if err != nil {
		return err
	}
	return e.runQuery(s.op(), s, f, levels, nil, fn)
}

// NodeQuery is Query(Spec{Node: id}). It exists only for
// benchmarks/cubemark, until that harness calls Query.
func (e *Engine) NodeQuery(id lattice.NodeID, fn func(Row) error) error {
	return e.Query(Spec{Node: id}, fn)
}

// runQuery is the one frame every scan runs in: the per-query context and
// panic attribution, and with a registry a root span "query.<op>" (so
// in-flight queries show up in /metrics and /progress next to build
// phases; the registry caps retained root spans, keeping long query
// workloads bounded), the op's counter and latency histogram and the
// all-ops one. A non-nil plan is EXPLAIN ANALYZE's: it receives the
// query id and the actuals before the query record is completed.
func (e *Engine) runQuery(op string, s Spec, f *scanFilter, levels []int, plan *Plan, fn func(Row) error) error {
	q := e.beginQuery(op, s)
	q.plan = plan
	// A panic ends the query with the panic as its error before it goes
	// on, so a caller that recovers it leaves nothing in flight.
	defer obsv.CapturePanicEnd(e.reg, e.panicCtx(q, op, s.Node), func(err error) { e.endQuery(q, err) })
	cfn := func(r Row) error { q.rows++; return fn(r) }
	if e.reg == nil && plan == nil {
		return e.endQuery(q, e.scanNode(s.Node, levels, f, q, cfn))
	}
	sp := e.reg.StartSpan("query." + op) // nil without a registry
	defer sp.End()
	start := time.Now()
	err := e.scanNode(s.Node, levels, f, q, cfn)
	us := time.Since(start).Microseconds()
	sp.AddRowsOut(q.rows)
	st := e.ops[op]
	st.count.Inc()
	st.lat.Observe(us)
	e.hQuery.Observe(us)
	if plan != nil {
		plan.QueryID = q.id
		plan.Actual = &PlanActuals{Rows: q.rows, ElapsedUs: us, IO: q.queryIO()}
	}
	return e.endQuery(q, err)
}

// scanFilter is a per-query selection threaded through scanNode: the
// tuple predicates, the same predicates lowered to zone-map slots (nil
// disables block pruning), and the CURE_DR dimension→position map for
// evaluating inline codes.
type scanFilter struct {
	preds []Predicate
	zp    []storage.ZonePred
	drPos []int
	// minCount > 0 makes the scan an iceberg query: only tuples whose COUNT
	// aggregate (index countAgg) exceeds it pass, tested on a block's
	// aggregate column before the survivors' fact rows are dereferenced.
	// Trivial tuples have count 1, which no threshold lets through, so
	// their walk is skipped wholesale.
	countAgg int
	minCount float64
}

// scanBufs is a node scan's batch scratch: the row-ids in hand, the block
// positions they came from, their fact columns and the CAT rows'
// aggregates. The engine pools it, so a query's garbage — and with it the
// collector's share of a serving core — does not grow with the block size;
// derefChunkRows bounds what a pooled one can hold.
type scanBufs struct {
	ids   []int64
	sel   []int
	aggrs []float64
	dims  [][]int32
	meas  [][]float64
}

// derefChunkRows caps the trivial-tuple row-ids dereferenced in one call,
// bounding a scan's column scratch (half a megabyte on a four-dimension,
// two-measure schema). NT and CAT rows go a decoded block at a time.
const derefChunkRows = 16 << 10

// scanNode streams the tuples of node id through the optional filter,
// attributing every read, fact-store access, and pruning verdict to q.
// Fact rows are dereferenced a batch at a time — one decoded NT/CAT block,
// one chunk of an ancestor's TT list — never per row. All scratch state is
// per-call, so concurrent scans never share mutable memory.
func (e *Engine) scanNode(id lattice.NodeID, levels []int, f *scanFilter, q *qctx, fn func(Row) error) error {
	hier := e.r.Hier()
	specs := e.r.Manifest().AggSpecs
	activeDims := make([]int, 0, len(levels))
	for d, l := range levels {
		if !hier.Dims[d].IsAll(l) {
			activeDims = append(activeDims, d)
		}
	}
	row := Row{
		Dims:  make([]int32, len(activeDims)),
		Aggrs: make([]float64, len(specs)),
	}
	// base and meas receive the fact columns of the batch in hand; only
	// the columns the scan reads are asked for: the grouped dimensions,
	// the predicates' dimensions and, for trivial tuples — whose
	// aggregates are their single source row's measures — the aggregated
	// measures.
	base := make([][]int32, hier.NumDims())
	meas := make([][]float64, e.fact.Schema().NumMeasures())
	sb, _ := e.bufs.Get().(*scanBufs)
	if sb == nil {
		sb = &scanBufs{dims: make([][]int32, len(base)), meas: make([][]float64, len(meas))}
	}
	defer e.bufs.Put(sb)
	dimCols := slices.Clone(activeDims)
	if f != nil && f.drPos == nil {
		for _, p := range f.preds {
			dimCols = append(dimCols, p.Dim)
		}
	}
	deref := func(rowids []int64, withMeas bool) error {
		n := len(rowids)
		for _, d := range dimCols {
			sb.dims[d] = slices.Grow(sb.dims[d][:0], n)
			base[d] = sb.dims[d][:n]
		}
		if !withMeas {
			return e.facts.Deref(rowids, base, nil, &q.facts)
		}
		for _, s := range specs {
			if s.Func != relation.AggCount {
				sb.meas[s.Measure] = slices.Grow(sb.meas[s.Measure][:0], n)
				meas[s.Measure] = sb.meas[s.Measure][:n]
			}
		}
		return e.facts.Deref(rowids, base, meas, &q.facts)
	}
	// emit hands fn the tuple at position k of the dereferenced batch, its
	// aggregates already in row.Aggrs, if it passes the tuple predicates.
	// A negative rrowid marks a CURE_DR normal tuple, whose codes are
	// already in row.Dims; everything else is projected from its source
	// row. CURE_DR cubes evaluate predicates on the projected codes, the
	// rest on the base columns — the exact semantics zone maps are built
	// with, which is what makes block pruning lossless.
	emit := func(k int, rrowid int64) error {
		if rrowid >= 0 {
			for i, d := range activeDims {
				row.Dims[i] = hier.Dims[d].MapCode(base[d][k], levels[d])
			}
		}
		if f != nil {
			for _, p := range f.preds {
				var code int32
				if f.drPos != nil {
					code = row.Dims[f.drPos[p.Dim]]
				} else {
					code = hier.Dims[p.Dim].MapCode(base[p.Dim][k], p.Level)
				}
				if !p.Match(code) {
					return nil
				}
			}
		}
		row.RRowid = rrowid
		return fn(row)
	}
	// prune lowers the filter onto one extent's zone map (nil: scan it
	// all) and tallies the verdict into q.
	prune := func(z *storage.ZoneIndex, rows int64) []storage.RowRange {
		ranges, st := e.prune(f, z, rows)
		q.zoneKept += int64(st.Kept)
		q.zoneSkipped += int64(st.Skipped)
		return ranges
	}

	// 1. Trivial tuples: stored once at the least detailed node they
	// belong to; collect them along the plan path. Each ancestor extent
	// prunes against its own zone map.
	var tt []int64 // not pooled: an ancestor's whole list has no bound
	for _, anc := range e.ttPath(id, f) {
		q.active.SetExtent(obsv.ExtentTT, int64(anc))
		var err error
		if tt, err = e.r.TTRowIDsIO(anc, tt, &q.io); err != nil {
			return err
		}
		ttRanges := []storage.RowRange{{Lo: 0, Hi: int64(len(tt))}}
		nm, _ := e.r.Manifest().NodeMeta(anc)
		if pr := prune(nm.TTZones, int64(len(tt))); pr != nil {
			ttRanges = pr
		}
		for _, rg := range ttRanges {
			for lo := rg.Lo; lo < rg.Hi; lo += derefChunkRows {
				chunk := tt[lo:min(lo+derefChunkRows, rg.Hi)]
				q.ttScanned += int64(len(chunk))
				if err := deref(chunk, true); err != nil {
					return err
				}
				for k, rrowid := range chunk {
					// A trivial tuple's aggregates are the projections of its
					// single source tuple.
					for i, s := range specs {
						if s.Func == relation.AggCount {
							row.Aggrs[i] = 1
						} else {
							row.Aggrs[i] = meas[s.Measure][k]
						}
					}
					if err := emit(k, rrowid); err != nil {
						return err
					}
				}
			}
		}
	}

	nm, _ := e.r.Manifest().NodeMeta(id)

	// 2. Normal tuples. sel holds the block positions that pass the
	// iceberg threshold (all of them otherwise), ids their row-ids.
	q.active.SetExtent(obsv.ExtentNT, int64(id))
	iceberg := f != nil && f.minCount > 0
	if err := e.r.NTBlocks(id, prune(nm.NTZones, nm.NTRows), &q.io, func(b *storage.NTBlock) error {
		q.ntScanned += int64(b.Len())
		sb.sel, sb.ids = sb.sel[:0], sb.ids[:0]
		for i := 0; i < b.Len(); i++ {
			if iceberg && b.Aggrs[f.countAgg][i] <= f.minCount {
				continue
			}
			sb.sel = append(sb.sel, i)
			if b.RRowids != nil {
				sb.ids = append(sb.ids, b.RRowids[i])
			}
		}
		if b.RRowids != nil {
			if err := deref(sb.ids, false); err != nil {
				return err
			}
		}
		for k, i := range sb.sel {
			rrowid := int64(-1) // CURE_DR: the codes are inline, the reference dropped
			if b.RRowids != nil {
				rrowid = sb.ids[k]
			}
			for j, col := range b.Dims {
				row.Dims[j] = col[i]
			}
			for a, col := range b.Aggrs {
				row.Aggrs[a] = col[i]
			}
			if err := emit(k, rrowid); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}

	// 3. Common aggregate tuples: aggregates via AGGREGATES, dimensions
	// via the source row-id (carried by the CAT row under format (b), by
	// the AGGREGATES tuple under format (a)). aggrs keeps the surviving
	// rows' aggregates until their fact rows are in.
	q.active.SetExtent(obsv.ExtentCAT, int64(id))
	var aggs *storage.AggCursor // unpinned AGGREGATES are read through it
	if e.aggRaw == nil {
		aggs = e.r.AggCursor()
	}
	return e.r.CATBlocks(id, prune(nm.CATZones, nm.CATRows), &q.io, func(b *storage.CATBlock) error {
		q.catScanned += int64(len(b.ARowids))
		sb.ids, sb.aggrs = sb.ids[:0], sb.aggrs[:0]
		for i, arowid := range b.ARowids {
			rrowid, err := e.readAggregate(aggs, arowid, row.Aggrs, &q.io)
			if err != nil {
				return err
			}
			if iceberg && row.Aggrs[f.countAgg] <= f.minCount {
				continue
			}
			if b.RRowids != nil {
				rrowid = b.RRowids[i]
			}
			sb.ids = append(sb.ids, rrowid)
			sb.aggrs = append(sb.aggrs, row.Aggrs...)
		}
		if err := deref(sb.ids, false); err != nil {
			return err
		}
		for k, rrowid := range sb.ids {
			copy(row.Aggrs, sb.aggrs[k*len(specs):])
			if err := emit(k, rrowid); err != nil {
				return err
			}
		}
		return nil
	})
}

// readAggregate fetches AGGREGATES tuple arowid from the pin, or without
// one through the scan's cursor, attributing its reads to io.
func (e *Engine) readAggregate(aggs *storage.AggCursor, arowid int64, aggrs []float64, io *storage.IOStats) (int64, error) {
	if aggs == nil {
		return e.r.DecodeAggregate(e.aggRaw, arowid, aggrs), nil
	}
	return aggs.Read(arowid, aggrs, io)
}

// prune lowers f onto one extent's zone map: the extent-row ranges left
// to scan and the pruning verdict. Nil ranges and a zero verdict mean the
// whole extent: no predicate with a zone slot, no map, or indexing off.
// scanNode and buildPlan both call it, so a plan's verdicts are the ones
// the query it describes tallies.
func (e *Engine) prune(f *scanFilter, z *storage.ZoneIndex, rows int64) ([]storage.RowRange, storage.ZoneStats) {
	if f == nil || len(f.zp) == 0 || z == nil || e.noIndex {
		return nil, storage.ZoneStats{}
	}
	return storage.PruneZonesStats(z, rows, f.zp)
}

// ttPath returns the plan nodes whose trivial tuples the scan of node id
// under f visits, root first: none for an iceberg query, as a count of 1
// exceeds no threshold.
func (e *Engine) ttPath(id lattice.NodeID, f *scanFilter) []lattice.NodeID {
	if f != nil && f.minCount > 0 {
		return nil
	}
	return e.planPath(id)
}

// planPath returns the plan nodes whose TT relations contribute to node
// id, root first: the walk up the plan tree the cube records, from id to
// ∅ or to the phase root id was built under.
func (e *Engine) planPath(id lattice.NodeID) []lattice.NodeID {
	path := []lattice.NodeID{id}
	for p, ok := e.r.PlanParent(id); ok; p, ok = e.r.PlanParent(p) {
		path = append(path, p)
	}
	slices.Reverse(path)
	return path
}

// NodeCount returns the number of result tuples of a node query without
// materializing dimension values (TTs still require plan-path metadata
// but no fact access).
func (e *Engine) NodeCount(id lattice.NodeID) (int64, error) {
	if !e.enum.Valid(id) {
		return 0, fmt.Errorf("query: invalid node id %d", id)
	}
	var n int64
	for _, anc := range e.planPath(id) {
		nm, ok := e.r.Manifest().NodeMeta(anc)
		if !ok {
			continue
		}
		n += nm.TTRows
	}
	if nm, ok := e.r.Manifest().NodeMeta(id); ok {
		n += nm.NTRows + nm.CATRows
	}
	return n, nil
}
