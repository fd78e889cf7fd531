package query

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"cure/internal/hierarchy"
	"cure/internal/lattice"
	"cure/internal/obsv"
	"cure/internal/relation"
	"cure/internal/signature"
	"cure/internal/storage"
)

// Options configures a query engine.
type Options struct {
	// CacheFraction is the fraction of the fact table held in the page
	// cache (0 = no caching, 1 = the whole table). This is the knob of
	// the paper's Figure 17.
	CacheFraction float64
	// PinAggregates loads the whole AGGREGATES relation into memory —
	// the other half of §5.3's caching advice. Defaults to true via
	// OpenDefault.
	PinAggregates bool
	// NoIndex disables zone-map block pruning for predicate queries (the
	// ablation arm of the query-throughput experiment); selections then
	// fall back to full extent scans.
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
	cache  *factCache
	aggRaw []byte // pinned AGGREGATES, nil when not pinned
	enum   *lattice.Enum
	// reg is nil when no registry is attached; hLatency/cRows are then
	// inert, and latency clocking is skipped entirely.
	reg      *obsv.Registry
	hLatency *obsv.Histogram
	cQueries *obsv.Counter
	cRows    *obsv.Counter
	cTTScan  *obsv.Counter
	cNTScan  *obsv.Counter
	cCATScan *obsv.Counter
	// Zone-map index accounting and the umbrella latency histogram every
	// public query op observes.
	cIdxHits    *obsv.Counter
	cIdxSkipped *obsv.Counter
	cBytes      *obsv.Counter
	cDecoded    *obsv.Counter
	cWhere      *obsv.Counter
	hWhere      *obsv.Histogram
	hQuery      *obsv.Histogram
	noIndex     bool
	zoneOffs    []int // dimension → first zone slot (storage.ZoneSlots)
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
		cache:    newFactCache(fact, opts.CacheFraction, opts.Metrics),
		enum:     r.Enum(),
		reg:      opts.Metrics,
		hLatency: opts.Metrics.Histogram("query.node.latency_us"),
		cQueries: opts.Metrics.Counter("query.node.count"),
		cRows:    opts.Metrics.Counter("query.rows"),
		cTTScan:  opts.Metrics.Counter("query.scan.tt_rows"),
		cNTScan:  opts.Metrics.Counter("query.scan.nt_rows"),
		cCATScan: opts.Metrics.Counter("query.scan.cat_rows"),

		cIdxHits:    opts.Metrics.Counter("query.index.hits"),
		cIdxSkipped: opts.Metrics.Counter("query.index.blocks_skipped"),
		cBytes:      opts.Metrics.Counter("query.bytes_read"),
		cDecoded:    opts.Metrics.Counter("query.bytes_decoded"),
		cWhere:      opts.Metrics.Counter("query.where.count"),
		hWhere:      opts.Metrics.Histogram("query.where.latency_us"),
		hQuery:      opts.Metrics.Histogram("query.latency_us"),
		noIndex:     opts.NoIndex,
		queries:     opts.Queries,
	}
	e.zoneOffs, _ = storage.ZoneSlots(r.Hier())
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

// CacheStats returns fact-cache hits and misses.
func (e *Engine) CacheStats() (hits, misses int64) { return e.cache.Stats() }

// Row is one result tuple of a node query: the node's grouping-attribute
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
// the storage reader and fact cache. Tallies are plain fields (no
// atomics — concurrent queries each carry their own) and settle into
// the engine's registry counters exactly once at query end, which is
// what makes an EXPLAIN ANALYZE's actuals equal the cure_query_*
// counter deltas observed around that query.
type qctx struct {
	id   int64
	rows int64
	io   storage.IOStats
	// Fact-page cache treatment.
	cacheHits    int64
	pagesFaulted int64
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
		BytesRead:         q.io.BytesRead,
		Reads:             q.io.Reads,
		BytesDecoded:      q.io.BytesDecoded,
		CacheHits:         q.cacheHits,
		PagesFaulted:      q.pagesFaulted,
		TTScanned:         q.ttScanned,
		NTScanned:         q.ntScanned,
		CATScanned:        q.catScanned,
		ZoneBlocksKept:    q.zoneKept,
		ZoneBlocksSkipped: q.zoneSkipped,
	}
}

// beginQuery opens the per-query context: a fresh tally, a monotonic
// query id, and (when a tracker is attached) the in-flight registration.
func (e *Engine) beginQuery(op string, id lattice.NodeID, where string) *qctx {
	q := &qctx{}
	if e.queries != nil {
		q.active = e.queries.Begin(op, int64(id), e.nodeName(id), where)
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
	e.cBytes.Add(q.io.BytesRead)
	e.cDecoded.Add(q.io.BytesDecoded)
	e.cRows.Add(q.rows)
	if e.queries != nil {
		var plan any
		if q.plan != nil {
			plan = q.plan
		}
		e.queries.End(q.active, q.rows, err, q.queryIO(), plan)
	}
	return err
}

// panicCtx is the capture context the public query ops defer: a panic
// anywhere under the op is attributed to this query's id, op, and node
// in the diagnostic bundle and the re-raised *obsv.PanicError.
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

// whereString renders validated predicates for query records
// ("dim.Level=code" / "dim.Level in [lo,hi]", " and "-joined).
func (e *Engine) whereString(preds []Predicate) string {
	if len(preds) == 0 {
		return ""
	}
	hier := e.r.Hier()
	var b strings.Builder
	for i, p := range preds {
		if i > 0 {
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
	return b.String()
}

// NodeQuery streams every tuple of node id to fn. The Row passed to fn
// reuses internal buffers. This is the "node query, no selection"
// workload of the paper's §7. Safe for concurrent use — any number of
// goroutines may query one Engine simultaneously.
func (e *Engine) NodeQuery(id lattice.NodeID, fn func(Row) error) error {
	q := e.beginQuery("node", id, "")
	defer obsv.CapturePanic(e.reg, e.panicCtx(q, "node", id))
	cfn := func(r Row) error { q.rows++; return fn(r) }
	if e.reg == nil {
		return e.endQuery(q, e.nodeQuery(id, q, cfn))
	}
	// Each instrumented query is a root span, so in-flight queries show
	// up in /metrics and /progress next to build phases. The registry
	// caps retained root spans, keeping long query workloads bounded.
	sp := e.reg.StartSpan("query.node")
	defer sp.End()
	start := time.Now()
	err := e.nodeQuery(id, q, cfn)
	sp.AddRowsOut(q.rows)
	e.cQueries.Inc()
	us := time.Since(start).Microseconds()
	e.hLatency.Observe(us)
	e.hQuery.Observe(us)
	return e.endQuery(q, err)
}

func (e *Engine) nodeQuery(id lattice.NodeID, q *qctx, fn func(Row) error) error {
	if !e.enum.Valid(id) {
		return fmt.Errorf("query: invalid node id %d", id)
	}
	return e.scanNode(id, e.enum.Decode(id, nil), nil, q, fn)
}

// scanFilter is a per-query selection threaded through scanNode: the
// tuple predicates, the same predicates lowered to zone-map slots (nil
// disables block pruning), and the CURE_DR dimension→position map for
// evaluating inline codes.
type scanFilter struct {
	preds []Predicate
	zp    []storage.ZonePred
	drPos []int
}

// scanNode streams the tuples of node id through the optional filter,
// attributing every read, cache access, and pruning verdict to q. All
// scratch state is per-call, so concurrent scans never share mutable
// memory.
func (e *Engine) scanNode(id lattice.NodeID, levels []int, f *scanFilter, q *qctx, fn func(Row) error) error {
	hier := e.r.Hier()
	activeDims := make([]int, 0, len(levels))
	for d, l := range levels {
		if !hier.Dims[d].IsAll(l) {
			activeDims = append(activeDims, d)
		}
	}
	row := Row{
		Dims:  make([]int32, len(activeDims)),
		Aggrs: make([]float64, e.r.Manifest().NumAggrs()),
	}
	baseDims := make([]int32, hier.NumDims())
	baseMeas := make([]float64, e.fact.Schema().NumMeasures())
	rawBuf := make([]byte, e.fact.RowWidth())
	specs := e.r.Manifest().AggSpecs

	project := func(rrowid int64) error {
		if err := e.cache.readRow(rrowid, rawBuf, q); err != nil {
			return err
		}
		e.fact.DecodeRow(rawBuf, baseDims, baseMeas)
		for i, d := range activeDims {
			row.Dims[i] = hier.Dims[d].MapCode(baseDims[d], levels[d])
		}
		return nil
	}
	// match evaluates the filter on the current row: CURE_DR tuples on
	// the inline codes already in row.Dims, everything else on the
	// projected base row — the exact semantics zone maps are built with,
	// which is what makes block pruning lossless.
	match := func() bool {
		if f == nil {
			return true
		}
		if f.drPos != nil {
			for _, p := range f.preds {
				if !p.Match(row.Dims[f.drPos[p.Dim]]) {
					return false
				}
			}
			return true
		}
		for _, p := range f.preds {
			if !p.Match(hier.Dims[p.Dim].MapCode(baseDims[p.Dim], p.Level)) {
				return false
			}
		}
		return true
	}
	// prune lowers the filter onto one extent's zone map; a nil result
	// means scan everything (no filter, no map, or indexing disabled).
	// Verdicts tally into q and settle into the registry at query end.
	prune := func(z *storage.ZoneIndex, rows int64) []storage.RowRange {
		if f == nil || len(f.zp) == 0 || z == nil || e.noIndex {
			return nil
		}
		ranges, st := storage.PruneZonesStats(z, rows, f.zp)
		q.zoneKept += int64(st.Kept)
		q.zoneSkipped += int64(st.Skipped)
		return ranges
	}

	// 1. Trivial tuples: stored once at the least detailed node they
	// belong to; collect them along the plan path (bounded to the
	// partition subtree when the cube was built partitioned). Each
	// ancestor extent prunes against its own zone map.
	for _, anc := range e.planPath(id, levels) {
		q.active.SetExtent(obsv.ExtentTT, int64(anc))
		ids, err := e.r.TTRowIDsIO(anc, nil, &q.io)
		if err != nil {
			return err
		}
		ttRanges := []storage.RowRange{{Lo: 0, Hi: int64(len(ids))}}
		if nm, ok := e.r.Manifest().NodeMeta(anc); ok {
			if pr := prune(nm.TTZones, int64(len(ids))); pr != nil {
				ttRanges = pr
			}
		}
		for _, rg := range ttRanges {
			for _, rrowid := range ids[rg.Lo:rg.Hi] {
				q.ttScanned++
				if err := project(rrowid); err != nil {
					return err
				}
				if !match() {
					continue
				}
				// A trivial tuple's aggregates are the projections of its
				// single source tuple.
				for i, s := range specs {
					if s.Func == relation.AggCount {
						row.Aggrs[i] = 1
					} else {
						row.Aggrs[i] = baseMeas[s.Measure]
					}
				}
				row.RRowid = rrowid
				if err := fn(row); err != nil {
					return err
				}
			}
		}
	}

	nm, _ := e.r.Manifest().NodeMeta(id)

	// 2. Normal tuples.
	q.active.SetExtent(obsv.ExtentNT, int64(id))
	if err := e.r.NTRowsRanges(id, prune(nm.NTZones, nm.NTRows), &q.io, func(nt storage.NTRow) error {
		q.ntScanned++
		if e.r.Manifest().DimsInline {
			copy(row.Dims, nt.Dims)
		} else if err := project(nt.RRowid); err != nil {
			return err
		}
		if !match() {
			return nil
		}
		copy(row.Aggrs, nt.Aggrs)
		row.RRowid = nt.RRowid // -1 under CURE_DR
		return fn(row)
	}); err != nil {
		return err
	}

	// 3. Common aggregate tuples: aggregates via AGGREGATES, dimensions
	// via the source row-id (carried by the CAT row under format (b), by
	// the AGGREGATES tuple under format (a)).
	q.active.SetExtent(obsv.ExtentCAT, int64(id))
	return e.r.CATRowsRanges(id, prune(nm.CATZones, nm.CATRows), &q.io, func(cat storage.CATRow) error {
		q.catScanned++
		aggRowid, err := e.readAggregate(cat.ARowid, row.Aggrs, &q.io)
		if err != nil {
			return err
		}
		rrowid := cat.RRowid
		if rrowid < 0 {
			rrowid = aggRowid
		}
		if err := project(rrowid); err != nil {
			return err
		}
		if !match() {
			return nil
		}
		row.RRowid = rrowid
		return fn(row)
	})
}

// readAggregate fetches AGGREGATES tuple arowid through the pin if
// present; unpinned reads are attributed to io.
func (e *Engine) readAggregate(arowid int64, aggrs []float64, io *storage.IOStats) (int64, error) {
	if e.aggRaw != nil {
		return e.r.DecodeAggregate(e.aggRaw, arowid, aggrs), nil
	}
	return e.r.ReadAggregateIO(arowid, aggrs, io)
}

// planPath returns the plan nodes whose TT relations contribute to node
// id, respecting the partition boundary of partitioned builds and the
// plan style the cube was built with.
func (e *Engine) planPath(id lattice.NodeID, levels []int) []lattice.NodeID {
	if e.r.Manifest().ShortPlan {
		return e.enum.PlanPathShort(id)
	}
	L := e.r.Manifest().PartitionLevel
	M := e.r.Manifest().PartitionLevelB
	if M >= 0 && levels[0] <= L {
		// Pair-partitioned build: nodes with both partitioned dimensions
		// at fine levels root at {A_l0, B_M}; nodes with dimension 1
		// coarser root at {A_l0} (the N2 phase).
		hier := e.r.Hier()
		rootLevels := make([]int, hier.NumDims())
		rootLevels[0] = levels[0]
		for d := 1; d < len(rootLevels); d++ {
			rootLevels[d] = hier.Dims[d].AllLevel()
		}
		if levels[1] <= M {
			rootLevels[1] = M
		}
		return e.enum.PlanPathFromNode(id, e.enum.Encode(rootLevels))
	}
	if L >= 0 && levels[0] <= L {
		return e.enum.PlanPathFrom(id, L)
	}
	return e.enum.PlanPath(id)
}

// NodeCount returns the number of result tuples of a node query without
// materializing dimension values (TTs still require plan-path metadata
// but no fact access).
func (e *Engine) NodeCount(id lattice.NodeID) (int64, error) {
	levels := e.enum.Decode(id, nil)
	var n int64
	for _, anc := range e.planPath(id, levels) {
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

// IcebergQuery streams the tuples of node id whose count aggregate
// exceeds minCount. countAgg is the index of a COUNT aggregate in the
// cube's specs. Trivial tuples are skipped wholesale (their count is
// always 1) — the property that makes iceberg queries on CURE cubes
// orders of magnitude cheaper than on formats that materialize TTs.
func (e *Engine) IcebergQuery(id lattice.NodeID, countAgg int, minCount float64, fn func(Row) error) error {
	q := e.beginQuery("iceberg", id, fmt.Sprintf("count>%v", minCount))
	defer obsv.CapturePanic(e.reg, e.panicCtx(q, "iceberg", id))
	cfn := func(r Row) error { q.rows++; return fn(r) }
	if e.reg == nil {
		return e.endQuery(q, e.icebergQuery(id, countAgg, minCount, q, cfn))
	}
	sp := e.reg.StartSpan("query.iceberg")
	defer sp.End()
	start := time.Now()
	err := e.icebergQuery(id, countAgg, minCount, q, cfn)
	sp.AddRowsOut(q.rows)
	e.reg.Counter("query.iceberg.count").Inc()
	us := time.Since(start).Microseconds()
	e.reg.Histogram("query.iceberg.latency_us").Observe(us)
	e.hQuery.Observe(us)
	return e.endQuery(q, err)
}

func (e *Engine) icebergQuery(id lattice.NodeID, countAgg int, minCount float64, q *qctx, fn func(Row) error) error {
	specs := e.r.Manifest().AggSpecs
	if countAgg < 0 || countAgg >= len(specs) || specs[countAgg].Func != relation.AggCount {
		return fmt.Errorf("query: aggregate %d is not a COUNT", countAgg)
	}
	if minCount < 1 {
		return fmt.Errorf("query: iceberg threshold %v below 1 matches everything", minCount)
	}
	levels := e.enum.Decode(id, nil)
	hier := e.r.Hier()
	activeDims := make([]int, 0, len(levels))
	for d, l := range levels {
		if !hier.Dims[d].IsAll(l) {
			activeDims = append(activeDims, d)
		}
	}
	row := Row{Dims: make([]int32, len(activeDims)), Aggrs: make([]float64, len(specs))}
	baseDims := make([]int32, hier.NumDims())
	baseMeas := make([]float64, e.fact.Schema().NumMeasures())
	rawBuf := make([]byte, e.fact.RowWidth())
	project := func(rrowid int64) error {
		if err := e.cache.readRow(rrowid, rawBuf, q); err != nil {
			return err
		}
		e.fact.DecodeRow(rawBuf, baseDims, baseMeas)
		for i, d := range activeDims {
			row.Dims[i] = hier.Dims[d].MapCode(baseDims[d], levels[d])
		}
		return nil
	}
	q.active.SetExtent(obsv.ExtentNT, int64(id))
	if err := e.r.NTRowsRanges(id, nil, &q.io, func(nt storage.NTRow) error {
		q.ntScanned++
		if nt.Aggrs[countAgg] <= minCount {
			return nil
		}
		if e.r.Manifest().DimsInline {
			copy(row.Dims, nt.Dims)
		} else if err := project(nt.RRowid); err != nil {
			return err
		}
		copy(row.Aggrs, nt.Aggrs)
		return fn(row)
	}); err != nil {
		return err
	}
	q.active.SetExtent(obsv.ExtentCAT, int64(id))
	return e.r.CATRowsRanges(id, nil, &q.io, func(cat storage.CATRow) error {
		q.catScanned++
		aggRowid, err := e.readAggregate(cat.ARowid, row.Aggrs, &q.io)
		if err != nil {
			return err
		}
		if row.Aggrs[countAgg] <= minCount {
			return nil
		}
		rrowid := cat.RRowid
		if rrowid < 0 {
			rrowid = aggRowid
		}
		if err := project(rrowid); err != nil {
			return err
		}
		return fn(row)
	})
}

// RollUp returns the node id with dimension dim one hierarchy level
// coarser (towards ALL), and false when dim is already at ALL.
func (e *Engine) RollUp(id lattice.NodeID, dim int) (lattice.NodeID, bool) {
	levels := e.enum.Decode(id, nil)
	d := e.r.Hier().Dims[dim]
	if d.IsAll(levels[dim]) {
		return id, false
	}
	levels[dim]++
	return e.enum.Encode(levels), true
}

// DrillDown returns the node id with dimension dim one level finer along
// the dashed-edge tree, and false when dim is already at a base level.
func (e *Engine) DrillDown(id lattice.NodeID, dim int) (lattice.NodeID, bool) {
	levels := e.enum.Decode(id, nil)
	d := e.r.Hier().Dims[dim]
	children := d.DashChildren(levels[dim])
	if len(children) == 0 {
		return id, false
	}
	levels[dim] = children[0]
	return e.enum.Encode(levels), true
}

// Format reports the cube's CAT storage format.
func (e *Engine) Format() signature.Format { return e.r.Manifest().CatFormat }
