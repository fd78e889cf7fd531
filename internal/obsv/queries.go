package obsv

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Per-query observability: a QueryTracker follows every query a serving
// engine runs from start to completion. It keeps an in-flight table
// (what is running right now, how long, and which extent it is
// scanning), a ring of the most recent completed query records, and an
// optional slow-query JSONL sink. The telemetry server's /queries
// endpoint renders the tracker live; the query.inflight gauge and
// query.completed / query.slow counters come from it.
//
// Like the rest of the package, everything is nil-safe: a nil tracker
// hands out nil ActiveQueries and every method is a no-op, so the query
// engine threads one optional pointer and calls unconditionally.

// ExtentKind identifies which extent class a query is currently
// scanning; the in-flight table publishes it so a stuck query is
// attributable to a relation.
type ExtentKind int32

// Extent classes in scan order.
const (
	ExtentNone ExtentKind = iota
	ExtentTT
	ExtentNT
	ExtentCAT
)

// String returns the extent's short name ("" for ExtentNone).
func (k ExtentKind) String() string {
	switch k {
	case ExtentTT:
		return "tt"
	case ExtentNT:
		return "nt"
	case ExtentCAT:
		return "cat"
	}
	return ""
}

// QueryIO is the per-query I/O and scan accounting attached to every
// completed query record: how much the query actually read, how the
// fact store treated it, and what zone-map pruning saved.
type QueryIO struct {
	// BytesRead counts bytes fetched from disk for this query: extent
	// reads, AGGREGATES lookups, and fact-page faults.
	BytesRead int64 `json:"bytes_read"`
	// Reads counts the ReadAt calls behind BytesRead.
	Reads int64 `json:"reads,omitempty"`
	// BytesDecoded counts raw-equivalent bytes materialized from extent
	// blocks (0 for blocks served from the decoded-block cache).
	BytesDecoded int64 `json:"bytes_decoded,omitempty"`
	// CacheHits and PagesFaulted are the fact pages the query found
	// resident and had to read, counted per distinct page per batch of
	// row-ids it dereferenced (a decoded block, a chunk of a TT list).
	CacheHits    int64 `json:"cache_hits,omitempty"`
	PagesFaulted int64 `json:"pages_faulted,omitempty"`
	// TTScanned / NTScanned / CATScanned are rows visited per extent
	// class (post zone-map pruning).
	TTScanned  int64 `json:"tt_scanned,omitempty"`
	NTScanned  int64 `json:"nt_scanned,omitempty"`
	CATScanned int64 `json:"cat_scanned,omitempty"`
	// ZoneBlocksKept / ZoneBlocksSkipped are the zone-map pruning
	// verdicts across every extent the query consulted.
	ZoneBlocksKept    int64 `json:"zone_blocks_kept,omitempty"`
	ZoneBlocksSkipped int64 `json:"zone_blocks_skipped,omitempty"`
}

// QueryRecord is one completed query: identity, timing, result volume,
// I/O attribution, and (for explained queries) the structured plan. It
// is the slow-query JSONL event ("ev":"query") and the element of the
// /queries recent ring.
type QueryRecord struct {
	Ev        string    `json:"ev"` // "query"
	ID        int64     `json:"id"`
	Op        string    `json:"op"`
	Node      int64     `json:"node"`
	NodeName  string    `json:"node_name,omitempty"`
	Where     string    `json:"where,omitempty"`
	StartTime time.Time `json:"start_time"`
	ElapsedUs int64     `json:"elapsed_us"`
	Rows      int64     `json:"rows"`
	Err       string    `json:"err,omitempty"`
	IO        QueryIO   `json:"io"`
	Plan      any       `json:"plan,omitempty"`
}

// InflightQuery is the JSON view of one running query.
type InflightQuery struct {
	ID         int64  `json:"id"`
	Op         string `json:"op"`
	Node       int64  `json:"node"`
	NodeName   string `json:"node_name,omitempty"`
	Where      string `json:"where,omitempty"`
	ElapsedUs  int64  `json:"elapsed_us"`
	Extent     string `json:"extent,omitempty"`
	ExtentNode int64  `json:"extent_node,omitempty"`
}

// ActiveQuery is the tracker's handle for one running query. The scan
// publishes its current extent through atomics, so the /queries handler
// reads a consistent position without touching the scan's hot path.
type ActiveQuery struct {
	id       int64
	op       string
	node     int64
	nodeName string
	where    string
	start    time.Time
	extKind  atomic.Int32
	extNode  atomic.Int64
}

// ID returns the tracker-assigned query id (0 for nil).
func (q *ActiveQuery) ID() int64 {
	if q == nil {
		return 0
	}
	return q.id
}

// SetExtent publishes the extent the query is scanning right now.
func (q *ActiveQuery) SetExtent(kind ExtentKind, node int64) {
	if q == nil {
		return
	}
	q.extKind.Store(int32(kind))
	q.extNode.Store(node)
}

// DefaultQueryRing is the default number of completed query records a
// tracker retains.
const DefaultQueryRing = 256

// QueryTracker is the per-query observability hub of one query engine.
// Safe for concurrent use; Begin/End cost one mutex acquisition each,
// so tracking stays cheap under concurrent serving.
type QueryTracker struct {
	nextID atomic.Int64

	gInflight  *Gauge
	cCompleted *Counter
	cSlow      *Counter

	mu         sync.Mutex
	inflight   map[int64]*ActiveQuery
	ring       []QueryRecord
	ringCap    int
	pos        int // next overwrite position once the ring is full
	slow       *TraceWriter
	slowThresh time.Duration
}

// NewQueryTracker creates a tracker registering its gauge and counters
// on reg (nil reg keeps them inert). ringCap <= 0 uses DefaultQueryRing.
func NewQueryTracker(reg *Registry, ringCap int) *QueryTracker {
	if ringCap <= 0 {
		ringCap = DefaultQueryRing
	}
	return &QueryTracker{
		gInflight:  reg.Gauge("query.inflight"),
		cCompleted: reg.Counter("query.completed"),
		cSlow:      reg.Counter("query.slow"),
		inflight:   map[int64]*ActiveQuery{},
		ring:       make([]QueryRecord, 0, ringCap),
		ringCap:    ringCap,
	}
}

// SetSlowLog attaches the slow-query JSONL sink: every completed query
// with elapsed time >= threshold emits its full record (threshold 0
// logs every query; nil w detaches).
func (t *QueryTracker) SetSlowLog(w *TraceWriter, threshold time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.slow = w
	t.slowThresh = threshold
}

// Begin registers a query as in-flight and returns its handle. The
// tracker assigns the monotonically increasing query id.
func (t *QueryTracker) Begin(op string, node int64, nodeName, where string) *ActiveQuery {
	if t == nil {
		return nil
	}
	q := &ActiveQuery{
		id:       t.nextID.Add(1),
		op:       op,
		node:     node,
		nodeName: nodeName,
		where:    where,
		start:    time.Now(),
	}
	t.mu.Lock()
	t.inflight[q.id] = q
	n := len(t.inflight)
	t.mu.Unlock()
	t.gInflight.Set(int64(n))
	return q
}

// End completes a query: it leaves the in-flight table, lands in the
// recent ring, and — when slow enough and a sink is attached — in the
// slow-query log. The finished record is returned so callers can embed
// or render it. Nil tracker or handle is a no-op.
func (t *QueryTracker) End(q *ActiveQuery, rows int64, qerr error, io QueryIO, plan any) QueryRecord {
	if t == nil || q == nil {
		return QueryRecord{}
	}
	elapsed := time.Since(q.start)
	rec := QueryRecord{
		Ev:        "query",
		ID:        q.id,
		Op:        q.op,
		Node:      q.node,
		NodeName:  q.nodeName,
		Where:     q.where,
		StartTime: q.start,
		ElapsedUs: elapsed.Microseconds(),
		Rows:      rows,
		IO:        io,
		Plan:      plan,
	}
	if qerr != nil {
		rec.Err = qerr.Error()
	}
	t.mu.Lock()
	delete(t.inflight, q.id)
	n := len(t.inflight)
	if len(t.ring) < t.ringCap {
		t.ring = append(t.ring, rec)
	} else {
		t.ring[t.pos] = rec
		t.pos = (t.pos + 1) % t.ringCap
	}
	slow := t.slow
	isSlow := slow != nil && elapsed >= t.slowThresh
	t.mu.Unlock()
	t.gInflight.Set(int64(n))
	t.cCompleted.Inc()
	if isSlow {
		t.cSlow.Inc()
		slow.Emit(rec)
		// Slow records are rare and wanted immediately (tail -f, or a
		// process killed mid-serve): flush per record, not on close.
		slow.Flush()
	}
	return rec
}

// Inflight snapshots the running queries, ordered by id (empty for nil).
func (t *QueryTracker) Inflight() []InflightQuery {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	qs := make([]*ActiveQuery, 0, len(t.inflight))
	for _, q := range t.inflight {
		qs = append(qs, q)
	}
	t.mu.Unlock()
	sort.Slice(qs, func(i, j int) bool { return qs[i].id < qs[j].id })
	out := make([]InflightQuery, len(qs))
	for i, q := range qs {
		out[i] = InflightQuery{
			ID:         q.id,
			Op:         q.op,
			Node:       q.node,
			NodeName:   q.nodeName,
			Where:      q.where,
			ElapsedUs:  time.Since(q.start).Microseconds(),
			Extent:     ExtentKind(q.extKind.Load()).String(),
			ExtentNode: q.extNode.Load(),
		}
	}
	return out
}

// Recent returns the retained completed records, oldest first (empty
// for nil).
func (t *QueryTracker) Recent() []QueryRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]QueryRecord, 0, len(t.ring))
	if len(t.ring) == t.ringCap {
		out = append(out, t.ring[t.pos:]...)
		out = append(out, t.ring[:t.pos]...)
	} else {
		out = append(out, t.ring...)
	}
	return out
}
