// Package obsv is the build/query instrumentation layer: lightweight,
// allocation-conscious counters, gauges, and histograms, hierarchical
// phase spans (wall time plus rows/bytes moved), and a JSONL trace sink
// that records the execution-plan traversal of a build.
//
// Everything is nil-safe by design: a nil *Registry hands out nil
// instruments, and every method on a nil instrument is a no-op. Code
// under measurement therefore threads a single optional *Registry through
// and calls instruments unconditionally — the disabled path costs one
// nil check per call and allocates nothing, which keeps un-instrumented
// builds at their previous speed (verified by BenchmarkBuildMetricsNil
// in internal/core).
//
// Instruments are identified by dotted names ("partition.bytes_read",
// "query.cache.hits"); the first lookup interns the instrument and later
// lookups return the same pointer, so hot paths resolve their counters
// once up front and hold them.
package obsv

import (
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The nil Counter is a
// valid no-op.
type Counter struct {
	name string
	v    atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for the nil Counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value metric. The nil Gauge is a valid no-op.
type Gauge struct {
	name string
	v    atomic.Int64
}

// Set records the gauge's current value.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Value returns the last value set (0 for the nil Gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the number of power-of-two histogram buckets: bucket i
// counts observations v with bits.Len64(v) == i, i.e. bucket upper bounds
// 0, 1, 3, 7, …, 2^63-1.
const histBuckets = 65

// Histogram is a power-of-two bucketed histogram of non-negative int64
// observations (negative values clamp to bucket 0). Observe is
// allocation-free and safe for concurrent use. The nil Histogram is a
// valid no-op.
type Histogram struct {
	name    string
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			break
		}
	}
	h.buckets[bits.Len64(uint64(v))].Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Quantile returns an upper bound on the q-quantile: the upper bound of
// the first bucket whose cumulative count reaches q·total. Edge behavior
// is specified: an empty histogram returns 0 regardless of q, and q is
// clamped to [0, 1] (q ≤ 0 locates the first non-empty bucket, q ≥ 1 the
// last). Bucket bounds round-trip exactly at 0, 1, and the int64 maximum:
// each lands in the bucket whose upper bound it is.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	switch {
	case q < 0 || q != q: // NaN clamps low
		q = 0
	case q > 1:
		q = 1
	}
	target := int64(q * float64(total))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i := 0; i < histBuckets; i++ {
		cum += h.buckets[i].Load()
		if cum >= target {
			return bucketUpper(i)
		}
	}
	return h.max.Load()
}

// bucketUpper is the largest value landing in bucket i (2^i - 1).
func bucketUpper(i int) int64 {
	if i >= 63 {
		return 1<<63 - 1
	}
	return 1<<uint(i) - 1
}

// Registry is the root of all instruments of one build or query session.
// A nil *Registry is valid: it hands out nil instruments and nil spans,
// making the whole instrumentation surface a no-op.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	spans    []*Span // completed or running root spans, in start order
	trace    atomic.Pointer[TraceWriter]
	flight   atomic.Pointer[FlightRecorder]
	current  atomic.Pointer[Span] // most recently started un-ended span
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter interns and returns the named counter (nil when r is nil).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{name: name}
		r.counters[name] = c
	}
	return c
}

// Gauge interns and returns the named gauge (nil when r is nil).
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{name: name}
		r.gauges[name] = g
	}
	return g
}

// Histogram interns and returns the named histogram (nil when r is nil).
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{name: name}
		r.hists[name] = h
	}
	return h
}

// SetTrace attaches (or detaches, with nil) the JSONL trace sink.
func (r *Registry) SetTrace(t *TraceWriter) {
	if r != nil {
		r.trace.Store(t)
	}
}

// Trace returns the attached trace sink, nil when absent or r is nil.
// Hot paths fetch it once and keep the pointer.
func (r *Registry) Trace() *TraceWriter {
	if r == nil {
		return nil
	}
	return r.trace.Load()
}

// HistogramSnapshot is the exported state of one histogram.
type HistogramSnapshot struct {
	Name  string  `json:"name"`
	Count int64   `json:"count"`
	Sum   int64   `json:"sum"`
	Mean  float64 `json:"mean"`
	P50   int64   `json:"p50"`
	P90   int64   `json:"p90"`
	P99   int64   `json:"p99"`
	Max   int64   `json:"max"`
}

// Snapshot is a point-in-time export of a registry, JSON-serializable.
type Snapshot struct {
	Counters   map[string]int64    `json:"counters,omitempty"`
	Gauges     map[string]int64    `json:"gauges,omitempty"`
	Histograms []HistogramSnapshot `json:"histograms,omitempty"`
	Spans      []SpanSnapshot      `json:"spans,omitempty"`
}

// Snapshot exports the registry's current state (empty when r is nil).
// It is safe to call mid-build, concurrently with running instruments
// and open spans — the /metrics and /progress endpoints do exactly that.
// Spans still running snapshot with Running=true, a zero EndTime, and
// their elapsed time so far; counters, gauges, and histograms read their
// atomics without stopping writers, so a snapshot is per-instrument
// consistent rather than a global atomic cut.
func (r *Registry) Snapshot() *Snapshot {
	s := r.scalars()
	if r == nil {
		return s
	}
	r.mu.Lock()
	spans := append([]*Span{}, r.spans...)
	r.mu.Unlock()
	for _, sp := range spans {
		s.Spans = append(s.Spans, sp.snapshot())
	}
	return s
}

// scalars is Snapshot without the span trees: what the history records
// every tick.
func (r *Registry) scalars() *Snapshot {
	s := &Snapshot{Counters: map[string]int64{}, Gauges: map[string]int64{}}
	if r == nil {
		return s
	}
	r.mu.Lock()
	counters := make([]*Counter, 0, len(r.counters))
	for _, c := range r.counters {
		counters = append(counters, c)
	}
	gauges := make([]*Gauge, 0, len(r.gauges))
	for _, g := range r.gauges {
		gauges = append(gauges, g)
	}
	hists := make([]*Histogram, 0, len(r.hists))
	for _, h := range r.hists {
		hists = append(hists, h)
	}
	r.mu.Unlock()

	for _, c := range counters {
		s.Counters[c.name] = c.Value()
	}
	for _, g := range gauges {
		s.Gauges[g.name] = g.Value()
	}
	sort.Slice(hists, func(i, j int) bool { return hists[i].name < hists[j].name })
	for _, h := range hists {
		hs := HistogramSnapshot{
			Name:  h.name,
			Count: h.Count(),
			Sum:   h.Sum(),
			P50:   h.Quantile(0.50),
			P90:   h.Quantile(0.90),
			P99:   h.Quantile(0.99),
			Max:   h.max.Load(),
		}
		if hs.Count > 0 {
			hs.Mean = float64(hs.Sum) / float64(hs.Count)
		}
		s.Histograms = append(s.Histograms, hs)
	}
	return s
}

// WriteJSON writes the registry snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(r.Snapshot())
}

// CurrentPath returns the slash-joined path of the most recently started
// un-ended span ("" when idle or r is nil). The history tags each point
// with it so heap growth is attributable to a phase.
func (r *Registry) CurrentPath() string {
	if r == nil {
		return ""
	}
	return r.current.Load().Path()
}

// ProgressLine renders a one-line status for periodic progress output:
// the path of the deepest running span plus the largest counters.
func (r *Registry) ProgressLine() string {
	if r == nil {
		return ""
	}
	var b []byte
	if cur := r.current.Load(); cur != nil {
		b = append(b, "phase="...)
		b = append(b, cur.Path()...)
	}
	type kv struct {
		name string
		v    int64
	}
	r.mu.Lock()
	vals := make([]kv, 0, len(r.counters))
	for name, c := range r.counters {
		if v := c.Value(); v > 0 {
			vals = append(vals, kv{name, v})
		}
	}
	r.mu.Unlock()
	sort.Slice(vals, func(i, j int) bool {
		if vals[i].v != vals[j].v {
			return vals[i].v > vals[j].v
		}
		return vals[i].name < vals[j].name
	})
	if len(vals) > 6 {
		vals = vals[:6]
	}
	for _, e := range vals {
		if len(b) > 0 {
			b = append(b, ' ')
		}
		b = append(b, fmt.Sprintf("%s=%d", e.name, e.v)...)
	}
	return string(b)
}
