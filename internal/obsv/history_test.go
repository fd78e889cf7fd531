package obsv

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestHistoryRingWraparound drives the ring past capacity: the newest
// historyCap points survive, oldest first, and the document's deltas
// span exactly the retained window.
func TestHistoryRingWraparound(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test.ticks")
	h := newHistory(r)
	for i := 0; i < historyCap+10; i++ {
		c.Add(1)
		h.Record()
	}
	series := h.Series()
	if len(series) != historyCap {
		t.Fatalf("Series holds %d points, want %d", len(series), historyCap)
	}
	for i, pt := range series {
		if want := int64(i + 11); pt.Counters["test.ticks"] != want {
			t.Fatalf("point %d ticks = %d, want %d", i, pt.Counters["test.ticks"], want)
		}
		if i > 0 && pt.Time.Before(series[i-1].Time) {
			t.Fatalf("Series out of order at %d", i)
		}
	}
	if d := h.Doc().Deltas["test.ticks"]; d != historyCap-1 {
		t.Fatalf("delta over the ring = %d, want %d", d, historyCap-1)
	}
}

// TestHistoryDeltasMatchCounters is the contract the doctor's rate
// table rests on: deltas over the window equal the counter increments
// between the window's endpoints, and histograms project into
// count/sum counters and quantile gauges.
func TestHistoryDeltasMatchCounters(t *testing.T) {
	r := NewRegistry()
	r.Counter("storage.read.bytes").Add(100)
	r.Gauge("pool.occupancy").Set(42)
	r.Histogram("query.latency_us").Observe(1000)
	h := newHistory(r)
	h.Record()
	time.Sleep(5 * time.Millisecond)
	r.Counter("storage.read.bytes").Add(250)
	r.Histogram("query.latency_us").Observe(3000)
	h.Record()

	doc := h.Doc()
	if doc.IntervalSec != historyInterval.Seconds() {
		t.Fatalf("IntervalSec = %v", doc.IntervalSec)
	}
	if doc.WindowSec <= 0 {
		t.Fatalf("WindowSec = %v", doc.WindowSec)
	}
	if d := doc.Deltas["storage.read.bytes"]; d != 250 {
		t.Fatalf("delta storage.read.bytes = %d, want 250", d)
	}
	if d := doc.Deltas["query.latency_us.count"]; d != 1 {
		t.Fatalf("delta query.latency_us.count = %d, want 1", d)
	}
	if rate := doc.RatesPerSec["storage.read.bytes"]; rate <= 0 {
		t.Fatalf("rate storage.read.bytes = %v", rate)
	}
	last := doc.Points[len(doc.Points)-1]
	if last.Gauges["pool.occupancy"] != 42 {
		t.Fatalf("gauge missing from point: %+v", last.Gauges)
	}
	if last.Gauges["query.latency_us.p50"] == 0 {
		t.Fatalf("histogram quantile missing from point: %+v", last.Gauges)
	}
	// Quantiles are gauges, never counters: they must not appear in
	// deltas.
	if _, ok := doc.Deltas["query.latency_us.p50"]; ok {
		t.Fatal("histogram quantile leaked into Deltas")
	}
}

func TestHistoryStartStopAndNil(t *testing.T) {
	var nilH *History
	nilH.Record()
	nilH.Stop()
	if nilH.Series() != nil || nilH.Doc() != nil {
		t.Fatal("nil history not inert")
	}
	if StartHistory(nil) != nil {
		t.Fatal("history on nil registry should be nil")
	}

	h := StartHistory(NewRegistry())
	before := len(h.Series())
	if before < 1 {
		t.Fatal("no immediate first point")
	}
	h.Stop()
	if len(h.Series()) <= before {
		t.Fatalf("Stop did not record a final point: %d then %d", before, len(h.Series()))
	}
	h.Stop() // idempotent
}

// traceEvents decodes a JSONL trace buffer into its events.
func traceEvents(t *testing.T, buf *bytes.Buffer) []MemBudgetEvent {
	t.Helper()
	var evs []MemBudgetEvent
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var ev MemBudgetEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("trace line not JSON: %v", err)
		}
		evs = append(evs, ev)
	}
	return evs
}

// TestHistorySamplesAndTagsSpans: every tick mirrors runtime.MemStats
// into the runtime.* gauges, tags its point with the running span path,
// and emits a mem_sample trace event.
func TestHistorySamplesAndTagsSpans(t *testing.T) {
	var buf bytes.Buffer
	r := NewRegistry()
	r.SetTrace(NewTraceWriter(&buf))
	sp := r.StartSpan("build")
	child := sp.Child("partition.cube")
	h := newHistory(r)
	for i := 0; i < 3; i++ {
		h.Record()
	}
	child.End()
	sp.End()
	if err := r.Trace().Flush(); err != nil {
		t.Fatal(err)
	}

	series := h.Series()
	if len(series) != 3 {
		t.Fatalf("series = %d points, want 3", len(series))
	}
	for i, pt := range series {
		if pt.Gauges["runtime.heap_inuse_bytes"] == 0 || pt.Gauges["runtime.goroutines"] == 0 {
			t.Fatalf("point %d has zero runtime stats: %+v", i, pt.Gauges)
		}
		if pt.Span != "build/partition.cube" {
			t.Fatalf("point %d span = %q", i, pt.Span)
		}
		if i > 0 && pt.Time.Before(series[i-1].Time) {
			t.Fatalf("series out of order at %d", i)
		}
	}
	if r.Gauge("runtime.heap_inuse_bytes").Value() == 0 {
		t.Fatal("history did not mirror gauges")
	}
	var memSamples int
	for _, ev := range traceEvents(t, &buf) {
		if ev.Ev == "mem_sample" {
			memSamples++
		}
	}
	if memSamples != 3 {
		t.Fatalf("trace has %d mem_sample events, want 3", memSamples)
	}
}

// TestHistoryBudgetCrossing: a 1-byte budget guarantees heap-in-use is
// above it, so the first tick records the crossing — and only the first
// (edge-triggered).
func TestHistoryBudgetCrossing(t *testing.T) {
	var buf bytes.Buffer
	r := NewRegistry()
	r.SetTrace(NewTraceWriter(&buf))
	r.Gauge(BudgetGaugeName).Set(1)
	h := newHistory(r)
	for i := 0; i < 4; i++ {
		h.Record()
	}
	if err := r.Trace().Flush(); err != nil {
		t.Fatal(err)
	}
	var crossings int
	for _, ev := range traceEvents(t, &buf) {
		if ev.Ev != "mem_budget" {
			continue
		}
		crossings++
		if ev.Dir != "above" || ev.Budget != 1 || ev.HeapInuse <= 1 {
			t.Fatalf("mem_budget event = %+v", ev)
		}
	}
	if crossings != 1 {
		t.Fatalf("crossings = %d, want exactly 1 (edge-triggered)", crossings)
	}
	if r.Counter("runtime.mem_budget_exceeded").Value() != 1 {
		t.Fatal("mem_budget_exceeded counter not bumped")
	}
}

// TestHistoryRecordIgnoresSpans: a tick records scalars only, so a
// registry retaining the maximum number of span trees costs what an
// empty one does.
func TestHistoryRecordIgnoresSpans(t *testing.T) {
	allocs := func(r *Registry) float64 {
		h := newHistory(r)
		return testing.AllocsPerRun(20, h.Record)
	}
	empty := allocs(NewRegistry())
	r := NewRegistry()
	for i := 0; i < maxRetainedRootSpans; i++ {
		sp := r.StartSpan("query.node")
		sp.Child("scan").End()
		sp.End()
	}
	if full := allocs(r); full > 2*empty {
		t.Fatalf("Record allocates %.0f times with %d retained roots, %.0f with none", full, maxRetainedRootSpans, empty)
	}
}
