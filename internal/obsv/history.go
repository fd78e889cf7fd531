package obsv

import (
	"fmt"
	"runtime"
	"sync"
	"time"
)

// The history is the observability plane's one sampling clock. Every
// tick it reads runtime.MemStats into the runtime.* gauges, checks
// heap-in-use against the build's declared memory budget (§4), emits a
// mem_sample trace event, and records one point of the registry's
// scalar state — every counter, gauge and histogram summary plus the
// running span path — into a fixed ring. So "what was the system doing
// in the minutes before it fell over" has an answer after the fact: the
// /metrics/history endpoint and the history.json bundle member render
// the ring, and `curectl doctor` reads its memory trajectory and counter
// movement from it. Span trees are never copied; a point is scalars
// only, so a tick costs the same whether the registry retains no spans
// or thousands.

// BudgetGaugeName is the gauge the partitioned build path sets to its
// declared memory budget (core.Options.MemoryBudget); the history reads
// it every tick to decide whether heap-in-use violates §4's budget rule.
const BudgetGaugeName = "build.mem_budget_bytes"

const (
	// historyInterval is the tick. A quarter second resolves the heap
	// peak of a build phase that lasts a second or less, which a budget
	// check on a 1 s clock would miss.
	historyInterval = 250 * time.Millisecond
	// historyCap is the ring size: 150 s of history at the interval.
	historyCap = 600
)

// HistoryPoint is one snapshot of the registry's scalar state. Counters
// hold counter values plus per-histogram <name>.count / <name>.sum;
// Gauges hold gauge values (the runtime.* readings of the tick among
// them) plus per-histogram <name>.p50 / .p90 / .p99. The split matters
// downstream: deltas and rates are only meaningful over the Counters
// map. Span is the span path running at the tick.
type HistoryPoint struct {
	Time     time.Time        `json:"time"`
	Span     string           `json:"span,omitempty"`
	Counters map[string]int64 `json:"counters,omitempty"`
	Gauges   map[string]int64 `json:"gauges,omitempty"`
}

// History samples a registry on one ticker into a fixed ring. The nil
// History is a valid no-op.
type History struct {
	reg *Registry

	gHeapInuse  *Gauge
	gHeapAlloc  *Gauge
	gGoroutines *Gauge
	gNumGC      *Gauge
	gGCPause    *Gauge
	gBudget     *Gauge

	mu   sync.Mutex
	ring []HistoryPoint
	next int
	full bool
	over bool // heap above budget at the last tick

	done     chan struct{}
	finished chan struct{}
}

// newHistory builds the store without starting the ticker goroutine
// (tests drive Record directly).
func newHistory(reg *Registry) *History {
	return &History{
		reg:         reg,
		gHeapInuse:  reg.Gauge("runtime.heap_inuse_bytes"),
		gHeapAlloc:  reg.Gauge("runtime.heap_alloc_bytes"),
		gGoroutines: reg.Gauge("runtime.goroutines"),
		gNumGC:      reg.Gauge("runtime.gc_count"),
		gGCPause:    reg.Gauge("runtime.gc_pause_total_ns"),
		gBudget:     reg.Gauge(BudgetGaugeName),
		ring:        make([]HistoryPoint, historyCap),
		done:        make(chan struct{}),
		finished:    make(chan struct{}),
	}
}

// StartHistory launches the sampling clock over reg (nil when reg is
// nil). An immediate first point is taken, so even a process that
// crashes within the first interval leaves a trajectory in its bundle.
// Call Stop when done; a final point is recorded at Stop.
func StartHistory(reg *Registry) *History {
	if reg == nil {
		return nil
	}
	h := newHistory(reg)
	h.Record()
	go h.loop()
	return h
}

func (h *History) loop() {
	defer close(h.finished)
	t := time.NewTicker(historyInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			h.Record()
		case <-h.done:
			h.Record()
			return
		}
	}
}

// Stop records a final point and terminates the ticker (no-op on nil,
// safe to call more than once).
func (h *History) Stop() {
	if h == nil {
		return
	}
	select {
	case <-h.done:
	default:
		close(h.done)
	}
	<-h.finished
}

// Record takes one tick now: runtime gauges, mem_sample event, budget
// check, one ring point (no-op on nil). The flight recorder takes one
// more point at bundle time, without the budget check, so the final
// window always ends at the incident. Safe for concurrent use with the
// ticker.
func (h *History) Record() { h.record(true) }

// record is Record; checkBudget false skips the budget check, which
// leaves a crossing for the next tick to see.
func (h *History) record(checkBudget bool) {
	if h == nil {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	span := h.reg.CurrentPath()
	goroutines := runtime.NumGoroutine()
	h.gHeapInuse.Set(int64(ms.HeapInuse))
	h.gHeapAlloc.Set(int64(ms.HeapAlloc))
	h.gGoroutines.Set(int64(goroutines))
	h.gNumGC.Set(int64(ms.NumGC))
	h.gGCPause.Set(int64(ms.PauseTotalNs))

	tr := h.reg.Trace()
	tr.Emit(MemSampleEvent{
		Ev:           "mem_sample",
		HeapInuse:    ms.HeapInuse,
		HeapAlloc:    ms.HeapAlloc,
		Goroutines:   goroutines,
		NumGC:        ms.NumGC,
		GCPauseNanos: ms.PauseTotalNs,
		Span:         span,
	})
	if budget := h.gBudget.Value(); checkBudget && budget > 0 {
		over := ms.HeapInuse > uint64(budget)
		h.mu.Lock()
		crossed := over != h.over
		h.over = over
		h.mu.Unlock()
		if crossed {
			h.crossed(over, ms.HeapInuse, budget, span)
		}
	}

	s := h.reg.scalars()
	pt := HistoryPoint{Time: time.Now(), Span: span, Counters: s.Counters, Gauges: s.Gauges}
	for _, hs := range s.Histograms {
		pt.Counters[hs.Name+".count"] = hs.Count
		pt.Counters[hs.Name+".sum"] = hs.Sum
		pt.Gauges[hs.Name+".p50"] = hs.P50
		pt.Gauges[hs.Name+".p90"] = hs.P90
		pt.Gauges[hs.Name+".p99"] = hs.P99
	}
	h.mu.Lock()
	h.ring[h.next] = pt
	h.next++
	if h.next == len(h.ring) {
		h.next = 0
		h.full = true
	}
	h.mu.Unlock()
}

// crossed reports one budget crossing: a mem_budget event each way,
// and on the way up the runtime.mem_budget_exceeded counter and — once
// per process, crossings can flap — a flight bundle taken while the
// over-budget heap is still live.
func (h *History) crossed(over bool, heap uint64, budget int64, span string) {
	dir := "below"
	if over {
		dir = "above"
		h.reg.Counter("runtime.mem_budget_exceeded").Inc()
		h.reg.Flight().TriggerOnce("mem_budget",
			fmt.Sprintf("heap_inuse %d > budget %d (span %s)", heap, budget, span))
	}
	h.reg.Trace().Emit(MemBudgetEvent{Ev: "mem_budget", Dir: dir, HeapInuse: heap, Budget: budget, Span: span})
}

// Series returns the retained points, oldest first (nil for the nil
// History). The slice is a copy.
func (h *History) Series() []HistoryPoint {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.full {
		return append([]HistoryPoint{}, h.ring[:h.next]...)
	}
	out := make([]HistoryPoint, 0, len(h.ring))
	out = append(out, h.ring[h.next:]...)
	return append(out, h.ring[:h.next]...)
}

// HistoryDoc is the JSON document of /metrics/history and the
// history.json bundle member: the retained points plus counter deltas
// and per-second rates over their window.
type HistoryDoc struct {
	IntervalSec float64            `json:"interval_sec"`
	WindowSec   float64            `json:"window_sec"`
	Points      []HistoryPoint     `json:"points"`
	Deltas      map[string]int64   `json:"deltas,omitempty"`
	RatesPerSec map[string]float64 `json:"rates_per_sec,omitempty"`
}

// Doc assembles the exported history document (nil for the nil
// History). Deltas are last−first per counter (a counter absent from
// the first point counts from zero); with fewer than two points there
// is no window and they are empty.
func (h *History) Doc() *HistoryDoc {
	if h == nil {
		return nil
	}
	series := h.Series()
	doc := &HistoryDoc{
		IntervalSec: historyInterval.Seconds(),
		Points:      series,
		Deltas:      map[string]int64{},
		RatesPerSec: map[string]float64{},
	}
	if len(series) < 2 {
		return doc
	}
	first, last := series[0], series[len(series)-1]
	doc.WindowSec = last.Time.Sub(first.Time).Seconds()
	for name, v := range last.Counters {
		d := v - first.Counters[name]
		doc.Deltas[name] = d
		if doc.WindowSec > 0 {
			doc.RatesPerSec[name] = float64(d) / doc.WindowSec
		}
	}
	return doc
}
