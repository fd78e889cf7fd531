package obsv

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Add(5)
	c.Inc()
	if c.Value() != 0 {
		t.Fatalf("nil counter value = %d", c.Value())
	}
	g := r.Gauge("y")
	g.Set(7)
	if g.Value() != 0 {
		t.Fatalf("nil gauge value = %d", g.Value())
	}
	h := r.Histogram("z")
	h.Observe(3)
	if h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil histogram recorded something")
	}
	s := r.StartSpan("build")
	child := s.Child("phase")
	child.AddRowsIn(10)
	child.End()
	s.End()
	if s != nil || s.Path() != "" {
		t.Fatal("nil span not inert")
	}
	if r.Trace() != nil {
		t.Fatal("nil registry has a trace")
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Spans) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
}

func TestCountersGaugesHistograms(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("core.tt")
	c.Add(3)
	c.Inc()
	if got := r.Counter("core.tt").Value(); got != 4 {
		t.Fatalf("counter = %d, want 4", got)
	}
	if r.Counter("core.tt") != c {
		t.Fatal("counter not interned")
	}
	r.Gauge("pool.occupancy").Set(42)
	h := r.Histogram("lat")
	for _, v := range []int64{1, 2, 3, 100, 1000} {
		h.Observe(v)
	}
	if h.Count() != 5 || h.Sum() != 1106 {
		t.Fatalf("hist count/sum = %d/%d", h.Count(), h.Sum())
	}
	if q := h.Quantile(0.5); q < 3 || q > 7 {
		t.Fatalf("p50 = %d, want bucket bound covering 3", q)
	}
	if q := h.Quantile(1); q < 1000 {
		t.Fatalf("p100 = %d, want ≥ 1000", q)
	}

	snap := r.Snapshot()
	if snap.Counters["core.tt"] != 4 || snap.Gauges["pool.occupancy"] != 42 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if len(snap.Histograms) != 1 || snap.Histograms[0].Count != 5 {
		t.Fatalf("snapshot hists = %+v", snap.Histograms)
	}
}

func TestHistogramQuantileEdges(t *testing.T) {
	const maxInt64 = int64(^uint64(0) >> 1)

	t.Run("empty", func(t *testing.T) {
		h := NewRegistry().Histogram("empty")
		for _, q := range []float64{-1, 0, 0.5, 1, 2} {
			if got := h.Quantile(q); got != 0 {
				t.Errorf("empty.Quantile(%v) = %d, want 0", q, got)
			}
		}
	})

	// Boundary values round-trip into the bucket whose upper bound they
	// are: a histogram holding only v answers every quantile with
	// bucketUpper(bucket(v)), which must be ≥ v and exact at bounds.
	t.Run("bucket-bounds", func(t *testing.T) {
		cases := []struct {
			v    int64
			want int64
		}{
			{-5, 0}, // negatives clamp to bucket 0
			{0, 0},
			{1, 1},
			{2, 3},
			{3, 3},
			{4, 7},
			{7, 7},
			{8, 15},
			{1 << 62, maxInt64},
			{maxInt64, maxInt64},
		}
		for _, tc := range cases {
			h := NewRegistry().Histogram("x")
			h.Observe(tc.v)
			for _, q := range []float64{0, 0.5, 0.99, 1} {
				if got := h.Quantile(q); got != tc.want {
					t.Errorf("hist{%d}.Quantile(%v) = %d, want %d", tc.v, q, got, tc.want)
				}
			}
		}
	})

	t.Run("clamping", func(t *testing.T) {
		h := NewRegistry().Histogram("x")
		h.Observe(1)
		h.Observe(1000)
		if lo, hi := h.Quantile(-3), h.Quantile(0); lo != hi {
			t.Errorf("Quantile(-3) = %d, Quantile(0) = %d; negative q must clamp", lo, hi)
		}
		if lo, hi := h.Quantile(99), h.Quantile(1); lo != hi {
			t.Errorf("Quantile(99) = %d, Quantile(1) = %d; q > 1 must clamp", lo, hi)
		}
		if h.Quantile(1) < 1000 {
			t.Errorf("Quantile(1) = %d, want ≥ 1000", h.Quantile(1))
		}
	})
}

// TestRegistryConcurrentHammer drives every concurrently-used surface of
// one registry at once — counters, gauges, histograms, span trees, trace
// emission, and mid-flight Snapshot/ProgressLine/WriteProm readers — and
// relies on `go test -race ./internal/obsv` to catch ordering bugs.
func TestRegistryConcurrentHammer(t *testing.T) {
	r := NewRegistry()
	var sink bytes.Buffer
	r.SetTrace(NewTraceWriter(&sink))
	root := r.StartSpan("build")

	const writers = 8
	const iters = 500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr := r.Trace()
			for i := 0; i < iters; i++ {
				r.Counter("c").Inc()
				r.Gauge("g").Set(int64(i))
				r.Histogram("h").Observe(int64(i))
				tr.Emit(NodeEvent{Ev: "node", Node: int64(w*iters + i)})
				if i%100 == 0 {
					s := root.Child("worker")
					s.AddRowsIn(1)
					s.End()
				}
			}
		}()
	}
	// Concurrent readers: what /metrics and /progress do mid-build.
	for rd := 0; rd < 4; rd++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				snap := r.Snapshot()
				if err := WriteProm(io.Discard, snap); err != nil {
					t.Errorf("WriteProm: %v", err)
					return
				}
				_ = r.ProgressLine()
				_ = r.CurrentPath()
			}
		}()
	}
	wg.Wait()
	root.End()
	if err := r.Trace().Flush(); err != nil {
		t.Fatal(err)
	}
	if got := r.Counter("c").Value(); got != writers*iters {
		t.Fatalf("counter = %d, want %d", got, writers*iters)
	}
	if got := strings.Count(sink.String(), "\n"); got < writers*iters {
		t.Fatalf("trace lines = %d, want ≥ %d", got, writers*iters)
	}
	snap := r.Snapshot()
	if len(snap.Spans) != 1 || snap.Spans[0].Running {
		t.Fatalf("final snapshot spans = %+v", snap.Spans)
	}
}

func TestSpanRetentionCap(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < maxRetainedRootSpans+10; i++ {
		r.StartSpan("query.node").End()
	}
	snap := r.Snapshot()
	if len(snap.Spans) != maxRetainedRootSpans {
		t.Fatalf("retained %d spans, want cap %d", len(snap.Spans), maxRetainedRootSpans)
	}
	if got := r.Counter("obsv.spans_dropped").Value(); got != 10 {
		t.Fatalf("spans_dropped = %d, want 10", got)
	}
}

func TestSpanHierarchy(t *testing.T) {
	r := NewRegistry()
	build := r.StartSpan("build")
	load := build.Child("load")
	load.AddRowsIn(100)
	load.AddBytesRead(4096)
	time.Sleep(time.Millisecond)
	load.End()
	load.End() // double End is a no-op
	cube := build.Child("cube")
	cube.End()
	build.End()

	if build.Path() != "build" || load.Path() != "build/load" {
		t.Fatalf("paths = %q, %q", build.Path(), load.Path())
	}
	if ln, bn := load.nanos.Load(), build.nanos.Load(); ln <= 0 || bn < ln {
		t.Fatalf("elapsed: build=%dns load=%dns", bn, ln)
	}
	snap := r.Snapshot()
	if len(snap.Spans) != 1 || len(snap.Spans[0].Children) != 2 {
		t.Fatalf("span snapshot = %+v", snap.Spans)
	}
	if snap.Spans[0].Children[0].RowsIn != 100 || snap.Spans[0].Children[0].BytesRead != 4096 {
		t.Fatalf("child snapshot = %+v", snap.Spans[0].Children[0])
	}
}

func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	parent := r.StartSpan("build")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("c").Inc()
				r.Histogram("h").Observe(int64(j))
			}
			s := parent.Child("worker")
			s.AddRowsIn(1)
			s.End()
		}()
	}
	wg.Wait()
	parent.End()
	if got := r.Counter("c").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := len(parent.Children()); got != 8 {
		t.Fatalf("children = %d, want 8", got)
	}
}

func TestTraceWriter(t *testing.T) {
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	tw.Emit(NodeEvent{Ev: "node", Node: 7, Rows: 3, Depth: 1})
	tw.Emit(EdgeEvent{Ev: "edge", Node: 8, Edge: "solid", Mode: "sort", Alg: "counting", Rows: 3})
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d, want 2", len(lines))
	}
	var ev map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatalf("line 0 not JSON: %v", err)
	}
	if ev["ev"] != "node" || ev["node"] != float64(7) {
		t.Fatalf("event = %v", ev)
	}

	var nilTW *TraceWriter
	nilTW.Emit(NodeEvent{})
	if nilTW.Flush() != nil || nilTW.Tail() != nil {
		t.Fatal("nil trace writer not inert")
	}
}

func TestSpanEventOnEnd(t *testing.T) {
	var buf bytes.Buffer
	r := NewRegistry()
	r.SetTrace(NewTraceWriter(&buf))
	s := r.StartSpan("build")
	s.AddRowsOut(5)
	s.End()
	if err := r.Trace().Flush(); err != nil {
		t.Fatal(err)
	}
	var ev SpanEvent
	if err := json.Unmarshal(bytes.TrimSpace(buf.Bytes()), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Ev != "span" || ev.Span != "build" || ev.RowsOut != 5 {
		t.Fatalf("span event = %+v", ev)
	}
}

func TestProgressLine(t *testing.T) {
	r := NewRegistry()
	s := r.StartSpan("build")
	p := s.Child("partition.cube")
	r.Counter("core.sort.rows").Add(1234)
	line := r.ProgressLine()
	if !strings.Contains(line, "phase=build/partition.cube") || !strings.Contains(line, "core.sort.rows=1234") {
		t.Fatalf("progress line = %q", line)
	}
	p.End()
	s.End()
}

// TestConcurrentSegSpans models the build's concurrent cube tasks: many
// goroutines attach children to one phase span, tally rows, and
// end them while a scraper keeps snapshotting. All children must
// survive into the snapshot with their row counts.
func TestConcurrentSegSpans(t *testing.T) {
	r := NewRegistry()
	root := r.StartSpan("build")
	cube := root.Child("cube")
	const workers, spansEach, rowsEach = 8, 25, 17
	var wg sync.WaitGroup
	stop := make(chan struct{})
	go func() { // concurrent scraper: must never see a torn span
		for {
			select {
			case <-stop:
				return
			default:
				for _, sp := range r.Snapshot().Spans {
					if sp.Running && !sp.EndTime.IsZero() {
						panic("running span with end time")
					}
				}
			}
		}
	}()
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < spansEach; i++ {
				sp := cube.Child("seg")
				sp.AddRowsIn(rowsEach)
				sp.End()
			}
		}()
	}
	wg.Wait()
	close(stop)
	cube.End()
	root.End()

	snap := r.Snapshot()
	if len(snap.Spans) != 1 {
		t.Fatalf("got %d root spans, want 1", len(snap.Spans))
	}
	segs := 0
	var rows int64
	for _, c := range snap.Spans[0].Children {
		if c.Name != "cube" {
			continue
		}
		for _, s := range c.Children {
			if s.Name == "seg" {
				segs++
				rows += s.RowsIn
			}
		}
	}
	if segs != workers*spansEach {
		t.Fatalf("snapshot holds %d seg spans, want %d", segs, workers*spansEach)
	}
	if rows != int64(workers*spansEach*rowsEach) {
		t.Fatalf("seg rows = %d, want %d", rows, workers*spansEach*rowsEach)
	}
}

func TestTraceWriterMaxBytes(t *testing.T) {
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	r := NewRegistry()
	tw.SetDropCounter(r.Counter("trace.dropped"))

	// Measure one event line, then budget for exactly two.
	var pb bytes.Buffer
	pw := NewTraceWriter(&pb)
	pw.Emit(NodeEvent{Ev: "node", Node: 1, Rows: 1, Depth: 1})
	pw.Flush()
	lineLen := int64(pb.Len())
	tw.SetMaxBytes(2 * lineLen)

	for i := 0; i < 5; i++ {
		tw.Emit(NodeEvent{Ev: "node", Node: 1, Rows: 1, Depth: 1})
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), "\n"); n != 2 {
		t.Fatalf("events written = %d, want 2", n)
	}
	if c := r.Counter("trace.dropped").Value(); c != 3 {
		t.Fatalf("trace.dropped counter = %d, want 3", c)
	}
	if int64(buf.Len()) > 2*lineLen {
		t.Fatalf("sink holds %d bytes, budget was %d", buf.Len(), 2*lineLen)
	}
	// The surviving lines are intact JSON — the cap drops whole events,
	// never truncates one.
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var ev NodeEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("kept line %q not JSON: %v", line, err)
		}
	}

	// Nil writer stays inert with the new methods too.
	var nilTW *TraceWriter
	nilTW.SetMaxBytes(1)
	nilTW.SetDropCounter(nil)
	nilTW.Emit(NodeEvent{})
}
