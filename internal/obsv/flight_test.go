package obsv

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fullRecorder assembles a registry with every flight-recorder data
// source live: trace tail, query tracker, history, and some counters to
// move.
func fullRecorder(t *testing.T) (*Registry, *FlightRecorder, string) {
	t.Helper()
	r := NewRegistry()
	tw := NewTraceWriter(discardWriter{})
	tw.SetTailCap(8)
	r.SetTrace(tw)
	r.Counter("core.sort.rows").Add(1000)
	sp := r.StartSpan("build")
	sp.End()

	tr := NewQueryTracker(r, 8)
	done := tr.Begin("node", 3, "Product.Class,Outlet.ALL", "")
	tr.End(done, 12, nil, QueryIO{BytesRead: 96}, nil)
	running := tr.Begin("where", 7, "Product.Code,Outlet.ALL", "Product.Class=1")
	t.Cleanup(func() { tr.End(running, 0, nil, QueryIO{}, nil) })

	h := newHistory(r)
	h.Record()
	r.Counter("core.sort.rows").Add(500)
	// write() records the final point itself, closing the window at the
	// incident.

	dir := t.TempDir()
	f := NewFlightRecorder(dir, r)
	r.SetFlight(f)
	f.Attach(h, tr)
	return r, f, dir
}

type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }

func TestFlightBundleContentsAndDoctor(t *testing.T) {
	r, f, flightDir := fullRecorder(t)
	r.Trace().Emit(NodeEvent{Ev: "node", Node: 3, Rows: 12})

	dir := f.Trigger("test", "unit-test trigger")
	if dir == "" {
		t.Fatal("Trigger returned empty dir")
	}
	for _, name := range []string{
		BundleManifest, BundleMetrics, BundleHistory, BundleQueries, BundleGoroutines, BundleHeap, BundleTraceTail,
	} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("bundle member %s missing: %v", name, err)
		}
	}

	b, err := ReadBundle(dir)
	if err != nil {
		t.Fatal(err)
	}
	if b.Info.Reason != "test" || b.Info.Context != "unit-test trigger" || b.Info.PID != os.Getpid() {
		t.Fatalf("manifest = %+v", b.Info)
	}
	if len(b.Info.Errors) != 0 {
		t.Fatalf("bundle written partially: %v", b.Info.Errors)
	}
	if b.Metrics == nil || b.Metrics.Counters["core.sort.rows"] != 1500 {
		t.Fatalf("metrics member = %+v", b.Metrics)
	}
	// The trigger's own final history point closes the window: the delta
	// across it must match the counter movement since the first point.
	if b.History == nil || b.History.Deltas["core.sort.rows"] != 500 {
		t.Fatalf("history member deltas = %+v", b.History)
	}
	if pts := b.History.Points; len(pts) < 2 || pts[len(pts)-1].Gauges["runtime.heap_inuse_bytes"] == 0 {
		t.Fatalf("history carries no memory trajectory: %+v", pts)
	}
	if len(b.Inflight) != 1 || b.Inflight[0].Op != "where" || len(b.Recent) != 1 {
		t.Fatalf("queries member = %+v / %+v", b.Inflight, b.Recent)
	}
	if !strings.Contains(b.Goroutines, "goroutine ") {
		t.Fatal("goroutine dump empty")
	}
	if b.TraceTailLines == 0 {
		t.Fatal("trace tail empty despite emitted events")
	}
	states, total := b.GoroutineStates()
	if total == 0 || len(states) == 0 {
		t.Fatalf("goroutine states = %v (%d)", states, total)
	}

	// ReadBundle on the flight directory resolves to the newest bundle.
	dir2 := f.Trigger("second", "")
	b2, err := ReadBundle(flightDir)
	if err != nil {
		t.Fatal(err)
	}
	if b2.Dir != dir2 || b2.Info.Reason != "second" {
		t.Fatalf("flight-dir resolution picked %s (%s), want %s", b2.Dir, b2.Info.Reason, dir2)
	}

	var sb strings.Builder
	if err := b.WriteReport(&sb); err != nil {
		t.Fatal(err)
	}
	rep := sb.String()
	for _, want := range []string{
		"INCIDENT REPORT",
		"reason  test",
		"## Memory trajectory",
		"## Top counter movement",
		"core.sort.rows",
		"## Queries (1 in flight, 1 recent)",
		"Product.Class,Outlet.ALL",
		"## Goroutines",
		"trace tail: ",
	} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}

// TestBundleSampleSkipsBudgetCheck pins that the history point a bundle
// takes at the incident does not write a second, mem_budget bundle from
// inside the first (a crashing partitioned build is always over its
// budget), while the next tick still reports the crossing.
func TestBundleSampleSkipsBudgetCheck(t *testing.T) {
	r := NewRegistry()
	r.Gauge(BudgetGaugeName).Set(1) // every heap is over it
	h := newHistory(r)
	dir := t.TempDir()
	f := NewFlightRecorder(dir, r)
	r.SetFlight(f)
	f.Attach(h, nil)
	if f.Trigger("test", "") == "" {
		t.Fatal("Trigger wrote nothing")
	}
	bundles := func() []string {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		return names
	}
	if got := bundles(); len(got) != 1 {
		t.Fatalf("one trigger wrote %v", got)
	}
	h.Record()
	if got := bundles(); len(got) != 2 || !strings.HasSuffix(got[1], "-mem_budget") {
		t.Fatalf("the next tick left %v, want the test bundle and a mem_budget one", got)
	}
}

func TestFlightTriggerOnceAndNil(t *testing.T) {
	r := NewRegistry()
	f := NewFlightRecorder(t.TempDir(), r)
	if f.TriggerOnce("mem_budget", "first") == "" {
		t.Fatal("first TriggerOnce wrote nothing")
	}
	if f.TriggerOnce("mem_budget", "second") != "" {
		t.Fatal("repeat TriggerOnce wrote a bundle")
	}
	if f.TriggerOnce("other", "") == "" {
		t.Fatal("distinct reason suppressed")
	}

	var nilF *FlightRecorder
	if nilF.Trigger("x", "") != "" || nilF.TriggerOnce("x", "") != "" || nilF.TriggerPanic(&PanicError{}) != "" {
		t.Fatal("nil recorder not inert")
	}
	nilF.Attach(nil, nil)
}

// TestCapturePanicWritesBundle exercises the production panic path: a
// panicking instrumented goroutine gets wrapped with context, a bundle
// lands on disk with the panicking goroutine's stack, and re-panicked
// PanicErrors pass through outer layers without a second bundle.
func TestCapturePanicWritesBundle(t *testing.T) {
	r := NewRegistry()
	f := NewFlightRecorder(t.TempDir(), r)
	r.SetFlight(f)

	var pe *PanicError
	func() {
		defer func() {
			v := recover()
			var ok bool
			if pe, ok = v.(*PanicError); !ok {
				t.Fatalf("recovered %T %v, want *PanicError", v, v)
			}
		}()
		// Outer layer: must pass the inner wrapper through untouched.
		defer CapturePanic(r, func() string { return "outer layer" })
		func() {
			defer CapturePanic(r, func() string { return "cube worker slot=1 batch=2 node=Product.Class,Outlet.ALL" })
			panic("boom")
		}()
	}()

	if pe.Context != "cube worker slot=1 batch=2 node=Product.Class,Outlet.ALL" {
		t.Fatalf("context = %q (outer layer must not rewrap)", pe.Context)
	}
	if pe.Value != "boom" || len(pe.Stack) == 0 {
		t.Fatalf("PanicError = %+v", pe)
	}
	if pe.Bundle == "" {
		t.Fatal("no bundle written")
	}
	if !strings.Contains(pe.Error(), "panic in cube worker") || !strings.Contains(pe.Error(), pe.Bundle) {
		t.Fatalf("Error() = %q", pe.Error())
	}

	b, err := ReadBundle(pe.Bundle)
	if err != nil {
		t.Fatal(err)
	}
	if b.Info.Reason != "panic" || b.Info.Panic != "boom" || b.Info.Context != pe.Context {
		t.Fatalf("bundle manifest = %+v", b.Info)
	}
	// stack.txt must be the panicking goroutine's stack, captured at
	// panic time — it names this test function.
	if !strings.Contains(b.Stack, "TestCapturePanicWritesBundle") {
		t.Fatalf("stack.txt does not show the panicking goroutine:\n%s", b.Stack)
	}
	var sb strings.Builder
	if err := b.WriteReport(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "node=Product.Class,Outlet.ALL") || !strings.Contains(sb.String(), "## Panic stack") {
		t.Fatalf("doctor report does not name the node path:\n%s", sb.String())
	}

	// Only one bundle for the whole unwind.
	entries, err := os.ReadDir(f.dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("%d bundles written for one panic", len(entries))
	}

	// No panic, no effect.
	func() {
		defer CapturePanic(r, nil)
	}()
}

func TestCapturePanicWithoutRecorder(t *testing.T) {
	// Panic capture on a registry with no recorder (or nil registry)
	// still wraps with context; bundle stays empty.
	defer func() {
		pe, ok := recover().(*PanicError)
		if !ok || pe.Bundle != "" || pe.Context != "bare" {
			t.Fatalf("recovered %+v", pe)
		}
	}()
	defer CapturePanic(nil, func() string { return "bare" })
	panic("boom")
}

func TestReadBundleErrors(t *testing.T) {
	if _, err := ReadBundle(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("missing path accepted")
	}
	if _, err := ReadBundle(t.TempDir()); err == nil || !strings.Contains(err.Error(), "no bundle") {
		t.Fatalf("empty flight dir: %v", err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, BundleManifest), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBundle(dir); err == nil {
		t.Fatal("corrupt manifest accepted")
	}
}

func TestServerHistoryAndBundleEndpoints(t *testing.T) {
	r, f, _ := fullRecorder(t)
	h := newHistory(r)
	h.Record()
	r.Counter("core.sort.rows").Add(100)
	h.Record()
	srv := startTestServer(t, r, ServerOptions{History: h, Flight: f})
	base := "http://" + srv.Addr()

	code, body := get(t, base+"/metrics/history")
	if code != 200 {
		t.Fatalf("/metrics/history = %d", code)
	}
	var doc HistoryDoc
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/metrics/history not JSON: %v\n%s", err, body)
	}
	if len(doc.Points) < 2 || doc.Deltas["core.sort.rows"] != 100 {
		t.Fatalf("/metrics/history doc = %+v", doc)
	}

	code, body = get(t, base+"/debug/bundle")
	if code != 200 {
		t.Fatalf("/debug/bundle = %d %s", code, body)
	}
	var resp map[string]string
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	if b, err := ReadBundle(resp["bundle"]); err != nil || b.Info.Reason != "http" {
		t.Fatalf("on-demand bundle %q: %+v, %v", resp["bundle"], b, err)
	}

	// Without the sources the endpoints answer 404, not 500.
	bare := startTestServer(t, NewRegistry(), ServerOptions{})
	if code, _ := get(t, "http://"+bare.Addr()+"/metrics/history"); code != 404 {
		t.Fatalf("/metrics/history without history = %d", code)
	}
	if code, _ := get(t, "http://"+bare.Addr()+"/debug/bundle"); code != 404 {
		t.Fatalf("/debug/bundle without recorder = %d", code)
	}
}

func TestHealthzDegraded(t *testing.T) {
	r := NewRegistry()
	srv := startTestServer(t, r, ServerOptions{})
	base := "http://" + srv.Addr()

	if code, body := get(t, base+"/healthz"); code != 200 || strings.TrimSpace(body) != "ok" {
		t.Fatalf("healthy /healthz = %d %q", code, body)
	}

	r.Counter("trace.dropped").Add(3)
	code, body := get(t, base+"/healthz")
	if code != 503 {
		t.Fatalf("/healthz with trace drops = %d", code)
	}
	var doc healthzDoc
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("degraded /healthz not JSON: %v\n%s", err, body)
	}
	if doc.Status != "degraded" || len(doc.Reasons) != 1 || !strings.Contains(doc.Reasons[0], "trace.dropped=3") {
		t.Fatalf("degraded doc = %+v", doc)
	}

	// Heap over the declared budget is a second, independent reason.
	r.Gauge(BudgetGaugeName).Set(1)
	r.Gauge("runtime.heap_inuse_bytes").Set(2)
	code, body = json503(t, base+"/healthz")
	_ = code
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Reasons) != 2 || !strings.Contains(doc.Reasons[1], "exceeds mem_budget_bytes") {
		t.Fatalf("degraded doc = %+v", doc)
	}
}

func json503(t *testing.T, url string) (int, string) {
	t.Helper()
	code, body := get(t, url)
	if code != 503 {
		t.Fatalf("%s = %d, want 503", url, code)
	}
	return code, body
}

// TestDoctorFinalizeSection drives reportFinalize through a bundle whose
// metrics carry the finalize pipeline's counters and gauges, and checks
// the section stays silent when no finalize ran.
func TestDoctorFinalizeSection(t *testing.T) {
	r := NewRegistry()
	r.Counter("storage.finalize.extents").Add(12)
	r.Counter("storage.finalize.blocks").Add(340)
	r.Counter("storage.finalize.commit_stalls").Add(3)
	r.Counter("storage.finalize.gather_us").Add(1_500_000)
	r.Counter("storage.finalize.encode_us").Add(250_000)
	r.Counter("storage.finalize.zone_fold_us").Add(2_000_000)
	r.Counter("storage.finalize.write_us").Add(40_000)
	r.Gauge("storage.finalize.workers").Set(4)
	r.Gauge("storage.finalize.skew.mean_bytes").Set(1 << 20)
	r.Gauge("storage.finalize.skew.max_bytes").Set(3 << 20)
	f := NewFlightRecorder(t.TempDir(), r)
	b, err := ReadBundle(f.Trigger("test", ""))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := b.WriteReport(&sb); err != nil {
		t.Fatal(err)
	}
	rep := sb.String()
	for _, want := range []string{
		"## Finalize",
		"workers=4 extents=12 blocks=340 commit_stalls=3",
		"work gather=1.500s encode=0.250s zone_fold=2.000s write=0.040s",
		"raw bytes/worker mean=1.00MiB max=3.00MiB (skew ×3.00)",
	} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}

	// No finalize counters → no section.
	quiet := NewFlightRecorder(t.TempDir(), NewRegistry())
	bq, err := ReadBundle(quiet.Trigger("test", ""))
	if err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	if err := bq.WriteReport(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "## Finalize") {
		t.Error("Finalize section rendered without finalize metrics")
	}
}
