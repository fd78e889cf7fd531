package obsv

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
)

func startTestServer(t *testing.T, r *Registry, opts ServerOptions) *Server {
	t.Helper()
	srv, err := StartServer("127.0.0.1:0", r, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// promLine is the shape of every line WriteProm emits: a TYPE comment
// or one series with an optional label block and a float value.
var promLine = regexp.MustCompile(`^(# TYPE cure_\w+ (counter|gauge)|cure_\w+(\{.*\})? -?[0-9.]+(e[-+][0-9]+)?)$`)

func TestServerEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("partition.bytes_read").Add(777)
	sp := r.StartSpan("build") // left running: snapshots must be clean mid-build
	defer sp.End()
	srv := startTestServer(t, r, ServerOptions{})
	base := "http://" + srv.Addr()

	if code, body := get(t, base+"/healthz"); code != 200 || strings.TrimSpace(body) != "ok" {
		t.Fatalf("/healthz = %d %q", code, body)
	}

	code, body := get(t, base+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if !promLine.MatchString(line) {
			t.Fatalf("/metrics line %q is not exposition text", line)
		}
	}
	for _, want := range []string{"\ncure_partition_bytes_read 777\n", "\ncure_span_elapsed_seconds{path=\"build\"} "} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}

	code, body = get(t, base+"/progress")
	if code != 200 {
		t.Fatalf("/progress = %d", code)
	}
	var pj progressJSON
	if err := json.Unmarshal([]byte(body), &pj); err != nil {
		t.Fatalf("/progress not JSON: %v", err)
	}
	if !strings.Contains(pj.Progress, "phase=build") || pj.Snapshot == nil {
		t.Fatalf("/progress = %+v", pj)
	}
	if len(pj.Snapshot.Spans) != 1 || !pj.Snapshot.Spans[0].Running || !pj.Snapshot.Spans[0].EndTime.IsZero() {
		t.Fatalf("running span snapshot = %+v", pj.Snapshot.Spans)
	}

	if code, body := get(t, base+"/debug/pprof/"); code != 200 || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ = %d", code)
	}
}

func TestCLIServeFlags(t *testing.T) {
	c := &CLI{ServeAddr: "127.0.0.1:0", SlowQueryMs: -1}
	var diag bytes.Buffer
	if err := c.Start(&diag); err != nil {
		t.Fatal(err)
	}
	if c.Registry() == nil {
		t.Fatal("serve flag did not create a registry")
	}
	c.Registry().Counter("core.segments").Add(3)
	addr := c.server.Addr()
	if code, _ := get(t, fmt.Sprintf("http://%s/healthz", addr)); code != 200 {
		t.Fatalf("healthz during CLI session = %d", code)
	}
	if err := c.Finish(); err != nil {
		t.Fatal(err)
	}
	if len(c.history.Series()) < 2 {
		t.Fatal("CLI history took no start and stop points")
	}
	if _, err := http.Get(fmt.Sprintf("http://%s/healthz", addr)); err == nil {
		t.Fatal("server still up after Finish")
	}
	if !strings.Contains(diag.String(), "telemetry: serving") {
		t.Fatalf("diag output = %q", diag.String())
	}
}

// TestCLITraceSinks: -trace-out keeps whole events up to
// -trace-max-bytes and counts the rest in trace.dropped, which
// -metrics-out records when Finish flushes the sinks.
func TestCLITraceSinks(t *testing.T) {
	dir := t.TempDir()
	tracePath, metricsPath := filepath.Join(dir, "trace.jsonl"), filepath.Join(dir, "metrics.json")
	c := &CLI{TraceOut: tracePath, TraceMaxBytes: 100, MetricsOut: metricsPath, SlowQueryMs: -1}
	if err := c.Start(io.Discard); err != nil {
		t.Fatal(err)
	}
	const events = 10
	for i := 0; i < events; i++ {
		c.Registry().Trace().Emit(NodeEvent{Ev: "node", Node: int64(i)})
	}
	if err := c.Finish(); err != nil {
		t.Fatal(err)
	}
	trace, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(trace)), "\n")
	if len(trace) > 100 || len(lines) == 0 {
		t.Fatalf("trace holds %d bytes in %d lines, cap 100", len(trace), len(lines))
	}
	for _, line := range lines {
		if !json.Valid([]byte(line)) {
			t.Fatalf("trace line %q is not a whole event", line)
		}
	}
	data, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	if got := snap.Counters["trace.dropped"]; got != int64(events-len(lines)) {
		t.Fatalf("trace.dropped = %d, want %d", got, events-len(lines))
	}
}

// TestCLIStartFinishLeaksNoGoroutines: a session with every periodic
// part on (server, history, flight recorder, signal handler) leaves
// nothing running after Finish.
func TestCLIStartFinishLeaksNoGoroutines(t *testing.T) {
	cycle := func() {
		c := &CLI{ServeAddr: "127.0.0.1:0", FlightDir: t.TempDir(), SlowQueryMs: -1}
		if err := c.Start(io.Discard); err != nil {
			t.Fatal(err)
		}
		if err := c.Finish(); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // os/signal starts its one process-wide watcher on first use
	base := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		cycle()
	}
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); n > base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(10 * time.Millisecond)
	}
	if n > base {
		t.Fatalf("%d goroutines after 20 Start/Finish cycles, %d before", n, base)
	}
}

// TestRegisterFlagsSet pins the observability flags every command
// shares.
func TestRegisterFlagsSet(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	RegisterFlags(fs)
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	want := []string{
		"cpuprofile", "flight-dir", "memprofile", "metrics-out", "progress", "serve",
		"serve-hold", "slow-query-ms", "slow-query-out", "trace-max-bytes", "trace-out",
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("flags = %v, want %v", got, want)
	}
}

func TestServerQueriesEndpoint(t *testing.T) {
	r := NewRegistry()
	tr := NewQueryTracker(r, 8)
	done := tr.Begin("node", 3, "Product.Class", "")
	tr.End(done, 12, nil, QueryIO{BytesRead: 96, ZoneBlocksSkipped: 4}, nil)
	running := tr.Begin("where", 7, "Product.Code", "Product.Class=1")
	running.SetExtent(ExtentNT, 7)
	defer tr.End(running, 0, nil, QueryIO{}, nil)

	srv := startTestServer(t, r, ServerOptions{Queries: tr})
	base := "http://" + srv.Addr()

	code, body := get(t, base+"/queries")
	if code != 200 {
		t.Fatalf("/queries = %d", code)
	}
	var doc struct {
		ElapsedSec float64         `json:"elapsed_sec"`
		Inflight   []InflightQuery `json:"inflight"`
		Recent     []QueryRecord   `json:"recent"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/queries not JSON: %v\n%s", err, body)
	}
	if len(doc.Inflight) != 1 || doc.Inflight[0].Op != "where" || doc.Inflight[0].Extent != "nt" {
		t.Fatalf("inflight = %+v", doc.Inflight)
	}
	if len(doc.Recent) != 1 || doc.Recent[0].Rows != 12 || doc.Recent[0].IO.ZoneBlocksSkipped != 4 {
		t.Fatalf("recent = %+v", doc.Recent)
	}
}

func TestServerQueriesWithoutTracker(t *testing.T) {
	// No tracker wired: the endpoint still answers with empty tables
	// (nil tracker methods are no-ops), never a panic or a 500.
	r := NewRegistry()
	srv := startTestServer(t, r, ServerOptions{})
	code, body := get(t, "http://"+srv.Addr()+"/queries")
	if code != 200 {
		t.Fatalf("/queries without tracker = %d", code)
	}
	if !strings.Contains(body, `"inflight": []`) || !strings.Contains(body, `"recent": []`) {
		t.Fatalf("/queries without tracker = %s", body)
	}
}
