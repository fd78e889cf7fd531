package core

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"cure/internal/obsv"
	"cure/internal/query"
	"cure/internal/relation"
)

func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
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

// promSeries checks every line of an exposition against promLine and
// returns the set of series (name plus label block).
func promSeries(t *testing.T, body string) map[string]bool {
	t.Helper()
	series := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if !promLine.MatchString(line) {
			t.Fatalf("/metrics line %q is not exposition text", line)
		}
		if !strings.HasPrefix(line, "#") {
			series[line[:strings.LastIndexByte(line, ' ')]] = true
		}
	}
	return series
}

// TestLiveTelemetryDuringPartitionedBuild is the live-plane acceptance
// check: while a partitioned build runs, the telemetry server answers
// /metrics (exposition text), /healthz, /progress and pprof; the history
// ticks emit mem_sample events and — under the forced low memory budget
// — a mem_budget crossing; and a query engine attached to the same
// registry lands its spans and counters in the same exposition as the
// build's.
func TestLiveTelemetryDuringPartitionedBuild(t *testing.T) {
	hier := paperHier(t)
	// Large enough that the build cannot outrun the first scrape loop
	// iterations even on a loaded single-core machine — observing the
	// running build below must stay deterministic in practice. (Bumped
	// 32k → 96k → 192k: each time a build phase gets faster — last the
	// batched partition scan — the window for catching a running span
	// shrinks again.)
	ft := duplicated(randomFact(t, 192000, 31))
	dir := t.TempDir()
	factPath := filepath.Join(dir, "fact.bin")
	if err := relation.WriteFactFile(factPath, ft); err != nil {
		t.Fatal(err)
	}

	reg := obsv.NewRegistry()
	var trace bytes.Buffer
	reg.SetTrace(obsv.NewTraceWriter(&trace))
	hist := obsv.StartHistory(reg)
	defer hist.Stop()
	srv, err := obsv.StartServer("127.0.0.1:0", reg, obsv.ServerOptions{History: hist})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	// Scaled from the known-sound 400-rows/16KB pairing: large enough for
	// the partitioner to find a sound split, small enough both to force
	// the external path and to sit far below the process's real heap use
	// (so the history must record a budget crossing).
	// Scaled 2× with the 192k-row table so level selection still finds a
	// sound split while the heap still crosses the budget.
	const memBudget = 7_680_000
	buildDone := make(chan error, 1)
	var stats *BuildStats
	go func() {
		var berr error
		stats, berr = Build(Options{
			Dir:          filepath.Join(dir, "cube"),
			FactPath:     factPath,
			Hier:         hier,
			AggSpecs:     testSpecs(),
			MemoryBudget: memBudget,
			Metrics:      reg,
		})
		buildDone <- berr
	}()

	// Scrape while the build runs, taking a history tick per scrape.
	// The build takes orders of magnitude longer than one scrape loop, so
	// observing a running build span is deterministic in practice; every
	// scrape must be well-formed either way.
	sawLiveBuild := false
	sawLiveMetrics := false
	sawDegraded := false
	for done := false; !done; {
		select {
		case err := <-buildDone:
			if err != nil {
				t.Fatal(err)
			}
			done = true
		default:
		}
		hist.Record()

		// Before the heap crosses the forced budget /healthz is 200 "ok";
		// after the crossing it must degrade to 503 naming the budget.
		code, body := httpGet(t, base+"/healthz")
		switch {
		case code == 200 && strings.TrimSpace(body) == "ok":
		case code == 503 && strings.Contains(body, "degraded") &&
			strings.Contains(body, "mem_budget_bytes"):
			sawDegraded = true
		default:
			t.Fatalf("/healthz = %d %q", code, body)
		}

		// /progress first: the Running-span check is the tightest race
		// against build completion, so give it the freshest chance.
		code, body = httpGet(t, base+"/progress")
		if code != 200 {
			t.Fatalf("/progress = %d", code)
		}
		var pj struct {
			Progress string         `json:"progress"`
			Snapshot *obsv.Snapshot `json:"snapshot"`
		}
		if err := json.Unmarshal([]byte(body), &pj); err != nil {
			t.Fatalf("/progress is not JSON: %v", err)
		}
		if pj.Snapshot != nil && !done {
			for _, sp := range pj.Snapshot.Spans {
				if sp.Name == "build" && sp.Running {
					if !sp.EndTime.IsZero() {
						t.Fatalf("running span has non-zero end time: %+v", sp)
					}
					sawLiveBuild = true
				}
			}
		}

		code, body = httpGet(t, base+"/metrics")
		if code != 200 {
			t.Fatalf("/metrics = %d", code)
		}
		if promSeries(t, body)[`cure_span_elapsed_seconds{path="build"}`] && !done {
			sawLiveMetrics = true
		}
	}
	if !stats.Partitioned {
		t.Fatal("build did not partition; raise the table size or lower the budget")
	}
	if !sawLiveBuild || !sawLiveMetrics {
		t.Fatalf("never observed the build live (progress=%v, metrics=%v)", sawLiveBuild, sawLiveMetrics)
	}

	// pprof is mounted.
	if code, body := httpGet(t, base+"/debug/pprof/"); code != 200 || !strings.Contains(body, "profile") {
		t.Fatalf("/debug/pprof/ = %d", code)
	}

	// Query traffic on the same registry: its spans and counters join
	// the exposition.
	eng, err := query.Open(filepath.Join(dir, "cube"), query.Options{CacheFraction: 1, PinAggregates: true, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	id := eng.Enum().Encode([]int{0, 0, 0})
	if err := eng.Query(query.Spec{Node: id}, func(query.Row) error { return nil }); err != nil {
		t.Fatal(err)
	}
	eng.Close()
	_, body := httpGet(t, base+"/metrics")
	metrics := promSeries(t, body)
	for _, name := range []string{
		"cure_query_node_count",
		"cure_query_scan_nt_rows",
		"cure_query_node_latency_us_p99",
		"cure_partition_bytes_read",
		"cure_runtime_heap_inuse_bytes",
		`cure_span_elapsed_seconds{path="query.node"}`,
	} {
		if !metrics[name] {
			t.Fatalf("exposition missing %q after query traffic:\n%s", name, body)
		}
	}

	// History evidence in the trace: mem_sample events during the build,
	// and a mem_budget "above" crossing against the forced low budget.
	hist.Stop()
	srv.Close()
	if err := reg.Trace().Flush(); err != nil {
		t.Fatal(err)
	}
	var memSamples, crossings int
	dec := json.NewDecoder(bytes.NewReader(trace.Bytes()))
	for dec.More() {
		var ev struct {
			Ev     string `json:"ev"`
			Dir    string `json:"dir"`
			Budget int64  `json:"budget"`
		}
		if err := dec.Decode(&ev); err != nil {
			t.Fatal(err)
		}
		switch ev.Ev {
		case "mem_sample":
			memSamples++
		case "mem_budget":
			if ev.Dir == "above" {
				crossings++
				if ev.Budget != memBudget {
					t.Fatalf("mem_budget event budget = %d, want %d", ev.Budget, memBudget)
				}
			}
		}
	}
	if memSamples < 1 {
		t.Fatal("no mem_sample events in trace")
	}
	if crossings < 1 {
		t.Fatal("no mem_budget crossing despite a 64KB budget")
	}
	if !sawDegraded {
		t.Fatal("/healthz never reported degraded despite the heap sitting above the forced budget")
	}

	checkCube(t, filepath.Join(dir, "cube"), 1)
}
