package obsv

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// The doctor is the read side of the flight recorder: it parses a
// diagnostic bundle directory back into memory and renders a
// human-readable incident report — what happened, the memory trajectory
// against the budget, which counters were moving fastest in the final
// window, which queries were slow or still in flight, and where the
// goroutines were. `curectl doctor <bundle|dir>` is a thin wrapper over
// ReadBundle + WriteReport.

// Bundle is a diagnostic bundle read back from disk. Missing members
// leave their fields zero — doctor degrades section by section rather
// than refusing a partial bundle.
type Bundle struct {
	// Dir is the bundle directory the members were read from.
	Dir        string
	Info       BundleInfo
	Metrics    *Snapshot
	History    *HistoryDoc
	Inflight   []InflightQuery
	Recent     []QueryRecord
	Goroutines string
	Stack      string
	// TraceTailLines counts the trace_tail.jsonl lines present.
	TraceTailLines int
}

// ReadBundle loads a bundle. path may be the bundle directory itself or
// a flight directory holding bundle-* subdirectories, in which case the
// lexically newest bundle is chosen (names embed a UTC timestamp, so
// lexical order is chronological). The manifest is required; every
// other member is optional.
func ReadBundle(path string) (*Bundle, error) {
	dir, err := resolveBundleDir(path)
	if err != nil {
		return nil, err
	}
	b := &Bundle{Dir: dir}
	if err := readJSONFile(filepath.Join(dir, BundleManifest), &b.Info); err != nil {
		return nil, fmt.Errorf("obsv: not a bundle (no %s): %w", BundleManifest, err)
	}
	readJSONFile(filepath.Join(dir, BundleMetrics), &b.Metrics)
	readJSONFile(filepath.Join(dir, BundleHistory), &b.History)
	var qdoc bundleQueriesDoc
	if readJSONFile(filepath.Join(dir, BundleQueries), &qdoc) == nil {
		b.Inflight = qdoc.Inflight
		b.Recent = qdoc.Recent
	}
	if data, err := os.ReadFile(filepath.Join(dir, BundleGoroutines)); err == nil {
		b.Goroutines = string(data)
	}
	if data, err := os.ReadFile(filepath.Join(dir, BundleStack)); err == nil {
		b.Stack = string(data)
	}
	if f, err := os.Open(filepath.Join(dir, BundleTraceTail)); err == nil {
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			b.TraceTailLines++
		}
		f.Close()
	}
	return b, nil
}

// resolveBundleDir accepts a bundle directory or a flight directory of
// bundle-* subdirectories (newest wins).
func resolveBundleDir(path string) (string, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return "", err
	}
	if !fi.IsDir() {
		return "", fmt.Errorf("obsv: %s is not a directory", path)
	}
	if _, err := os.Stat(filepath.Join(path, BundleManifest)); err == nil {
		return path, nil
	}
	entries, err := os.ReadDir(path)
	if err != nil {
		return "", err
	}
	var bundles []string
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), "bundle-") {
			bundles = append(bundles, e.Name())
		}
	}
	if len(bundles) == 0 {
		return "", fmt.Errorf("obsv: %s holds no bundle.json and no bundle-* directories", path)
	}
	sort.Strings(bundles)
	return filepath.Join(path, bundles[len(bundles)-1]), nil
}

func readJSONFile(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

// goroutineState matches the header line of each goroutine in a
// debug=2 dump: "goroutine 17 [chan receive, 2 minutes]:".
var goroutineState = regexp.MustCompile(`^goroutine \d+ \[([^,\]]+)`)

// GoroutineStates tallies the bundle's goroutine dump by state
// ("running", "chan receive", "IO wait", ...), plus the total.
func (b *Bundle) GoroutineStates() (map[string]int, int) {
	states := map[string]int{}
	total := 0
	for _, line := range strings.Split(b.Goroutines, "\n") {
		if m := goroutineState.FindStringSubmatch(line); m != nil {
			states[m[1]]++
			total++
		}
	}
	return states, total
}

// WriteReport renders the bundle as a human-readable incident report.
func (b *Bundle) WriteReport(w io.Writer) error {
	bw := bufio.NewWriter(w)

	fmt.Fprintf(bw, "INCIDENT REPORT — %s\n", b.Dir)
	fmt.Fprintf(bw, "time    %s\n", b.Info.Time.Format("2006-01-02 15:04:05.000 MST"))
	fmt.Fprintf(bw, "reason  %s\n", b.Info.Reason)
	if b.Info.Context != "" {
		fmt.Fprintf(bw, "context %s\n", b.Info.Context)
	}
	if b.Info.Panic != "" {
		fmt.Fprintf(bw, "panic   %s\n", b.Info.Panic)
	}
	fmt.Fprintf(bw, "process pid=%d %s\n", b.Info.PID, b.Info.GoVersion)
	if len(b.Info.Args) > 0 {
		fmt.Fprintf(bw, "args    %s\n", strings.Join(b.Info.Args, " "))
	}
	if len(b.Info.Errors) > 0 {
		fmt.Fprintf(bw, "partial %s\n", strings.Join(b.Info.Errors, "; "))
	}

	b.reportMemory(bw)
	b.reportRates(bw)
	b.reportPartition(bw)
	b.reportFinalize(bw)
	b.reportQueries(bw)
	b.reportGoroutines(bw)

	if b.Stack != "" {
		fmt.Fprintf(bw, "\n## Panic stack\n")
		excerpt := b.Stack
		const maxStack = 2400
		if len(excerpt) > maxStack {
			excerpt = excerpt[:maxStack] + "\n... (truncated; full stack in " + BundleStack + ")"
		}
		fmt.Fprintln(bw, strings.TrimRight(excerpt, "\n"))
	}
	if b.TraceTailLines > 0 {
		fmt.Fprintf(bw, "\ntrace tail: %d events in %s\n", b.TraceTailLines, BundleTraceTail)
	}
	return bw.Flush()
}

// reportMemory renders the heap trajectory of the history points
// against the budget.
func (b *Bundle) reportMemory(w io.Writer) {
	if b.History == nil || len(b.History.Points) == 0 {
		return
	}
	pts := b.History.Points
	first, last := pts[0], pts[len(pts)-1]
	fmt.Fprintf(w, "\n## Memory trajectory (%d samples over %s)\n",
		len(pts), last.Time.Sub(first.Time).Round(timeRound))
	heap := func(pt HistoryPoint) int64 { return pt.Gauges["runtime.heap_inuse_bytes"] }
	peak := first
	for _, pt := range pts {
		if heap(pt) > heap(peak) {
			peak = pt
		}
	}
	var budget int64
	if b.Metrics != nil {
		budget = b.Metrics.Gauges[BudgetGaugeName]
	}
	line := func(label string, pt HistoryPoint) {
		fmt.Fprintf(w, "%-6s heap_inuse=%s goroutines=%d", label, fmtBytes(heap(pt)), pt.Gauges["runtime.goroutines"])
		if pt.Span != "" {
			fmt.Fprintf(w, " span=%s", pt.Span)
		}
		if budget > 0 && heap(pt) > budget {
			fmt.Fprintf(w, "  ** OVER BUDGET **")
		}
		fmt.Fprintln(w)
	}
	line("first", first)
	line("peak", peak)
	line("last", last)
	if budget > 0 {
		fmt.Fprintf(w, "budget %s", fmtBytes(budget))
		if n := b.Metrics.Counters["runtime.mem_budget_exceeded"]; n > 0 {
			fmt.Fprintf(w, " — exceeded %d time(s)", n)
		}
		fmt.Fprintln(w)
	}
}

// reportRates renders the fastest-moving counters over the history
// window ending at the bundle.
func (b *Bundle) reportRates(w io.Writer) {
	if b.History == nil || len(b.History.Deltas) == 0 {
		return
	}
	type kv struct {
		name string
		d    int64
		r    float64
	}
	var rows []kv
	for name, d := range b.History.Deltas {
		if d != 0 {
			rows = append(rows, kv{name, d, b.History.RatesPerSec[name]})
		}
	}
	if len(rows) == 0 {
		return
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].d != rows[j].d {
			return rows[i].d > rows[j].d
		}
		return rows[i].name < rows[j].name
	})
	if len(rows) > 10 {
		rows = rows[:10]
	}
	fmt.Fprintf(w, "\n## Top counter movement (final %.1fs window, %d history points)\n",
		b.History.WindowSec, len(b.History.Points))
	for _, r := range rows {
		fmt.Fprintf(w, "%-40s %+12d  (%.1f/s)\n", r.name, r.d, r.r)
	}
}

// reportPartition renders the partitioned-scan picture: partition count
// and skew (max vs mean rows per partition — heavy skew means one
// partition file dominates the cubing phase), and the scan pipeline's
// worker count and flush-contention counters.
func (b *Bundle) reportPartition(w io.Writer) {
	if b.Metrics == nil {
		return
	}
	mean := b.Metrics.Gauges["partition.skew.mean_rows"]
	if mean == 0 {
		return
	}
	max := b.Metrics.Gauges["partition.skew.max_rows"]
	fmt.Fprintf(w, "\n## Partitioned scan\n")
	fmt.Fprintf(w, "partitions=%d level=%d rows/partition mean=%d max=%d (skew ×%.2f)\n",
		b.Metrics.Gauges["partition.count"], b.Metrics.Gauges["partition.level"],
		mean, max, float64(max)/float64(mean))
	if workers := b.Metrics.Gauges["partition.scan.workers"]; workers > 0 {
		flushes := b.Metrics.Counters["partition.scan.flushes"]
		stalls := b.Metrics.Counters["partition.scan.flush_stalls"]
		fmt.Fprintf(w, "scan workers=%d shards=%d batches=%d flushes=%d flush_stalls=%d merge_stalls=%d\n",
			workers, b.Metrics.Counters["partition.scan.shards"],
			b.Metrics.Counters["partition.scan.batches"], flushes, stalls,
			b.Metrics.Counters["partition.scan.merge_stalls"])
		if flushes > 0 && stalls*5 >= flushes {
			fmt.Fprintf(w, "note: %d%% of flushes stalled on a writer lock — partitions are too few or too hot for this worker count\n",
				stalls*100/flushes)
		}
	}
}

// reportFinalize renders the finalize extent pipeline: worker count and
// raw-byte skew across workers, extent/block volume, and the CPU time of
// the pass split by the work done (gather+transform, encode, zone fold,
// write — summed over workers).
func (b *Bundle) reportFinalize(w io.Writer) {
	if b.Metrics == nil {
		return
	}
	extents := b.Metrics.Counters["storage.finalize.extents"]
	if extents == 0 {
		return
	}
	fmt.Fprintf(w, "\n## Finalize\n")
	fmt.Fprintf(w, "workers=%d extents=%d blocks=%d commit_stalls=%d\n",
		b.Metrics.Gauges["storage.finalize.workers"], extents,
		b.Metrics.Counters["storage.finalize.blocks"],
		b.Metrics.Counters["storage.finalize.commit_stalls"])
	sec := func(name string) float64 {
		return float64(b.Metrics.Counters["storage.finalize."+name+"_us"]) / 1e6
	}
	fmt.Fprintf(w, "work gather=%.3fs encode=%.3fs zone_fold=%.3fs write=%.3fs\n",
		sec("gather"), sec("encode"), sec("zone_fold"), sec("write"))
	if mean := b.Metrics.Gauges["storage.finalize.skew.mean_bytes"]; mean > 0 {
		max := b.Metrics.Gauges["storage.finalize.skew.max_bytes"]
		fmt.Fprintf(w, "raw bytes/worker mean=%s max=%s (skew ×%.2f)\n",
			fmtBytes(mean), fmtBytes(max), float64(max)/float64(mean))
	}
}

// reportQueries renders the in-flight table and the slowest recently
// completed queries.
func (b *Bundle) reportQueries(w io.Writer) {
	if len(b.Inflight) == 0 && len(b.Recent) == 0 {
		return
	}
	fmt.Fprintf(w, "\n## Queries (%d in flight, %d recent)\n", len(b.Inflight), len(b.Recent))
	for _, q := range b.Inflight {
		fmt.Fprintf(w, "inflight id=%d op=%s node=%s elapsed=%dus", q.ID, q.Op, queryNodeLabel(q.NodeName, q.Node), q.ElapsedUs)
		if q.Where != "" {
			fmt.Fprintf(w, " where=%q", q.Where)
		}
		if q.Extent != "" {
			fmt.Fprintf(w, " scanning=%s", q.Extent)
		}
		fmt.Fprintln(w)
	}
	recent := append([]QueryRecord{}, b.Recent...)
	sort.Slice(recent, func(i, j int) bool { return recent[i].ElapsedUs > recent[j].ElapsedUs })
	if len(recent) > 5 {
		recent = recent[:5]
	}
	for _, q := range recent {
		fmt.Fprintf(w, "slowest id=%d op=%s node=%s elapsed=%dus rows=%d read=%s",
			q.ID, q.Op, queryNodeLabel(q.NodeName, q.Node), q.ElapsedUs, q.Rows, fmtBytes(q.IO.BytesRead))
		if q.Err != "" {
			fmt.Fprintf(w, " err=%q", q.Err)
		}
		fmt.Fprintln(w)
	}
}

func queryNodeLabel(name string, node int64) string {
	if name != "" {
		return name
	}
	return fmt.Sprintf("#%d", node)
}

// reportGoroutines tallies the goroutine dump by state.
func (b *Bundle) reportGoroutines(w io.Writer) {
	states, total := b.GoroutineStates()
	if total == 0 {
		return
	}
	type kv struct {
		state string
		n     int
	}
	rows := make([]kv, 0, len(states))
	for s, n := range states {
		rows = append(rows, kv{s, n})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].n != rows[j].n {
			return rows[i].n > rows[j].n
		}
		return rows[i].state < rows[j].state
	})
	fmt.Fprintf(w, "\n## Goroutines (%d total)\n", total)
	for _, r := range rows {
		fmt.Fprintf(w, "%5d  %s\n", r.n, r.state)
	}
}

const timeRound = 1e6 // 1ms, for humane durations in the report

// fmtBytes renders a byte count with a binary-unit suffix.
func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%dB", n)
}
