// Command cubemark is the repository's benchmark: for each workload it
// generates data from a seed, builds the cube, opens it and serves a
// mixed query load, checks every answer against a brute-force oracle,
// and prints the end-to-end metrics (-trace 0) or the per-layer metrics
// of a traced run (-trace 1) named in BENCHMARK.json. See ../README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
)

// gitCommit is stamped by run.sh (-ldflags -X); a checkout that is not a
// git repository leaves it unknown.
var gitCommit = "unknown"

type metricDef struct{ Name, Unit, Better string }

// endToEnd and perLayer are the metrics every workload reports, in the
// order they are printed; BENCHMARK.json lists the same names and units.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"build_s", "s", "lower"},
	{"build_peak_rss_mb", "MB", "lower"},
	{"cube_bytes_per_fact_byte", "ratio", "lower"},
	{"open_ms", "ms", "lower"},
	{"serve_peak_rss_mb", "MB", "lower"},
	{"query_qps", "ops/s", "higher"},
	{"query_conc_qps", "ops/s", "higher"},
	{"query_p99_ms", "ms", "lower"},
	{"point_qps", "ops/s", "higher"},
	{"range_qps", "ops/s", "higher"},
	{"rollup_mrows_per_s", "Mrows/s", "higher"},
}

var perLayer = []metricDef{
	{"relation.load_ms", "ms", "lower"},
	{"relation.scan_mrows_per_s", "Mrows/s", "higher"},
	{"relation.read_row_ns", "ns", "lower"},
	{"sortutil.counting_mkeys_per_s", "Mkeys/s", "higher"},
	{"sortutil.quick_mkeys_per_s", "Mkeys/s", "higher"},
	{"signature.flush_msigs_per_s", "Msigs/s", "higher"},
	{"signature.flushes", "count", "lower"},
	{"signature.cat_share", "ratio", "lower"},
	{"partition.split_s", "s", "lower"},
	{"partition.scan_mb_per_s", "MB/s", "higher"},
	{"partition.count", "count", "lower"},
	{"storage.finalize_s", "s", "lower"},
	{"storage.finalize.compact_s", "s", "lower"},
	{"storage.finalize.encode_s", "s", "lower"},
	{"storage.finalize.zone_fold_s", "s", "lower"},
	{"storage.bytes_written_per_fact_byte", "ratio", "lower"},
	{"storage.manifest_bytes", "bytes", "lower"},
	{"storage.extent_bytes", "bytes", "lower"},
	{"storage.open_reader_ms", "ms", "lower"},
	{"storage.decode_mrows_per_s", "Mrows/s", "higher"},
	{"storage.prune_us", "us", "lower"},
	{"core.load_s", "s", "lower"},
	{"core.cube_s", "s", "lower"},
	{"core.pool_flush_s", "s", "lower"},
	{"core.partition_cube_s", "s", "lower"},
	{"core.n_cube_s", "s", "lower"},
	{"core.finalize_s", "s", "lower"},
	{"core.span_coverage", "ratio", "higher"},
	{"query.slice_us", "us", "lower"},
	{"query.where_us", "us", "lower"},
	{"query.node_us", "us", "lower"},
	{"query.fact_cache.hit_rate", "ratio", "higher"},
	{"query.fact_cache.misses_per_op", "count", "lower"},
	{"query.block_cache.hit_rate", "ratio", "higher"},
	{"query.index.skip_ratio", "ratio", "higher"},
	{"query.rows_scanned_per_row_returned", "ratio", "lower"},
	{"query.bytes_read_per_op", "bytes", "lower"},
	{"query.bytes_decoded_per_op", "bytes", "lower"},
	{"update.apply_s", "s", "lower"},
	{"update.tuples_per_s", "1/s", "higher"},
	{"obsv.build_overhead_pct", "pct", "lower"},
	{"obsv.serve_overhead_pct", "pct", "lower"},
	{"host.calib_ms", "ms", "lower"},
}

type config struct {
	workload  string
	seed      int64
	seconds   float64
	trace     int
	scale     string
	traceOut  string
	report    string
	workRoot  string
	benchJSON string
	selfcheck int
	inProcess bool
	corrupt   bool
	child     string
}

func parseFlags(args []string, stderr io.Writer) (*config, error) {
	c := &config{}
	fs := flag.NewFlagSet("cubemark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&c.workload, "workload", "all", "workload to run: "+strings.Join(workloadNames, ", ")+" or all")
	fs.Int64Var(&c.seed, "seed", 1, "seed of every generated input; the only source of randomness")
	fs.Float64Var(&c.seconds, "seconds", 15, "time budget of the measured phases; builds are fixed work, serve rounds fill the rest")
	fs.IntVar(&c.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: the traced run and its per-layer metrics")
	fs.StringVar(&c.scale, "scale", "full", "full (what BENCHMARK.json measures) or smoke")
	fs.StringVar(&c.traceOut, "trace-out", "", "with -trace 1: write every span as JSON to this file")
	fs.StringVar(&c.report, "report", "", "write the full report (environment, samples) here (default <work>/../cubemark-report.json)")
	fs.StringVar(&c.workRoot, "work", filepath.Join(".bench_build", "work"), "directory for generated data and cubes")
	fs.StringVar(&c.benchJSON, "bench-json", "BENCHMARK.json", "with -selfcheck: where the bounds are read from")
	fs.IntVar(&c.selfcheck, "selfcheck", 0, "run two interleaved sets of N runs of every workload and compare them with the bounds")
	fs.BoolVar(&c.inProcess, "in-process", false, "run phases in this process instead of fresh children (profiling, tests); RSS metrics are then the process's")
	fs.BoolVar(&c.corrupt, "corrupt-oracle", false, "falsify one oracle answer; the run must then fail")
	fs.StringVar(&c.child, "child", "", "internal: run one phase described by this JSON and print its result")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if c.trace != 0 && c.trace != 1 {
		return nil, fmt.Errorf("-trace must be 0 or 1")
	}
	return c, nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		fmt.Fprintln(stderr, "cubemark:", err)
		return 2
	}
	switch {
	case cfg.child != "":
		err = childMain(cfg.child, stdout)
	case cfg.selfcheck > 0:
		err = selfcheck(cfg, stdout, stderr)
	default:
		err = benchMain(cfg, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "cubemark:", err)
		return 1
	}
	return 0
}

func childMain(reqJSON string, stdout io.Writer) error {
	var req childReq
	if err := json.Unmarshal([]byte(reqJSON), &req); err != nil {
		return err
	}
	res, err := runPhase(req)
	if err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(res)
}

// bench runs workloads from the parent process.
type bench struct {
	cfg *config
	exe string
	rec *recorder // nil unless -trace 1
}

// child runs one phase in a fresh process and returns what it measured
// together with its peak RSS; its spans are grafted under a harness span
// that covers process start and exit.
func (b *bench) child(parent int, req childReq) (*childRes, error) {
	id := b.rec.begin(parent, "harness", "child."+req.Phase)
	defer b.rec.end(id)
	res := &childRes{}
	var usage syscall.Rusage
	if req.Phase != "setup" {
		// Write back what earlier phases left dirty, so that the kernel
		// does not do it in the middle of a timed phase.
		syscall.Sync()
	}
	if b.cfg.inProcess {
		var err error
		if res, err = runPhase(req); err != nil {
			return nil, err
		}
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &usage); err != nil {
			return nil, err
		}
	} else {
		reqJSON, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		cmd := exec.Command(b.exe, "-child", string(reqJSON))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("%s child: %w", req.Phase, err)
		}
		if err := json.Unmarshal(out, res); err != nil {
			return nil, fmt.Errorf("%s child output: %w", req.Phase, err)
		}
		usage = *cmd.ProcessState.SysUsage().(*syscall.Rusage)
	}
	res.RSSMB = float64(usage.Maxrss) / 1024 // Linux reports KiB
	b.rec.adopt(id, res.Spans)
	res.Spans = nil
	return res, nil
}

// workloadReport is one workload's part of the report file.
type workloadReport struct {
	Workload    string               `json:"workload"`
	Why         string               `json:"why"`
	Metrics     map[string]float64   `json:"metrics"`
	Samples     map[string][]float64 `json:"samples"`
	Attempted   int64                `json:"attempted"`
	Failed      int64                `json:"failed"`
	Failures    []string             `json:"failures,omitempty"`
	CalibBefore float64              `json:"host_calib_ms_before"`
	CalibAfter  float64              `json:"host_calib_ms_after"`
	WallS       float64              `json:"wall_s"`
}

func (w *workloadReport) absorb(res *childRes) {
	w.Attempted += res.Attempted
	w.Failed += res.Failed
	w.Failures = append(w.Failures, res.Failures...)
}

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 3

// runWorkload measures one workload. Every directory it creates lives
// under work and is removed before it returns.
func (b *bench) runWorkload(name string) (*workloadReport, error) {
	cfg := b.cfg
	s, err := specFor(name, cfg.scale)
	if err != nil {
		return nil, err
	}
	work, err := filepath.Abs(filepath.Join(cfg.workRoot, fmt.Sprintf("%s-%d-%d", name, cfg.seed, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	w := &workloadReport{Workload: name, Why: s.why, Metrics: map[string]float64{}, Samples: map[string][]float64{}}
	// m collects every value the children report; the metrics of this
	// run's mode are picked from it at the end.
	m := map[string]float64{}
	req := childReq{Workload: name, Scale: cfg.scale, Seed: cfg.seed, Dir: work, Traced: cfg.trace == 1}
	start := time.Now()
	root := b.rec.begin(-1, "harness", "workload "+name)
	defer b.rec.end(root)

	calibID := b.rec.begin(root, "host", "host.calib")
	w.CalibBefore = calib()
	b.rec.end(calibID)

	// Set-up. The untraced run repeats it and reports the median; only
	// the last one's files are used.
	reps := setupReps
	if req.Traced {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		if err := os.RemoveAll(filepath.Join(work, "setup")); err != nil {
			return nil, err
		}
		if err := os.MkdirAll(filepath.Join(work, "setup"), 0o755); err != nil {
			return nil, err
		}
		req.Phase = "setup"
		res, err := b.child(root, req)
		if err != nil {
			return nil, err
		}
		w.Samples["setup_s"] = append(w.Samples["setup_s"], res.Values["setup_s"])
	}
	m["setup_s"] = median(w.Samples["setup_s"])
	measured := time.Now()

	// Builds, each into a fresh directory; the last one is served. In
	// the traced run only the last build has a registry, so its time over
	// the fastest of the others is what the registry costs.
	var last *childRes
	for rep := 0; rep < s.reps; rep++ {
		req.Phase, req.Rep, req.Registry = "build", rep, cfg.trace == 1 && rep == s.reps-1
		res, err := b.child(root, req)
		if err != nil {
			return nil, err
		}
		w.absorb(res)
		w.Samples["build_s"] = append(w.Samples["build_s"], res.Values["build_s"])
		w.Samples["build_peak_rss_mb"] = append(w.Samples["build_peak_rss_mb"], res.RSSMB)
		ratio := res.Values["cube_bytes"] / res.Values["fact_bytes"]
		// update.Apply merges through Go maps, so the row order inside its
		// extents, and with it their compressed size, is not repeatable;
		// the size of what core.Build writes is.
		if last != nil && s.deltaDensity == 0 && ratio != m["cube_bytes_per_fact_byte"] {
			w.Failed++
			w.Failures = append(w.Failures, fmt.Sprintf("build %d: cube_bytes_per_fact_byte %v differs from %v of the build before", rep, ratio, m["cube_bytes_per_fact_byte"]))
		}
		m["cube_bytes_per_fact_byte"] = ratio
		if last != nil {
			if err := os.RemoveAll(filepath.Join(work, fmt.Sprintf("build.%d", rep-1))); err != nil {
				return nil, err
			}
		}
		last = res
	}
	req.Cube = filepath.Join(work, fmt.Sprintf("build.%d", s.reps-1), "cube")
	for k, v := range last.Values {
		m[k] = v
	}
	m["obsv.build_overhead_pct"] = 100 * (w.Samples["build_s"][s.reps-1]/slices.Min(w.Samples["build_s"][:s.reps-1]) - 1)
	m["build_s"] = slices.Min(w.Samples["build_s"])
	m["build_peak_rss_mb"] = slices.Min(w.Samples["build_peak_rss_mb"])

	for _, phase := range []string{"open", "verify", "serve", "probes"} {
		if phase == "probes" && !req.Traced {
			continue
		}
		req.Phase, req.Corrupt = phase, phase == "verify" && cfg.corrupt
		// Serve rounds get what is left of the budget (and always run
		// their minimum).
		req.Seconds = cfg.seconds - time.Since(measured).Seconds()
		if phase == "open" {
			req.Seconds = openShare * cfg.seconds
		}
		res, err := b.child(root, req)
		if err != nil {
			return nil, err
		}
		w.absorb(res)
		for k, v := range res.Samples {
			w.Samples[k] = v
		}
		for k, v := range res.Values {
			m[k] = v
		}
		if _, ok := res.Values["serve_peak_rss_mb"]; phase == "serve" && !ok {
			m["serve_peak_rss_mb"] = res.RSSMB
		}
	}

	calibID = b.rec.begin(root, "host", "host.calib")
	w.CalibAfter = calib()
	b.rec.end(calibID)
	m["host.calib_ms"] = (w.CalibBefore + w.CalibAfter) / 2
	w.WallS = time.Since(start).Seconds()

	// Report exactly the metrics of this mode, every one of them.
	defs := endToEnd
	if req.Traced {
		defs = perLayer
	}
	for _, d := range defs {
		w.Metrics[d.Name] = m[d.Name]
	}
	return w, nil
}

// report is the file written beside the work directory.
type report struct {
	Benchmark  string            `json:"benchmark"`
	GitCommit  string            `json:"git_commit"`
	GoVersion  string            `json:"go_version"`
	NumCPU     int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Seed       int64             `json:"seed"`
	Scale      string            `json:"scale"`
	Seconds    float64           `json:"seconds"`
	Trace      int               `json:"trace"`
	Workloads  []*workloadReport `json:"workloads"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func benchMain(cfg *config, stdout io.Writer) error {
	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = workloadNames
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	b := &bench{cfg: cfg, exe: exe}
	rep := &report{Benchmark: "cubemark", GitCommit: gitCommit, GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: cfg.seed, Scale: cfg.scale, Seconds: cfg.seconds, Trace: cfg.trace}
	out := result{Correct: true, Metrics: map[string]metricValue{}}
	defs := endToEnd
	if cfg.trace == 1 {
		defs = perLayer
	}
	var spans []span
	for _, name := range names {
		if cfg.trace == 1 {
			b.rec = newRecorder(name)
		}
		w, err := b.runWorkload(name)
		if err != nil {
			return err
		}
		rep.Workloads = append(rep.Workloads, w)
		out.Attempted += w.Attempted
		out.Failed += w.Failed
		fmt.Fprintf(stdout, "workload %s  seed %d  scale %s  wall %.1f s  ops attempted %d  failed %d  host.calib_ms %.2f -> %.2f\n",
			name, cfg.seed, cfg.scale, w.WallS, w.Attempted, w.Failed, w.CalibBefore, w.CalibAfter)
		for _, f := range w.Failures {
			fmt.Fprintf(stdout, "  FAILED: %s\n", f)
		}
		for _, d := range defs {
			key := d.Name
			if len(names) > 1 {
				key = name + "/" + d.Name
			}
			out.Metrics[key] = metricValue{Value: w.Metrics[d.Name], Unit: d.Unit}
			note := ""
			if d.Name == "query_p99_ms" {
				note = fmt.Sprintf("  (%d samples per round, %d rounds)", int(w.Samples["p99_samples"][0]), len(w.Samples["mixed_s"]))
			}
			fmt.Fprintf(stdout, "  %-38s %14.4f %s%s\n", d.Name, w.Metrics[d.Name], d.Unit, note)
		}
		if b.rec != nil {
			fmt.Fprintf(stdout, "layer table of %s (self time):\n", name)
			if share := layerTable(stdout, b.rec.spans, 0); share < 0.95 || share > 1.05 {
				return fmt.Errorf("%s: layer self times add up to %.1f%% of wall time", name, 100*share)
			}
			spans = append(spans, b.rec.spans...)
		}
	}
	out.Correct = out.Failed == 0

	reportPath := cfg.report
	if reportPath == "" {
		reportPath = filepath.Join(filepath.Dir(cfg.workRoot), "cubemark-report.json")
	}
	if err := writeJSON(reportPath, rep); err != nil {
		return err
	}
	if cfg.traceOut != "" && cfg.trace == 1 {
		if err := writeJSON(cfg.traceOut, spans); err != nil {
			return err
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !out.Correct {
		return fmt.Errorf("%d of %d operations failed or answered wrongly", out.Failed, out.Attempted)
	}
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// benchmarkFile is the part of BENCHMARK.json the self-check reads.
type benchmarkFile struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	bf := &benchmarkFile{}
	return bf, json.Unmarshal(data, bf)
}

// selfcheck runs two interleaved sets of N runs of every workload with
// this same binary (run i of both sets uses seed i) and applies the
// acceptance rule to them: for each end-to-end metric the spread of a
// set (interquartile range over median) and the gap between the two
// medians must stay within the metric's bound.
func selfcheck(cfg *config, stdout, stderr io.Writer) error {
	bf, err := readBenchmarkFile(cfg.benchJSON)
	if err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = workloadNames
	}
	// values[set][workload/metric] lists one value per run.
	values := [2]map[string][]float64{{}, {}}
	for i := 1; i <= cfg.selfcheck; i++ {
		for set := 0; set < 2; set++ {
			for _, name := range names {
				cmd := exec.Command(exe, "-workload", name, "-seed", fmt.Sprint(i), "-seconds", fmt.Sprint(bf.RunSeconds),
					"-trace", "0", "-scale", cfg.scale, "-work", cfg.workRoot)
				cmd.Stderr = stderr
				outBytes, err := cmd.Output()
				if err != nil {
					return fmt.Errorf("run %d of set %c, %s: %w", i, 'A'+set, name, err)
				}
				lines := strings.Split(strings.TrimSpace(string(outBytes)), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					return err
				}
				for metric, mv := range res.Metrics {
					key := name + "/" + metric
					values[set][key] = append(values[set][key], mv.Value)
				}
				fmt.Fprintf(stderr, "selfcheck: run %d set %c %s done\n", i, 'A'+set, name)
			}
		}
	}
	fmt.Fprintf(stdout, "| workload | metric | median A | median B | gap | spread A | spread B | bound |\n|---|---|---|---|---|---|---|---|\n")
	var bad []string
	for _, name := range names {
		for _, d := range bf.EndToEnd {
			a, b := values[0][name+"/"+d.Name], values[1][name+"/"+d.Name]
			ma, mb := median(a), median(b)
			// gap > 0 means set B is worse than set A.
			gap := (mb - ma) / ma
			if d.Better == "higher" {
				gap = -gap
			}
			spread := func(xs []float64) float64 {
				if len(xs) < 2 {
					return 0
				}
				q1, q3 := quartiles(xs)
				return (q3 - q1) / median(xs)
			}
			sa, sb := spread(a), spread(b)
			fmt.Fprintf(stdout, "| %s | %s | %.4f | %.4f | %+.1f%% | %.1f%% | %.1f%% | %.0f%% |\n", name, d.Name, ma, mb, 100*gap, 100*sa, 100*sb, 100*d.Bound)
			if gap > d.Bound || (d.Name != "setup_s" && max(sa, sb) > d.Bound) {
				bad = append(bad, name+"/"+d.Name)
			}
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return fmt.Errorf("self-check failed: %s outside their bounds", strings.Join(bad, ", "))
	}
	fmt.Fprintf(stdout, "self-check passed: %d runs per set, every gap and spread within its bound\n", cfg.selfcheck)
	return nil
}
