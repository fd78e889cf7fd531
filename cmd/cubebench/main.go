// Command cubebench regenerates the paper's tables and figures.
//
//	cubebench -exp fig14            # one experiment
//	cubebench -exp all              # the whole evaluation section
//	cubebench -exp fig23 -scale 0.1 -densities 0.04,0.4,4
//
// Dataset sizes are scaled down by default (see -scale); every result
// records its scale so shapes can be compared against the paper.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"cure/internal/bench"
	"cure/internal/obsv"
)

func main() {
	var (
		exp       = flag.String("exp", "all", "experiment id (table1, fig14..fig28, iceberg, ablation-sort, ablation-plan) or 'all'")
		scale     = flag.Float64("scale", 0, "dataset scale relative to the paper (default 0.02)")
		densities = flag.String("densities", "", "comma-separated APB-1 densities (default 0.004,0.04,0.4; paper: 0.4,4,40)")
		mem       = flag.Int64("mem", 0, "CURE memory budget in bytes for APB builds (default 32 MiB)")
		queries   = flag.Int("queries", 0, "node-query workload size (default 1000)")
		seed      = flag.Int64("seed", 0, "random seed (default 1)")
		maxDims   = flag.Int("maxdims", 0, "upper end of the dimensionality sweep (default 16; paper: 28)")
		par       = flag.Int("parallelism", 0, "worker count for every CURE build (0/1 = sequential; parallel-speedup sweeps its own counts)")
		noIndex   = flag.Bool("no-index", false, "restrict query-throughput to its full-scan arms (zone-map ablation)")
		workDir   = flag.String("workdir", "", "scratch directory (default: a temp dir, removed on exit)")
		list      = flag.Bool("list", false, "list experiment ids and exit")
		format    = flag.String("format", "text", "output format: text | md | json")
		baseline  = flag.String("baseline", "", "bench JSON file (from -format json) to compare per-phase wall times against")
		regFail   = flag.Bool("regress-fail", false, "exit non-zero when the -baseline comparison flags regressions (default: report only)")
		regThresh = flag.Float64("regress-threshold", 0.20, "per-phase wall-time growth fraction the -baseline gate flags")
	)
	obs := obsv.RegisterFlags(flag.CommandLine)
	flag.Parse()

	cfg := bench.Config{
		Scale:        *scale,
		MemoryBudget: *mem,
		Queries:      *queries,
		Seed:         *seed,
		MaxDims:      *maxDims,
		Parallelism:  *par,
		NoIndex:      *noIndex,
		WorkDir:      *workDir,
		Metrics:      obs.Registry(),
	}
	if *densities != "" {
		for _, part := range strings.Split(*densities, ",") {
			d, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
			if err != nil {
				fatalf("bad density %q: %v", part, err)
			}
			cfg.APBDensities = append(cfg.APBDensities, d)
		}
	}
	h, err := bench.New(cfg)
	if err != nil {
		fatalf("%v", err)
	}
	defer h.Close()

	if *list {
		for _, id := range h.IDs() {
			fmt.Println(id)
		}
		return
	}
	if err := obs.Start(os.Stderr); err != nil {
		fatalf("%v", err)
	}
	defer func() {
		if err := obs.Finish(); err != nil {
			fatalf("%v", err)
		}
	}()
	render := func(r *bench.Result) string {
		switch *format {
		case "md":
			return r.Markdown()
		case "json":
			return r.JSON()
		default:
			return r.String()
		}
	}
	ids := strings.Split(*exp, ",")
	if *exp == "all" {
		ids = h.IDs()
	}
	// Stream each result as its group completes; the whole suite can
	// take tens of minutes at larger scales.
	var results []*bench.Result
	for _, id := range ids {
		r, err := h.Run(strings.TrimSpace(id))
		if err != nil {
			fatalf("%v", err)
		}
		results = append(results, r)
		fmt.Println(render(r))
	}
	if *baseline != "" {
		base, err := bench.LoadResults(*baseline)
		if err != nil {
			fatalf("%v", err)
		}
		regs := bench.CompareRuns(base, results, *regThresh)
		fmt.Fprintln(os.Stderr, bench.CompareReport(regs, *regThresh))
		if len(regs) > 0 && *regFail {
			// os.Exit skips the deferred cleanup; run it by hand.
			h.Close()
			if err := obs.Finish(); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
			os.Exit(1)
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "cubebench: "+format+"\n", args...)
	os.Exit(1)
}
