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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"cure/internal/bench"
	"cure/internal/obsv"
)

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return // -h already printed the usage
	}
	fmt.Fprintf(os.Stderr, "cubebench: %v\n", err)
	os.Exit(1)
}

// run is the whole command; main is the only os.Exit, so the harness
// scratch dir is removed and the observability sinks are flushed on
// every return path.
func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("cubebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp       = fs.String("exp", "all", "experiment id (table1, fig14..fig28, iceberg, ablation-sort, ablation-height, ablation-plan) or 'all'")
		scale     = fs.Float64("scale", 0, "dataset scale relative to the paper (default 0.02)")
		densities = fs.String("densities", "", "comma-separated APB-1 densities (default 0.004,0.04,0.4; paper: 0.4,4,40)")
		mem       = fs.Int64("mem", 0, "CURE memory budget in bytes for APB builds (default 32 MiB)")
		queries   = fs.Int("queries", 0, "node-query workload size (default 1000)")
		seed      = fs.Int64("seed", 0, "random seed (default 1)")
		maxDims   = fs.Int("maxdims", 0, "upper end of the dimensionality sweep (default 16; paper: 28)")
		par       = fs.Int("parallelism", 0, "worker count for every CURE build (0/1 = sequential, the paper's setting)")
		workDir   = fs.String("workdir", "", "scratch directory (default: a temp dir, removed on exit)")
		list      = fs.Bool("list", false, "list experiment ids and exit")
		format    = fs.String("format", "text", "output format: text | md")
	)
	obs := obsv.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var render func(*bench.Result) string
	switch *format {
	case "text":
		render = (*bench.Result).String
	case "md":
		render = (*bench.Result).Markdown
	default:
		return fmt.Errorf("unknown -format %q (have text, md)", *format)
	}

	cfg := bench.Config{
		Scale:        *scale,
		MemoryBudget: *mem,
		Queries:      *queries,
		Seed:         *seed,
		MaxDims:      *maxDims,
		Parallelism:  *par,
		WorkDir:      *workDir,
		Metrics:      obs.Registry(),
	}
	if *densities != "" {
		for _, part := range strings.Split(*densities, ",") {
			d, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
			if err != nil {
				return fmt.Errorf("bad density %q: %w", part, err)
			}
			cfg.APBDensities = append(cfg.APBDensities, d)
		}
	}
	h, err := bench.New(cfg)
	if err != nil {
		return err
	}
	defer h.Close()

	if *list {
		for _, id := range h.IDs() {
			fmt.Fprintln(stdout, id)
		}
		return nil
	}
	if err := obs.Start(stderr); err != nil {
		return err
	}
	defer func() {
		if ferr := obs.Finish(); ferr != nil && err == nil {
			err = ferr
		}
	}()
	ids := strings.Split(*exp, ",")
	if *exp == "all" {
		ids = h.IDs()
	}
	// Stream each result as its group completes; the whole suite can
	// take tens of minutes at larger scales.
	for _, id := range ids {
		r, err := h.Run(strings.TrimSpace(id))
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, render(r))
	}
	return nil
}
