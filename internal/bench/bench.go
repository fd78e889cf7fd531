// Package bench regenerates every table and figure of the paper's
// evaluation (§7). Each experiment builds its datasets with internal/gen,
// runs the methods under comparison (BUC, BU-BST, and the CURE variants),
// and reports the same rows/series the paper plots. Dataset sizes are
// scaled down by default so the whole suite runs on a laptop; the scale
// is recorded in each result so shapes — who wins, by what factor, where
// crossovers fall — can be compared against the paper's absolute-scale
// graphs.
//
// The package answers "does this engine reproduce the paper's exhibits?"
// and nothing else: its timings are single unchecked runs and gate
// nothing. "Did a change make the engine faster or slower?" is answered
// by benchmarks/cubemark (BENCHMARK.json), whose every answer is checked
// against a brute-force oracle and whose run-to-run noise is measured.
package bench

import (
	"fmt"
	"os"
	"sort"
	"strings"

	"cure/internal/obsv"
)

// Config controls experiment scale.
type Config struct {
	// Scale multiplies dataset sizes relative to the paper (1 = paper
	// scale). The default 0.02 keeps the full suite in the minutes
	// range.
	Scale float64
	// APBDensities are the APB-1 density factors for Figures 23–24
	// (paper: 0.4, 4, 40). The defaults are 100× smaller.
	APBDensities []float64
	// MemoryBudget (bytes) is CURE's memory budget for the APB builds;
	// it decides which densities run out-of-core.
	MemoryBudget int64
	// Queries is the node-query workload size (paper: 1,000).
	Queries int
	// WorkDir is scratch space; a temp dir is created when empty.
	WorkDir string
	// Seed makes every dataset and workload deterministic.
	Seed int64
	// MaxDims bounds the dimensionality sweep of Figures 19–20
	// (paper: 28). BUC is always stopped at 12 — without trivial-tuple
	// pruning its complete-cube output grows as 2^D.
	MaxDims int
	// Parallelism is passed to every CURE build the harness runs (0/1 =
	// sequential, the paper's setting).
	Parallelism int
	// Metrics, when set, is the registry the harness instruments its
	// builds with (so a caller can dump cumulative counters afterwards);
	// by default the harness creates a private one.
	Metrics *obsv.Registry
}

// DefaultConfig returns the laptop-scale configuration.
func DefaultConfig() Config {
	return Config{
		Scale:        0.02,
		APBDensities: []float64{0.004, 0.04, 0.4},
		MemoryBudget: 32 << 20,
		Queries:      1000,
		Seed:         1,
		MaxDims:      16,
	}
}

// Result is one regenerated table or figure.
type Result struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a formatted row.
func (r *Result) AddRow(cells ...string) { r.Rows = append(r.Rows, cells) }

// String renders the result as an aligned text table.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(r.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Harness runs experiments, caching shared builds within a process (the
// three real-dataset figures share one set of cubes, and so on).
type Harness struct {
	cfg     Config
	tempDir string
	cache   map[string]map[string]*Result // group → id → result
	// reg instruments every build the harness runs.
	reg *obsv.Registry
}

// New creates a harness; zero-value Config fields fall back to defaults.
func New(cfg Config) (*Harness, error) {
	def := DefaultConfig()
	if cfg.Scale <= 0 {
		cfg.Scale = def.Scale
	}
	if len(cfg.APBDensities) == 0 {
		cfg.APBDensities = def.APBDensities
	}
	if cfg.MemoryBudget <= 0 {
		cfg.MemoryBudget = def.MemoryBudget
	}
	if cfg.Queries <= 0 {
		cfg.Queries = def.Queries
	}
	if cfg.Seed == 0 {
		cfg.Seed = def.Seed
	}
	if cfg.MaxDims <= 0 {
		cfg.MaxDims = def.MaxDims
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obsv.NewRegistry()
	}
	h := &Harness{
		cfg:   cfg,
		cache: map[string]map[string]*Result{},
		reg:   reg,
	}
	if cfg.WorkDir == "" {
		dir, err := os.MkdirTemp("", "curebench")
		if err != nil {
			return nil, err
		}
		h.tempDir = dir
		h.cfg.WorkDir = dir
	}
	return h, nil
}

// Close removes scratch space the harness created.
func (h *Harness) Close() {
	if h.tempDir != "" {
		os.RemoveAll(h.tempDir)
	}
}

// experiment maps an id to its group runner. A group computes several
// figures in one pass (they share builds).
type experiment struct {
	group string
	title string
	run   func(h *Harness) (map[string]*Result, error)
}

func (h *Harness) experiments() map[string]experiment {
	return map[string]experiment{
		"table1":          {"table1", "Partitioning feasibility (Table 1)", (*Harness).runTable1},
		"fig14":           {"real", "Real datasets: construction time", (*Harness).runReal},
		"fig15":           {"real", "Real datasets: storage space", (*Harness).runReal},
		"fig16":           {"real", "Real datasets: average query response time", (*Harness).runReal},
		"fig17":           {"real", "Effect of caching on average QRT", (*Harness).runReal},
		"fig18":           {"pool", "Signature-pool size vs cube size", (*Harness).runPool},
		"fig19":           {"dims", "Dimensionality vs construction time", (*Harness).runDims},
		"fig20":           {"dims", "Dimensionality vs storage space", (*Harness).runDims},
		"fig21":           {"skew", "Skew vs construction time", (*Harness).runSkew},
		"fig22":           {"skew", "Skew vs storage space", (*Harness).runSkew},
		"fig23":           {"apb", "APB-1: construction time", (*Harness).runAPB},
		"fig24":           {"apb", "APB-1: storage space", (*Harness).runAPB},
		"fig25":           {"apbq", "APB-1: average QRT by result size", (*Harness).runAPBQuery},
		"fig26":           {"flathier", "Flat vs hierarchical: construction time", (*Harness).runFlatHier},
		"fig27":           {"flathier", "Flat vs hierarchical: storage space", (*Harness).runFlatHier},
		"fig28":           {"flathier", "Flat vs hierarchical: roll-up/drill-down QRT", (*Harness).runFlatHier},
		"iceberg":         {"iceberg", "Iceberg count queries (§7 closing remark)", (*Harness).runIceberg},
		"ablation-sort":   {"ablation-sort", "CountingSort vs QuickSort under skew", (*Harness).runSortAblation},
		"ablation-height": {"ablation-height", "Tallest plan (P3) vs shortest plan (P2)", (*Harness).runHeightAblation},
		"ablation-plan":   {"ablation-plan", "Shared hierarchical plan vs independent sub-cubes", (*Harness).runPlanAblation},
	}
}

// IDs lists all experiment ids in a stable order.
func (h *Harness) IDs() []string {
	exps := h.experiments()
	ids := make([]string, 0, len(exps))
	for id := range exps {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Run executes (or retrieves from cache) the experiment with the given id.
func (h *Harness) Run(id string) (*Result, error) {
	exp, ok := h.experiments()[id]
	if !ok {
		return nil, fmt.Errorf("bench: unknown experiment %q (have %s)", id, strings.Join(h.IDs(), ", "))
	}
	if group, ok := h.cache[exp.group]; ok {
		if res, ok := group[id]; ok {
			return res, nil
		}
	}
	results, err := exp.run(h)
	if err != nil {
		return nil, fmt.Errorf("bench: %s: %w", id, err)
	}
	h.cache[exp.group] = results
	res, ok := results[id]
	if !ok {
		return nil, fmt.Errorf("bench: group %s did not produce %s", exp.group, id)
	}
	return res, nil
}

// Formatting helpers shared by the experiment files.

func fmtDur(sec float64) string {
	switch {
	case sec < 0.001:
		return fmt.Sprintf("%.0fµs", sec*1e6)
	case sec < 1:
		return fmt.Sprintf("%.1fms", sec*1e3)
	case sec < 120:
		return fmt.Sprintf("%.2fs", sec)
	default:
		return fmt.Sprintf("%.1fmin", sec/60)
	}
}

func fmtBytes(b int64) string {
	switch {
	case b < 1<<10:
		return fmt.Sprintf("%dB", b)
	case b < 1<<20:
		return fmt.Sprintf("%.1fKB", float64(b)/(1<<10))
	case b < 1<<30:
		return fmt.Sprintf("%.1fMB", float64(b)/(1<<20))
	default:
		return fmt.Sprintf("%.2fGB", float64(b)/(1<<30))
	}
}

func fmtCount(n int64) string {
	s := fmt.Sprintf("%d", n)
	var out []byte
	for i, c := range []byte(s) {
		if i > 0 && (len(s)-i)%3 == 0 && c != '-' {
			out = append(out, ',')
		}
		out = append(out, c)
	}
	return string(out)
}

// Markdown renders the result as a GitHub-flavored markdown table,
// used to generate EXPERIMENTS.md.
func (r *Result) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", r.ID, r.Title)
	b.WriteString("| " + strings.Join(r.Header, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat("---|", len(r.Header)) + "\n")
	for _, row := range r.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "\n*%s*\n", n)
	}
	return b.String()
}
