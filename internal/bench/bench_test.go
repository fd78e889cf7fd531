package bench

import (
	"strings"
	"testing"
	"time"
)

// tinyConfig keeps the whole suite in the seconds range for CI.
func tinyConfig() Config {
	return Config{
		Scale:        0.002,
		APBDensities: []float64{0.0005, 0.002},
		MemoryBudget: 1 << 20,
		Queries:      40,
		Seed:         1,
		MaxDims:      12,
	}
}

func TestResultRendering(t *testing.T) {
	r := &Result{ID: "x", Title: "demo", Header: []string{"a", "bb"}, Notes: []string{"n"}}
	r.AddRow("1", "2")
	s := r.String()
	for _, want := range []string{"== x: demo ==", "a", "bb", "note: n"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendering missing %q in:\n%s", want, s)
		}
	}
}

func TestFormattingHelpers(t *testing.T) {
	if got := fmtDur(0.0000005); got != "1µs" && got != "0µs" {
		t.Errorf("fmtDur micro = %q", got)
	}
	if got := fmtDur(0.5); got != "500.0ms" {
		t.Errorf("fmtDur ms = %q", got)
	}
	if got := fmtDur(2.5); got != "2.50s" {
		t.Errorf("fmtDur s = %q", got)
	}
	if got := fmtDur(300); got != "5.0min" {
		t.Errorf("fmtDur min = %q", got)
	}
	if got := fmtBytes(512); got != "512B" {
		t.Errorf("fmtBytes B = %q", got)
	}
	if got := fmtBytes(1536); got != "1.5KB" {
		t.Errorf("fmtBytes KB = %q", got)
	}
	if got := fmtBytes(3 << 20); got != "3.0MB" {
		t.Errorf("fmtBytes MB = %q", got)
	}
	if got := fmtBytes(3 << 30); got != "3.00GB" {
		t.Errorf("fmtBytes GB = %q", got)
	}
	if got := fmtCount(1234567); got != "1,234,567" {
		t.Errorf("fmtCount = %q", got)
	}
	if got := fmtCount(12); got != "12" {
		t.Errorf("fmtCount small = %q", got)
	}
}

func TestUnknownExperiment(t *testing.T) {
	h, err := New(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if _, err := h.Run("fig99"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestTable1(t *testing.T) {
	h, err := New(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	res, err := h.Run("table1")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Paper's Table 1: L = economic_strength (level 2) at 10 GB, brand
	// (level 1) at 100 GB and 1 TB.
	if res.Rows[0][1] != "economic_strength" || res.Rows[1][1] != "brand" || res.Rows[2][1] != "brand" {
		t.Errorf("levels = %v %v %v", res.Rows[0][1], res.Rows[1][1], res.Rows[2][1])
	}
	if res.Rows[0][2] != "10" || res.Rows[1][2] != "100" || res.Rows[2][2] != "1,000" {
		t.Errorf("partition counts = %v %v %v", res.Rows[0][2], res.Rows[1][2], res.Rows[2][2])
	}
}

func TestRealGroupAndCaching(t *testing.T) {
	if testing.Short() {
		t.Skip("bench experiments in -short mode")
	}
	h, err := New(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	start := time.Now()
	f14, err := h.Run("fig14")
	if err != nil {
		t.Fatal(err)
	}
	firstRun := time.Since(start)
	if len(f14.Rows) != 2 {
		t.Fatalf("fig14 rows = %d", len(f14.Rows))
	}
	// The group is cached: fig15–17 must come back instantly.
	start = time.Now()
	for _, id := range []string{"fig15", "fig16", "fig17"} {
		res, err := h.Run(id)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) == 0 {
			t.Errorf("%s has no rows", id)
		}
	}
	if cached := time.Since(start); cached > firstRun && cached > time.Second {
		t.Errorf("cached group reruns took %v (first run %v)", cached, firstRun)
	}
}

func TestSynthAndExtraGroups(t *testing.T) {
	if testing.Short() {
		t.Skip("bench experiments in -short mode")
	}
	h, err := New(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	for _, tc := range []struct {
		id      string
		minRows int
	}{
		{"fig19", 2}, // D = 8, 12 at MaxDims = 12
		{"fig21", 6}, // Z = 0 … 2 in steps of 0.4
		{"ablation-sort", 3},
	} {
		res, err := h.Run(tc.id)
		if err != nil {
			t.Fatalf("%s: %v", tc.id, err)
		}
		if len(res.Rows) < tc.minRows {
			t.Errorf("%s rows = %d, want ≥ %d", tc.id, len(res.Rows), tc.minRows)
		}
	}
}

func TestAPBGroups(t *testing.T) {
	if testing.Short() {
		t.Skip("bench experiments in -short mode")
	}
	h, err := New(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	f23, err := h.Run("fig23")
	if err != nil {
		t.Fatal(err)
	}
	if len(f23.Rows) != 2 {
		t.Fatalf("fig23 rows = %d", len(f23.Rows))
	}
	// The second density (0.002 → ~24.8K tuples ≈ 694KB) exceeds half
	// the 1 MiB budget, so it must run out-of-core.
	if !strings.Contains(f23.Rows[1][2], "out-of-core") {
		t.Errorf("high density did not partition: %v", f23.Rows[1])
	}
	f25, err := h.Run("fig25")
	if err != nil {
		t.Fatal(err)
	}
	if len(f25.Rows) != 10 {
		t.Errorf("fig25 rows = %d, want 10 deciles", len(f25.Rows))
	}
	for _, id := range []string{"fig26", "fig27", "fig28", "iceberg"} {
		res, err := h.Run(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(res.Rows) == 0 {
			t.Errorf("%s has no rows", id)
		}
	}
}

func TestPlanAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("bench experiments in -short mode")
	}
	h, err := New(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	res, err := h.Run("ablation-plan")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// 6·2·3·1 = 36 independent runs.
	if res.Rows[1][1] != "36" {
		t.Errorf("combo count = %v", res.Rows[1][1])
	}
}

func TestHeightAblationExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("bench experiments in -short mode")
	}
	h, err := New(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	hgt, err := h.Run("ablation-height")
	if err != nil {
		t.Fatal(err)
	}
	if len(hgt.Rows) != 2 {
		t.Fatalf("height rows = %d", len(hgt.Rows))
	}
}

func TestMarkdownRendering(t *testing.T) {
	r := &Result{ID: "x", Title: "demo", Header: []string{"a", "b"}, Notes: []string{"n"}}
	r.AddRow("1", "2")
	md := r.Markdown()
	for _, want := range []string{"### x — demo", "| a | b |", "| 1 | 2 |", "*n*"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q in:\n%s", want, md)
		}
	}
}
