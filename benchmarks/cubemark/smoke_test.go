package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// smokeRun runs cubemark in this process at smoke scale and returns its
// exit code and the result printed on the last line.
func smokeRun(t *testing.T, args ...string) (int, result) {
	t.Helper()
	work := t.TempDir()
	var stdout, stderr bytes.Buffer
	code := run(append([]string{"-scale", "smoke", "-in-process", "-seconds", "0.2", "-work", filepath.Join(work, "w")}, args...), &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\nstdout: %s\nstderr: %s", err, stdout.String(), stderr.String())
	}
	return code, res
}

// TestSmokeEmitsEveryMetric runs all four workloads in both modes and
// holds the output against BENCHMARK.json: every metric once per
// workload, finite, with its declared unit, and nothing else.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	bf, err := readBenchmarkFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, cubemark runs %d", len(bf.Workloads), len(workloadNames))
	}
	units := [2]map[string]string{{}, {}}
	for _, d := range bf.EndToEnd {
		units[0][d.Name] = d.Unit
	}
	for _, d := range bf.PerLayer {
		units[1][d.Name] = d.Unit
	}
	for trace, want := range units {
		code, res := smokeRun(t, "-workload", "all", "-trace", []string{"0", "1"}[trace])
		if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Fatalf("trace %d: exit %d, result %+v", trace, code, res)
		}
		if len(res.Metrics) != len(want)*len(bf.Workloads) {
			t.Errorf("trace %d: %d metrics printed, want %d per workload", trace, len(res.Metrics), len(want))
		}
		for _, w := range bf.Workloads {
			for name, unit := range want {
				got, ok := res.Metrics[w.Name+"/"+name]
				switch {
				case !ok:
					t.Errorf("trace %d: %s does not report %s", trace, w.Name, name)
				case got.Unit != unit:
					t.Errorf("%s/%s has unit %q, BENCHMARK.json says %q", w.Name, name, got.Unit, unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s/%s = %v", w.Name, name, got.Value)
				case trace == 0 && got.Value <= 0:
					t.Errorf("%s/%s = %v, an end-to-end metric is never 0", w.Name, name, got.Value)
				case strings.HasPrefix(name, "partition.") && w.Name != "apb-outofcore" && got.Value != 0:
					t.Errorf("%s/%s = %v, only apb-outofcore partitions", w.Name, name, got.Value)
				}
			}
		}
	}
}

// setupFiles runs the set-up phase and returns the op lists and fact
// file it wrote.
func setupFiles(t *testing.T, workload string, seed int64) (plan, fact []byte) {
	t.Helper()
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "setup"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := runPhase(childReq{Phase: "setup", Workload: workload, Scale: "smoke", Seed: seed, Dir: dir}); err != nil {
		t.Fatal(err)
	}
	plan, err := os.ReadFile(filepath.Join(dir, "setup", "plan.gob"))
	if err != nil {
		t.Fatal(err)
	}
	if fact, err = os.ReadFile(filepath.Join(dir, "setup", "fact.bin")); err != nil {
		t.Fatal(err)
	}
	return plan, fact
}

// TestSeedIsTheOnlyRandomness: the same seed gives byte-identical inputs
// and the same cube size, another seed gives other inputs.
func TestSeedIsTheOnlyRandomness(t *testing.T) {
	plan1, fact1 := setupFiles(t, "apb-inmem", 1)
	plan1b, fact1b := setupFiles(t, "apb-inmem", 1)
	plan2, fact2 := setupFiles(t, "apb-inmem", 2)
	if !bytes.Equal(plan1, plan1b) || !bytes.Equal(fact1, fact1b) {
		t.Error("seed 1 produced different op lists or fact rows the second time")
	}
	if bytes.Equal(plan1, plan2) || bytes.Equal(fact1, fact2) {
		t.Error("seed 2 produced the op lists or fact rows of seed 1")
	}
	ratio := func(seed string) float64 {
		code, res := smokeRun(t, "-workload", "dense-flat", "-seed", seed)
		if code != 0 {
			t.Fatalf("seed %s: exit %d", seed, code)
		}
		return res.Metrics["cube_bytes_per_fact_byte"].Value
	}
	if a, b := ratio("1"), ratio("1"); a != b {
		t.Errorf("cube_bytes_per_fact_byte of seed 1: %v, then %v", a, b)
	}
}

// TestWrongOracleAnswerFails: one falsified oracle answer must fail the
// run and say so in the result.
func TestWrongOracleAnswerFails(t *testing.T) {
	code, res := smokeRun(t, "-workload", "dense-flat", "-corrupt-oracle")
	if code == 0 || res.Correct || res.Failed == 0 {
		t.Errorf("exit %d, result correct=%v failed=%d; want a failure", code, res.Correct, res.Failed)
	}
}
