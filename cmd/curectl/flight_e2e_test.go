package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"cure/internal/relation"
)

// writeTestFact writes a small fact file plus its hierarchy spec for
// end-to-end build runs: Product Code(8)→Class(2), Outlet(4), 64 rows.
func writeTestFact(t *testing.T, dir string) (factPath, hierPath string) {
	t.Helper()
	schema := &relation.Schema{DimNames: []string{"Product", "Outlet"}, MeasureNames: []string{"M"}}
	ft := relation.NewFactTable(schema, 64)
	for i := 0; i < 64; i++ {
		ft.Append([]int32{int32(i % 8), int32(i % 4)}, []float64{float64(i)})
	}
	factPath = filepath.Join(dir, "fact.bin")
	if err := relation.WriteFactFile(factPath, ft); err != nil {
		t.Fatal(err)
	}
	hierPath = filepath.Join(dir, "hier.json")
	spec := `{"dims":[` +
		`{"name":"Product","levels":[{"name":"Code","card":8},{"name":"Class","card":2}]},` +
		`{"name":"Outlet","levels":[{"name":"Outlet","card":4}]}]}`
	if err := os.WriteFile(hierPath, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	return factPath, hierPath
}

// TestFlightBundleOnWorkerPanic crashes a real parallel partitioned
// build through the production panic path (CURE_TEST_PANIC=worker makes
// the first cube task panic; the -mem budget makes the build partition,
// so its cube tasks run on workers) and checks the whole flight-recorder
// loop:
// the process dies naming the node path and the bundle it wrote, the
// bundle is complete on disk, and `curectl doctor` parses it back into
// a report that names the panicking worker's node path.
func TestFlightBundleOnWorkerPanic(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the binary")
	}
	bin := buildCurectl(t)
	dir := t.TempDir()
	fact, hier := writeTestFact(t, dir)
	flightDir := filepath.Join(dir, "flight")

	cmd := exec.Command(bin, "build",
		"-fact", fact, "-hier", hier, "-out", filepath.Join(dir, "cube"),
		"-mem", "1500", "-parallelism", "2", "-flight-dir", flightDir)
	cmd.Env = append(os.Environ(), "CURE_TEST_PANIC=worker")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("build with injected worker panic exited zero:\n%s", out)
	}
	for _, want := range []string{"panic in cube worker", "node=Product.", "diagnostic bundle: "} {
		if !strings.Contains(string(out), want) {
			t.Errorf("crash output missing %q:\n%s", want, out)
		}
	}

	entries, err := os.ReadDir(flightDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || !strings.HasSuffix(entries[0].Name(), "-panic") {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("flight dir holds %v, want exactly one bundle-*-panic", names)
	}
	bundleDir := filepath.Join(flightDir, entries[0].Name())
	for _, name := range []string{
		"bundle.json", "metrics.json", "history.json",
		"queries.json", "goroutines.txt", "heap.pprof", "stack.txt",
	} {
		if _, err := os.Stat(filepath.Join(bundleDir, name)); err != nil {
			t.Errorf("bundle member %s missing: %v", name, err)
		}
	}

	docOut, err := exec.Command(bin, "doctor", flightDir).CombinedOutput()
	if err != nil {
		t.Fatalf("curectl doctor failed: %v\n%s", err, docOut)
	}
	for _, want := range []string{
		"INCIDENT REPORT",
		"reason  panic",
		"cube worker",
		"node=Product.",
		"injected test panic",
		"## Memory trajectory",
		"## Panic stack",
	} {
		if !strings.Contains(string(docOut), want) {
			t.Errorf("doctor report missing %q:\n%s", want, docOut)
		}
	}
}

// TestDoctorBadArgs pins the CLI contract: bad input exits non-zero
// with a curectl-prefixed diagnostic.
func TestDoctorBadArgs(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the binary")
	}
	bin := buildCurectl(t)
	out, err := exec.Command(bin, "doctor", filepath.Join(t.TempDir(), "nope")).CombinedOutput()
	if err == nil {
		t.Fatalf("doctor on a missing path exited zero:\n%s", out)
	}
	if !strings.Contains(string(out), "curectl: doctor:") {
		t.Fatalf("doctor stderr = %q", out)
	}
}
