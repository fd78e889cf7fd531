package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"cure/internal/core"
	"cure/internal/hierarchy"
	"cure/internal/relation"
)

func testHier(t *testing.T) *hierarchy.Schema {
	t.Helper()
	m := hierarchy.BuildContiguousMap(8, 2)
	a, err := hierarchy.NewLinearDim("Product", []string{"Code", "Class"}, []int32{8, 2}, [][]int32{m})
	if err != nil {
		t.Fatal(err)
	}
	hier, err := hierarchy.NewSchema(a, hierarchy.NewFlatDim("Outlet", 4))
	if err != nil {
		t.Fatal(err)
	}
	return hier
}

func TestParseLevelsErrors(t *testing.T) {
	hier := testHier(t)
	cases := []struct {
		in, want string
	}{
		{"0", "needs 2 comma-separated entries"},
		{"0,0,0", "needs 2 comma-separated entries"},
		{"Bogus,0", `dimension Product has no level "Bogus"`},
		{"0,9", `dimension Outlet has no level "9"`},
		{"-1,0", `dimension Product has no level "-1"`},
	}
	for _, tc := range cases {
		if _, err := parseLevels(hier, tc.in); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("parseLevels(%q) = %v, want error containing %q", tc.in, err, tc.want)
		}
	}
	levels, err := parseLevels(hier, "Class,ALL")
	if err != nil {
		t.Fatal(err)
	}
	if levels[0] != 1 || levels[1] != hier.Dims[1].AllLevel() {
		t.Fatalf("parseLevels(Class,ALL) = %v", levels)
	}
}

// TestLoadHierRejectsBadStepMaps: a step map must hold one code per
// member of the level below, each inside its own level's range; a bad
// one is an error naming the dimension and level, not a panic.
func TestLoadHierRejectsBadStepMaps(t *testing.T) {
	cases := []struct {
		name, product, want string
	}{
		{"short", `{"name":"Group","card":3,"map":[0,1,2]}`, `dimension "Product" level "Group": map has 3 entries, want one per Class member (5)`},
		{"out-of-range", `{"name":"Group","card":3,"map":[0,1,2,3,0]}`, `dimension "Product" level "Group": map[3] = 3 outside [0,3)`},
		{"negative", `{"name":"Group","card":3,"map":[0,-1,2,2,0]}`, `dimension "Product" level "Group": map[1] = -1 outside [0,3)`},
		{"bad-card", `{"name":"Group","card":-1}`, `dimension "Product" level "Group": card -1`},
		{"good", `{"name":"Group","card":3,"map":[0,0,1,2,2]}`, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "hier.json")
			spec := `{"dims":[{"name":"Product","levels":[{"name":"Code","card":20},{"name":"Class","card":5},` +
				tc.product + `]},{"name":"Outlet","levels":[{"name":"Store","card":4}]}]}`
			if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
				t.Fatal(err)
			}
			hier, err := loadHier(path)
			if tc.want == "" {
				if err != nil {
					t.Fatal(err)
				}
				if got := hier.Dims[0].MapCode(19, 2); got != 2 {
					t.Fatalf("Code 19 → Group %d, want 2", got)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("loadHier = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

func TestParseWhereErrors(t *testing.T) {
	hier := testHier(t)
	cases := []struct {
		in, want string
	}{
		{"Nope.Class=1", `unknown dimension "Nope"`},
		{"Product.Bogus=1", `dimension Product has no level "Bogus"`},
		{"Product.Class", "is not dim.level=lo[..hi]"},
		{"Product=3", "names no level"},
		{"Product.Class=abc", `bad code "abc"`},
		{"Product.Class=1..xyz", `bad code "xyz"`},
	}
	for _, tc := range cases {
		if _, err := parseWhere(hier, tc.in); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("parseWhere(%q) = %v, want error containing %q", tc.in, err, tc.want)
		}
	}
	preds, err := parseWhere(hier, "Product.Class=1, Outlet.0=0..2")
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 2 || preds[0].Level != 1 || preds[1].Hi != 2 {
		t.Fatalf("parseWhere = %+v", preds)
	}
	if preds2, err := parseWhere(hier, ""); err != nil || preds2 != nil {
		t.Fatalf("empty -where = %+v, %v", preds2, err)
	}
}

var (
	curectlOnce sync.Once
	curectlDir  string
	curectlBin  string
	curectlErr  error
)

// TestMain cleans up the shared curectl binary built by buildCurectl.
func TestMain(m *testing.M) {
	code := m.Run()
	if curectlDir != "" {
		os.RemoveAll(curectlDir)
	}
	os.Exit(code)
}

// buildCurectl compiles the curectl binary once per test run. The
// binary lives in a package-owned temp dir (removed in TestMain), not a
// t.TempDir, so it survives past the first test that asked for it.
func buildCurectl(t *testing.T) string {
	t.Helper()
	curectlOnce.Do(func() {
		dir, err := os.MkdirTemp("", "curectl-bin")
		if err != nil {
			curectlErr = err
			return
		}
		curectlDir = dir
		curectlBin = filepath.Join(dir, "curectl")
		out, err := exec.Command("go", "build", "-o", curectlBin, ".").CombinedOutput()
		if err != nil {
			curectlErr = err
			t.Logf("go build: %s", out)
		}
	})
	if curectlErr != nil {
		t.Fatalf("building curectl: %v", curectlErr)
	}
	return curectlBin
}

func buildTestCube(t *testing.T) string {
	t.Helper()
	hier := testHier(t)
	schema := &relation.Schema{DimNames: []string{"Product", "Outlet"}, MeasureNames: []string{"M"}}
	ft := relation.NewFactTable(schema, 64)
	for i := 0; i < 64; i++ {
		ft.Append([]int32{int32(i % 8), int32(i % 4)}, []float64{float64(i)})
	}
	dir := filepath.Join(t.TempDir(), "cube")
	if _, err := core.BuildFromTable(ft, core.Options{
		Dir: dir, Hier: hier,
		AggSpecs: []relation.AggSpec{{Func: relation.AggSum, Measure: 0}},
	}); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestCLIQueryBadInput runs the real binary: a malformed node path or
// predicate must exit non-zero with a diagnostic on stderr, and a valid
// query must exit zero.
func TestCLIQueryBadInput(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the binary")
	}
	bin := buildCurectl(t)
	cube := buildTestCube(t)

	cases := []struct {
		args   []string
		stderr string
	}{
		{[]string{"query", "-cube", cube, "-levels", "Bogus,0"}, "has no level"},
		{[]string{"query", "-cube", cube, "-levels", "0"}, "needs 2 comma-separated entries"},
		{[]string{"query", "-cube", cube, "-levels", "0,0", "-where", "Nope.Class=1"}, "unknown dimension"},
		{[]string{"query", "-cube", cube, "-levels", "0,0", "-where", "Product.Class=abc"}, "bad code"},
		{[]string{"explain", "-cube", cube, "-levels", "0,0", "-where", "garbage"}, "-where"},
	}
	for _, tc := range cases {
		cmd := exec.Command(bin, tc.args...)
		var stderr strings.Builder
		cmd.Stderr = &stderr
		err := cmd.Run()
		if err == nil {
			t.Errorf("curectl %v exited zero on bad input", tc.args)
			continue
		}
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() == 0 {
			t.Errorf("curectl %v: %v", tc.args, err)
		}
		if !strings.Contains(stderr.String(), "curectl: ") || !strings.Contains(stderr.String(), tc.stderr) {
			t.Errorf("curectl %v stderr = %q, want it to contain %q", tc.args, stderr.String(), tc.stderr)
		}
	}

	// The happy paths still exit zero.
	for _, args := range [][]string{
		{"query", "-cube", cube, "-levels", "0,0", "-where", "Product.Class=1"},
		{"explain", "-cube", cube, "-levels", "0,0", "-where", "Product.Class=1", "-analyze"},
	} {
		out, err := exec.Command(bin, args...).CombinedOutput()
		if err != nil {
			t.Errorf("curectl %v failed: %v\n%s", args, err, out)
		}
	}
}

// TestCLIInspectFootprint runs the real binary: "cube bytes on disk" is
// the whole directory — manifest and hierarchy sidecar included, the fact
// table that BuildFromTable put there and the finalize sidecar not — and
// the finalize summary splits the extent passes four ways.
func TestCLIInspectFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the binary")
	}
	bin := buildCurectl(t)
	cube := buildTestCube(t)
	out, err := exec.Command(bin, "inspect", cube).Output()
	if err != nil {
		t.Fatalf("curectl inspect: %v", err)
	}
	var want int64
	for _, name := range []string{"nt.bin", "tt.bin", "cat.bin", "agg.bin", "hier.gob", "manifest.json"} {
		fi, err := os.Stat(filepath.Join(cube, name))
		if err != nil {
			t.Fatal(err)
		}
		want += fi.Size()
	}
	var onDisk, extents int64
	for _, line := range strings.Split(string(out), "\n") {
		fmt.Sscanf(line, "cube bytes on disk: %d (extents %d)", &onDisk, &extents)
	}
	if onDisk != want || extents <= 0 || extents >= onDisk {
		t.Errorf("cube bytes on disk = %d (extents %d), want %d for the directory\n%s", onDisk, extents, want, out)
	}
	for _, s := range []string{"seal logs", "extent passes", "commit", "gather+transform", "encode", "zone fold", "write"} {
		if !strings.Contains(string(out), s) {
			t.Errorf("inspect output lacks %q:\n%s", s, out)
		}
	}
}
