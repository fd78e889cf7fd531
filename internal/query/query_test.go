package query

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"cure/internal/core"
	"cure/internal/hierarchy"
	"cure/internal/lattice"
	"cure/internal/obsv"
	"cure/internal/relation"
)

// buildTestCube builds a small hierarchical cube, modified by mods, and
// returns its directory.
func buildTestCube(t *testing.T, mods ...func(*core.Options)) (string, *hierarchy.Schema, *relation.FactTable) {
	t.Helper()
	m := hierarchy.BuildContiguousMap(10, 5)
	a, err := hierarchy.NewLinearDim("A", []string{"A0", "A1"}, []int32{10, 5}, [][]int32{m})
	if err != nil {
		t.Fatal(err)
	}
	hier, err := hierarchy.NewSchema(a, hierarchy.NewFlatDim("B", 4))
	if err != nil {
		t.Fatal(err)
	}
	schema := &relation.Schema{DimNames: []string{"A", "B"}, MeasureNames: []string{"M"}}
	// 3,000 rows span ~12 cache pages, enough for partial-cache tests to
	// exercise LRU eviction.
	const rows = 3000
	ft := relation.NewFactTable(schema, rows)
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < rows; i++ {
		ft.Append([]int32{int32(rng.Intn(10)), int32(rng.Intn(4))}, []float64{float64(rng.Intn(7))})
	}
	dir := t.TempDir()
	cubeDir := filepath.Join(dir, "cube")
	opts := core.Options{
		Dir:  cubeDir,
		Hier: hier,
		AggSpecs: []relation.AggSpec{
			{Func: relation.AggSum, Measure: 0},
			{Func: relation.AggCount},
		},
	}
	for _, mod := range mods {
		mod(&opts)
	}
	if _, err = core.BuildFromTable(ft, opts); err != nil {
		t.Fatal(err)
	}
	return cubeDir, hier, ft
}

func TestOpenErrors(t *testing.T) {
	if _, err := Open(t.TempDir(), Options{}); err == nil {
		t.Error("empty dir opened")
	}
}

// checkSpec holds the engine's answer to s to the brute-force one over
// ft, the cube's fact table (Verify's verifySpec), and returns the number
// of tuples the answer held.
func checkSpec(t *testing.T, eng *Engine, ft *relation.FactTable, s Spec) int64 {
	t.Helper()
	rep := &VerifyReport{}
	eng.verifySpec(ft, s, rep)
	if !rep.OK() {
		t.Fatalf("spec %+v: %v", s, rep.Errors)
	}
	return rep.TuplesChecked
}

// TestNodeQueryInvalidID: every entry point refuses a node id outside the
// lattice with an error and no rows — not another node's answer, and not
// a panic.
func TestNodeQueryInvalidID(t *testing.T) {
	dir, hier, _ := buildPredCube(t, false)
	eng, err := OpenDefault(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	n := eng.Enum().NumNodes()
	all := Predicate{Dim: 0, Level: hier.Dims[0].AllLevel(), Lo: 0, Hi: 0}
	for _, id := range []lattice.NodeID{-1, lattice.NodeID(n), lattice.NodeID(n + 1), 1 << 40} {
		for name, call := range map[string]func(fn func(Row) error) error{
			"Query":          func(fn func(Row) error) error { return eng.Query(Spec{Node: id}, fn) },
			"Query iceberg":  func(fn func(Row) error) error { return eng.Query(Spec{Node: id, MinCount: 1}, fn) },
			"Explain":        func(func(Row) error) error { _, err := eng.Explain(Spec{Node: id}, true); return err },
			"NodeCount":      func(func(Row) error) error { _, err := eng.NodeCount(id); return err },
			"NodeQuery":      func(fn func(Row) error) error { return eng.NodeQuery(id, fn) },
			"NodeQueryWhere": func(fn func(Row) error) error { return eng.NodeQueryWhere(id, []Predicate{all}, fn) },
			"SliceQuery":     func(fn func(Row) error) error { return eng.SliceQuery(id, 1, 0, 1, fn) },
		} {
			rows := 0
			if err := call(func(Row) error { rows++; return nil }); err == nil || rows != 0 {
				t.Errorf("%s(%d): %d rows, err %v; want an error and no rows", name, id, rows, err)
			}
		}
	}
}

func TestCacheFractionsAgree(t *testing.T) {
	dir, _, _ := buildTestCube(t)
	// All cache settings must return identical result multisets.
	counts := map[float64]int{}
	sums := map[float64]float64{}
	for _, frac := range []float64{0, 0.3, 1} {
		reg := obsv.NewRegistry()
		eng, err := Open(dir, Options{CacheFraction: frac, PinAggregates: frac > 0.5, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		for id := lattice.NodeID(0); id < 6; id++ {
			if err := eng.Query(Spec{Node: id}, func(row Row) error {
				counts[frac]++
				sums[frac] += row.Aggrs[0]
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		hits, misses := cacheStats(reg)
		if frac == 0 && hits != 0 {
			t.Errorf("zero cache recorded %d hits", hits)
		}
		if frac == 1 && misses > hits && counts[frac] > 100 {
			t.Errorf("full cache: %d hits, %d misses", hits, misses)
		}
		eng.Close()
	}
	if counts[0] != counts[0.3] || counts[0.3] != counts[1] {
		t.Errorf("row counts differ across cache settings: %v", counts)
	}
	if sums[0] != sums[0.3] || sums[0.3] != sums[1] {
		t.Errorf("aggregates differ across cache settings: %v", sums)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	dir, _, _ := buildTestCube(t)
	reg := obsv.NewRegistry()
	eng, err := Open(dir, Options{CacheFraction: 0.4, PinAggregates: true, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	// Run several node queries; the cache must stay within its budget
	// and keep answering correctly.
	for pass := 0; pass < 3; pass++ {
		queryAll(t, eng)
	}
	hits, misses := cacheStats(reg)
	if hits == 0 || misses == 0 {
		t.Errorf("partial cache produced hits=%d misses=%d", hits, misses)
	}
}

func TestManifestAndFormatExposed(t *testing.T) {
	dir, _, _ := buildTestCube(t)
	eng, err := OpenDefault(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if eng.Manifest() == nil || eng.Manifest().Sizes.Total() == 0 {
		t.Error("manifest not exposed")
	}
}

func TestNodeCountWithoutMaterialization(t *testing.T) {
	dir, _, _ := buildTestCube(t)
	eng, err := OpenDefault(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for _, id := range eng.Enum().AllNodes() {
		want := 0
		if err := eng.Query(Spec{Node: id}, func(Row) error { want++; return nil }); err != nil {
			t.Fatal(err)
		}
		got, err := eng.NodeCount(id)
		if err != nil {
			t.Fatal(err)
		}
		if got != int64(want) {
			t.Errorf("node %s: NodeCount = %d, enumerated %d", eng.Enum().Name(id), got, want)
		}
	}
}

func TestVerifyCleanCube(t *testing.T) {
	dir, _, _ := buildTestCube(t)
	eng, err := OpenDefault(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	rep, err := eng.Verify(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("clean cube failed verification: %v", rep.Errors)
	}
	if rep.NodesChecked != int(eng.Enum().NumNodes()) || rep.TuplesChecked == 0 {
		t.Errorf("report = %+v", rep)
	}
	// Sampled verification checks fewer nodes.
	rep2, err := eng.Verify(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.NodesChecked != 2 {
		t.Errorf("sampled %d nodes, want 2", rep2.NodesChecked)
	}
}

func TestVerifyDetectsCorruption(t *testing.T) {
	dir, _, _ := buildTestCube(t)
	// Corrupt the NT relation: flip bytes in the middle of the file.
	ntPath := filepath.Join(dir, "nt.bin")
	data, err := os.ReadFile(ntPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 24 {
		t.Skip("NT relation too small to corrupt")
	}
	for i := 8; i < 24; i++ {
		data[i] ^= 0xFF
	}
	if err := os.WriteFile(ntPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	eng, err := OpenDefault(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	rep, err := eng.Verify(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Error("corrupted cube passed verification")
	}
}

func TestDiffEquivalentAndDivergent(t *testing.T) {
	dirA, hier, ft := buildTestCube(t, core.PlainLayout)
	// Same data, the other row-id layout (CURE+): query-equivalent.
	dirB := filepath.Join(t.TempDir(), "plus")
	if _, err := core.BuildFromTable(ft, core.Options{
		Dir: dirB, Hier: hier,
		AggSpecs: []relation.AggSpec{
			{Func: relation.AggSum, Measure: 0},
			{Func: relation.AggCount},
		},
	}); err != nil {
		t.Fatal(err)
	}
	a, err := OpenDefault(dirA)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := OpenDefault(dirB)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	rep, err := Diff(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Equal() {
		t.Fatalf("equivalent cubes reported different: %v", rep.Differences)
	}
	if rep.TuplesA != rep.TuplesB || rep.TuplesA == 0 {
		t.Errorf("tuple counts: %d vs %d", rep.TuplesA, rep.TuplesB)
	}

	// Different data: divergent.
	ft2 := relation.NewFactTable(ft.Schema, ft.Len())
	dims := make([]int32, 2)
	meas := make([]float64, 1)
	for r := 0; r < ft.Len(); r++ {
		dims = ft.DimRow(r, dims)
		meas = ft.MeasureRow(r, meas)
		meas[0]++ // shift every measure
		ft2.Append(dims, meas)
	}
	dirC := filepath.Join(t.TempDir(), "shifted")
	if _, err := core.BuildFromTable(ft2, core.Options{
		Dir: dirC, Hier: hier,
		AggSpecs: []relation.AggSpec{
			{Func: relation.AggSum, Measure: 0},
			{Func: relation.AggCount},
		},
	}); err != nil {
		t.Fatal(err)
	}
	c, err := OpenDefault(dirC)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rep2, err := Diff(a, c)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Equal() {
		t.Error("divergent cubes reported equal")
	}
}

// TestOpenChecksFactFile: the cube's row-ids index the fact file, so Open
// rejects one that cannot be the file they reference — too short, or with
// another dimension count — instead of failing mid-query. A longer file is
// legal: update.Apply appends the delta once the refreshed cube is
// finalized, and the cube it superseded keeps reading its own prefix.
func TestOpenChecksFactFile(t *testing.T) {
	dir, _, ft := buildTestCube(t)
	factPath := filepath.Join(dir, "fact.bin")
	head := func(schema *relation.Schema, rows int) *relation.FactTable {
		out := relation.NewFactTable(schema, rows)
		dims := make([]int32, schema.NumDims())
		for r := 0; r < rows; r++ {
			copy(dims, ft.DimRow(r, nil))
			out.Append(dims, ft.MeasureRow(r, nil))
		}
		return out
	}

	if _, err := relation.AppendToFactFile(factPath, head(ft.Schema, 10)); err != nil {
		t.Fatal(err)
	}
	eng, err := OpenDefault(dir)
	if err != nil {
		t.Fatalf("fact file longer than the cube's: %v", err)
	}
	eng.Close()

	wider := &relation.Schema{DimNames: []string{"A", "B", "C"}, MeasureNames: []string{"M"}}
	for name, bad := range map[string]*relation.FactTable{
		"truncated":             head(ft.Schema, ft.Len()-1),
		"other dimension count": head(wider, ft.Len()),
	} {
		if err := relation.WriteFactFile(factPath, bad); err != nil {
			t.Fatal(err)
		}
		if eng, err := OpenDefault(dir); err == nil {
			eng.Close()
			t.Errorf("%s fact file: Open succeeded", name)
		}
	}
}
