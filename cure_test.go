package cure_test

// End-to-end tests through the public facade: the API a downstream user
// sees must build, query, slice, update, verify, and diff without
// reaching into internal packages beyond type construction.

import (
	"path/filepath"
	"testing"

	cure "cure"
	"cure/internal/gen"
	"cure/internal/hierarchy"
	"cure/internal/query"
	"cure/internal/relation"
	"cure/internal/update"
)

func TestFacadeEndToEnd(t *testing.T) {
	ft, hier, err := gen.APB(0.0003, 5)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "cube")
	stats, err := cure.BuildFromTable(ft, cure.BuildOptions{
		Dir:  dir,
		Hier: hier,
		AggSpecs: []cure.AggSpec{
			{Func: cure.AggSum, Measure: 1},
			{Func: cure.AggCount},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.NodesMaterialized == 0 {
		t.Fatalf("stats = %+v", stats)
	}
	eng, err := cure.OpenCube(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	// A roll-up walk from base Product level to Division.
	levels := []int{0, 2, 3, 1}
	product := eng.Hier().Dims[0]
	for lvl := 0; lvl < 5; lvl++ {
		if product.IsAll(levels[0]) {
			t.Fatalf("roll-up stopped at level %d", lvl)
		}
		levels[0] = product.DashParent(levels[0])
	}
	node := eng.Enum().Encode(levels)
	var rows int
	var total float64
	if err := eng.Query(cure.Spec{Node: node}, func(row cure.Row) error {
		rows++
		total += row.Aggrs[0]
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if rows != 3 { // |Division| = 3
		t.Errorf("division rows = %d, want 3", rows)
	}
	// The division totals must sum to the grand total.
	var grand float64
	apex := make([]int, eng.Hier().NumDims()) // every dimension at ALL
	for d, dim := range eng.Hier().Dims {
		apex[d] = dim.AllLevel()
	}
	if err := eng.Query(cure.Spec{Node: eng.Enum().Encode(apex)}, func(row cure.Row) error {
		grand = row.Aggrs[0]
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if total != grand {
		t.Errorf("division sum %v != grand total %v", total, grand)
	}

	// Verify through the facade-exposed engine.
	rep, err := eng.Verify(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("verification failed: %v", rep.Errors)
	}
}

func TestFacadeBuildFromDiskWithBudget(t *testing.T) {
	dir := t.TempDir()
	factPath := filepath.Join(dir, "apb.bin")
	if _, _, err := gen.APBToFile(factPath, 0.002, 2); err != nil {
		t.Fatal(err)
	}
	stats, err := cure.Build(cure.BuildOptions{
		Dir:          filepath.Join(dir, "cube"),
		FactPath:     factPath,
		Hier:         gen.APBSchema(),
		AggSpecs:     []cure.AggSpec{{Func: cure.AggSum, Measure: 0}, {Func: cure.AggCount}},
		MemoryBudget: 256 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Partitioned {
		t.Fatal("small budget did not trigger partitioning")
	}
	eng, err := cure.OpenCubeWith(filepath.Join(dir, "cube"), cure.QueryOptions{CacheFraction: 0.5, PinAggregates: true})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	rep, err := eng.Verify(12, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("partitioned cube failed verification: %v", rep.Errors)
	}
}

func TestFacadeUpdateAndDiff(t *testing.T) {
	// Build two cubes: one incrementally maintained, one rebuilt; they
	// must be query-equivalent (exercises update + diff together through
	// public-ish surfaces).
	hier, err := hierarchy.NewSchema(
		hierarchy.NewFlatDim("A", 10),
		hierarchy.NewFlatDim("B", 6),
	)
	if err != nil {
		t.Fatal(err)
	}
	schema := &relation.Schema{DimNames: []string{"A", "B"}, MeasureNames: []string{"M"}}
	base := relation.NewFactTable(schema, 100)
	for i := 0; i < 100; i++ {
		base.Append([]int32{int32(i % 10), int32(i % 6)}, []float64{float64(i % 7)})
	}
	delta := relation.NewFactTable(schema, 20)
	for i := 0; i < 20; i++ {
		delta.Append([]int32{int32(i % 10), int32((i + 3) % 6)}, []float64{float64(i % 5)})
	}
	specs := []cure.AggSpec{{Func: cure.AggSum, Measure: 0}, {Func: cure.AggCount}}

	dir := t.TempDir()
	oldDir := filepath.Join(dir, "v1")
	if _, err := cure.BuildFromTable(base, cure.BuildOptions{Dir: oldDir, Hier: hier, AggSpecs: specs}); err != nil {
		t.Fatal(err)
	}
	newDir := filepath.Join(dir, "v2")
	if _, err := update.Apply(update.Options{OldDir: oldDir, NewDir: newDir, Delta: delta}); err != nil {
		t.Fatal(err)
	}
	refDir := filepath.Join(dir, "ref")
	combined := relation.NewFactTable(schema, 120)
	for _, tbl := range []*relation.FactTable{base, delta} {
		dims := make([]int32, 2)
		meas := make([]float64, 1)
		for r := 0; r < tbl.Len(); r++ {
			dims = tbl.DimRow(r, dims)
			meas = tbl.MeasureRow(r, meas)
			combined.Append(dims, meas)
		}
	}
	if _, err := cure.BuildFromTable(combined, cure.BuildOptions{Dir: refDir, Hier: hier, AggSpecs: specs}); err != nil {
		t.Fatal(err)
	}
	a, err := cure.OpenCube(newDir)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := cure.OpenCube(refDir)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	rep, err := query.Diff(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Equal() {
		t.Fatalf("incrementally updated cube diverges from rebuild: %v", rep.Differences)
	}
}
