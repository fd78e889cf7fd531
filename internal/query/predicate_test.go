package query

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"cure/internal/core"
	"cure/internal/hierarchy"
	"cure/internal/relation"
)

// buildPredCube builds a hierarchical cube for predicate tests and
// returns (dir, hier, table).
func buildPredCube(t *testing.T, dr bool) (string, *hierarchy.Schema, *relation.FactTable) {
	t.Helper()
	m := hierarchy.BuildContiguousMap(12, 3)
	a, err := hierarchy.NewLinearDim("A", []string{"A0", "A1"}, []int32{12, 3}, [][]int32{m})
	if err != nil {
		t.Fatal(err)
	}
	hier, err := hierarchy.NewSchema(a, hierarchy.NewFlatDim("B", 5))
	if err != nil {
		t.Fatal(err)
	}
	schema := &relation.Schema{DimNames: []string{"A", "B"}, MeasureNames: []string{"M"}}
	ft := relation.NewFactTable(schema, 400)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 400; i++ {
		ft.Append([]int32{int32(rng.Intn(12)), int32(rng.Intn(5))}, []float64{float64(rng.Intn(8))})
	}
	dir := filepath.Join(t.TempDir(), "cube")
	if _, err := core.BuildFromTable(ft, core.Options{
		Dir: dir, Hier: hier,
		AggSpecs:   []relation.AggSpec{{Func: relation.AggSum, Measure: 0}, {Func: relation.AggCount}},
		DimsInline: dr,
	}); err != nil {
		t.Fatal(err)
	}
	return dir, hier, ft
}

func TestPredicateMatch(t *testing.T) {
	p := Predicate{Lo: 3, Hi: 7}
	for code, want := range map[int32]bool{2: false, 3: true, 5: true, 7: true, 8: false} {
		if p.Match(code) != want {
			t.Errorf("Match(%d) = %v", code, !want)
		}
	}
}

func TestNodeQueryWhereCoarserLevel(t *testing.T) {
	dir, hier, ft := buildPredCube(t, false)
	eng, err := OpenDefault(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	// Group by A0 × B, select A1 = 1 (a coarser level than the grouping).
	node := eng.Enum().Encode([]int{0, 0})
	pred := Predicate{Dim: 0, Level: 1, Lo: 1, Hi: 1}
	// Ground truth.
	type key struct{ a, b int32 }
	want := map[key][2]float64{}
	for r := 0; r < ft.Len(); r++ {
		if hier.Dims[0].MapCode(ft.Dims[0][r], 1) != 1 {
			continue
		}
		k := key{ft.Dims[0][r], ft.Dims[1][r]}
		agg := want[k]
		agg[0] += ft.Measures[0][r]
		agg[1]++
		want[k] = agg
	}
	got := 0
	if err := eng.NodeQueryWhere(node, []Predicate{pred}, func(row Row) error {
		k := key{row.Dims[0], row.Dims[1]}
		w, ok := want[k]
		if !ok {
			return fmt.Errorf("tuple %v outside selection", row.Dims)
		}
		if w[0] != row.Aggrs[0] || w[1] != row.Aggrs[1] {
			return fmt.Errorf("tuple %v: %v want %v", row.Dims, row.Aggrs, w)
		}
		got++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got != len(want) {
		t.Fatalf("selected %d tuples, want %d", got, len(want))
	}
}

func TestNodeQueryWhereRange(t *testing.T) {
	dir, _, ft := buildPredCube(t, false)
	eng, err := OpenDefault(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	// Node B (A at ALL), range predicate on B itself.
	node := eng.Enum().Encode([]int{2, 0})
	got := 0
	if err := eng.NodeQueryWhere(node, []Predicate{{Dim: 1, Level: 0, Lo: 1, Hi: 3}}, func(row Row) error {
		if row.Dims[0] < 1 || row.Dims[0] > 3 {
			return fmt.Errorf("tuple %v outside range", row.Dims)
		}
		got++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got != 3 {
		t.Errorf("range selected %d B-groups, want 3", got)
	}
	_ = ft
}

func TestNodeQueryWhereValidation(t *testing.T) {
	dir, _, _ := buildPredCube(t, false)
	eng, err := OpenDefault(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	node := eng.Enum().Encode([]int{1, 1}) // A1, B at ALL
	nop := func(Row) error { return nil }
	if err := eng.NodeQueryWhere(node, []Predicate{{Dim: 5, Level: 0, Lo: 0, Hi: 0}}, nop); err == nil {
		t.Error("bad dim accepted")
	}
	if err := eng.NodeQueryWhere(node, []Predicate{{Dim: 0, Level: 9, Lo: 0, Hi: 0}}, nop); err == nil {
		t.Error("bad level accepted")
	}
	if err := eng.NodeQueryWhere(node, []Predicate{{Dim: 0, Level: 0, Lo: 0, Hi: 0}}, nop); err == nil {
		t.Error("predicate finer than node level accepted")
	}
	if err := eng.NodeQueryWhere(node, []Predicate{{Dim: 0, Level: 1, Lo: 3, Hi: 1}}, nop); err == nil {
		t.Error("empty range accepted")
	}
	if err := eng.NodeQueryWhere(-1, []Predicate{{Dim: 0, Level: 1, Lo: 0, Hi: 0}}, nop); err == nil {
		t.Error("invalid node accepted")
	}
	// Empty predicate list degrades to a plain node query.
	count := 0
	if err := eng.NodeQueryWhere(node, nil, func(Row) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count == 0 {
		t.Error("empty predicate list returned nothing")
	}
}

// TestNodeQueryWhereEdgeCases covers the domain boundaries: predicates
// whose ranges fall entirely outside the code domain select nothing
// (without erroring), ALL-level predicates are vacuously true, and
// single-point ranges at the domain edges behave inclusively.
func TestNodeQueryWhereEdgeCases(t *testing.T) {
	dir, hier, ft := buildPredCube(t, false)
	eng, err := OpenDefault(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	node := eng.Enum().Encode([]int{0, 0})
	count := func(preds []Predicate) int {
		t.Helper()
		n := 0
		if err := eng.NodeQueryWhere(node, preds, func(Row) error { n++; return nil }); err != nil {
			t.Fatal(err)
		}
		return n
	}

	total := count(nil)
	if total == 0 {
		t.Fatal("cube is empty")
	}
	// Entirely above / below the domain: zero rows, no error.
	if n := count([]Predicate{{Dim: 0, Level: 0, Lo: 100, Hi: 200}}); n != 0 {
		t.Errorf("above-domain range selected %d rows", n)
	}
	if n := count([]Predicate{{Dim: 0, Level: 0, Lo: -50, Hi: -1}}); n != 0 {
		t.Errorf("below-domain range selected %d rows", n)
	}
	// A range covering the whole domain (and beyond) selects everything.
	if n := count([]Predicate{{Dim: 0, Level: 0, Lo: -10, Hi: 100}}); n != total {
		t.Errorf("superset range selected %d of %d rows", n, total)
	}
	// ALL-level predicate: the only code is 0, so [0,0] is vacuously true
	// and [1,1] is vacuously false.
	all := hier.Dims[0].AllLevel()
	if n := count([]Predicate{{Dim: 0, Level: all, Lo: 0, Hi: 0}}); n != total {
		t.Errorf("ALL-level [0,0] selected %d of %d rows", n, total)
	}
	if n := count([]Predicate{{Dim: 0, Level: all, Lo: 1, Hi: 1}}); n != 0 {
		t.Errorf("ALL-level [1,1] selected %d rows", n)
	}
	// Point ranges at the domain edges are inclusive; together with the
	// interior they partition the total.
	edges := 0
	for _, p := range []Predicate{
		{Dim: 1, Level: 0, Lo: 0, Hi: 0},
		{Dim: 1, Level: 0, Lo: 1, Hi: 3},
		{Dim: 1, Level: 0, Lo: 4, Hi: 4},
	} {
		edges += count([]Predicate{p})
	}
	if edges != total {
		t.Errorf("partitioned counts sum to %d, want %d", edges, total)
	}
	// Contradictory predicates on one dimension: zero rows, no error.
	if n := count([]Predicate{
		{Dim: 1, Level: 0, Lo: 0, Hi: 1},
		{Dim: 1, Level: 0, Lo: 3, Hi: 4},
	}); n != 0 {
		t.Errorf("contradictory predicates selected %d rows", n)
	}
	_ = ft
}

func TestSliceQuery(t *testing.T) {
	dir, hier, ft := buildPredCube(t, false)
	eng, err := OpenDefault(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	// Slice: group by B, fix A1 = 0.
	node := eng.Enum().Encode([]int{2, 0})
	var gotSum float64
	if err := eng.SliceQuery(node, 0, 1, 0, func(row Row) error {
		gotSum += row.Aggrs[0]
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var wantSum float64
	for r := 0; r < ft.Len(); r++ {
		if hier.Dims[0].MapCode(ft.Dims[0][r], 1) == 0 {
			wantSum += ft.Measures[0][r]
		}
	}
	if gotSum != wantSum {
		t.Errorf("slice sum = %v, want %v", gotSum, wantSum)
	}
}

func TestNodeQueryWhereDR(t *testing.T) {
	dir, _, ft := buildPredCube(t, true)
	eng, err := OpenDefault(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	// DR: predicate at the node's own level works…
	node := eng.Enum().Encode([]int{1, 0}) // A1 × B
	got := 0
	if err := eng.NodeQueryWhere(node, []Predicate{{Dim: 0, Level: 1, Lo: 2, Hi: 2}}, func(row Row) error {
		if row.Dims[0] != 2 {
			return fmt.Errorf("tuple %v outside slice", row.Dims)
		}
		got++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got == 0 {
		t.Error("DR slice empty")
	}
	// …but coarser-level predicates are rejected (the rows have no
	// base-code reference to re-project).
	base := eng.Enum().Encode([]int{0, 0})
	if err := eng.NodeQueryWhere(base, []Predicate{{Dim: 0, Level: 1, Lo: 0, Hi: 0}}, func(Row) error { return nil }); err == nil {
		t.Error("DR coarser-level predicate accepted")
	}
	_ = ft
}
