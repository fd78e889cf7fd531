package query

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
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
	dir, _, ft := buildPredCube(t, false)
	eng, err := OpenDefault(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	// Group by A0 × B, select A1 = 1 (a coarser level than the grouping).
	s := Spec{Node: eng.Enum().Encode([]int{0, 0}), Where: []Predicate{{Dim: 0, Level: 1, Lo: 1, Hi: 1}}}
	if checkSpec(t, eng, ft, s) == 0 {
		t.Fatal("selection answered nothing")
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
	s := Spec{Node: eng.Enum().Encode([]int{2, 0}), Where: []Predicate{{Dim: 1, Level: 0, Lo: 1, Hi: 3}}}
	if n := checkSpec(t, eng, ft, s); n != 3 {
		t.Errorf("range selected %d B-groups, want 3", n)
	}
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
	for name, s := range map[string]Spec{
		"bad dim":                          {Node: node, Where: []Predicate{{Dim: 5, Level: 0, Lo: 0, Hi: 0}}},
		"bad level":                        {Node: node, Where: []Predicate{{Dim: 0, Level: 9, Lo: 0, Hi: 0}}},
		"predicate finer than node level":  {Node: node, Where: []Predicate{{Dim: 0, Level: 0, Lo: 0, Hi: 0}}},
		"empty range":                      {Node: node, Where: []Predicate{{Dim: 0, Level: 1, Lo: 3, Hi: 1}}},
		"invalid node":                     {Node: -1, Where: []Predicate{{Dim: 0, Level: 1, Lo: 0, Hi: 0}}},
		"threshold below 1":                {Node: node, MinCount: 0.5},
		"negative threshold":               {Node: node, MinCount: -1},
		"predicate on an ungrouped dim":    {Node: node, Where: []Predicate{{Dim: 1, Level: 0, Lo: 0, Hi: 0}}},
		"threshold below 1 with predicate": {Node: node, Where: []Predicate{{Dim: 0, Level: 1, Lo: 0, Hi: 0}}, MinCount: 0.9},
	} {
		if err := eng.Query(s, nop); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// An empty predicate list is a plain node query.
	count := 0
	if err := eng.Query(Spec{Node: node, Where: []Predicate{}}, func(Row) error { count++; return nil }); err != nil {
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
	count := func(preds []Predicate) int64 {
		t.Helper()
		return checkSpec(t, eng, ft, Spec{Node: node, Where: preds})
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
	var edges int64
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
}

// TestSliceQuery: a slice at a level finer than the node's grouping is
// answered from the refined node, exactly as the query of that node
// under the slice's predicate.
func TestSliceQuery(t *testing.T) {
	dir, _, ft := buildPredCube(t, false)
	eng, err := OpenDefault(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	// Slice: group by B, fix A1 = 0; answered from A1 × B.
	node := eng.Enum().Encode([]int{2, 0})
	s := Spec{Node: eng.Enum().Encode([]int{1, 0}), Where: []Predicate{{Dim: 0, Level: 1, Lo: 0, Hi: 0}}}
	want := collectSpec(t, eng, s)
	var got []string
	if err := eng.SliceQuery(node, 0, 1, 0, func(r Row) error {
		got = append(got, fmt.Sprintf("%v|%v|%d", r.Dims, r.Aggrs, r.RRowid))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	slices.Sort(got)
	if !slices.Equal(got, want) || checkSpec(t, eng, ft, s) == 0 {
		t.Errorf("slice answered %v, want %v", got, want)
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
	s := Spec{Node: eng.Enum().Encode([]int{1, 0}), Where: []Predicate{{Dim: 0, Level: 1, Lo: 2, Hi: 2}}} // A1 × B
	if checkSpec(t, eng, ft, s) == 0 {
		t.Error("DR slice empty")
	}
	// …but coarser-level predicates are rejected (the rows have no
	// base-code reference to re-project).
	base := eng.Enum().Encode([]int{0, 0})
	if err := eng.Query(Spec{Node: base, Where: []Predicate{{Dim: 0, Level: 1, Lo: 0, Hi: 0}}}, func(Row) error { return nil }); err == nil {
		t.Error("DR coarser-level predicate accepted")
	}
}
