package query

import (
	"math/rand"
	"path/filepath"
	"testing"

	"cure/internal/core"
	"cure/internal/hierarchy"
	"cure/internal/relation"
)

// buildComplexCube builds a cube whose first dimension has a complex
// hierarchy: Day rolls up into both Week and Month (siblings, neither a
// refinement of the other), the shape CURE's modified rule 2 handles.
func buildComplexCube(t *testing.T) (string, *hierarchy.Schema) {
	t.Helper()
	weekMap := hierarchy.BuildContiguousMap(12, 4)
	monthMap := hierarchy.BuildContiguousMap(12, 3)
	day := &hierarchy.Dim{
		Name: "T",
		Levels: []hierarchy.Level{
			{Name: "Day", Card: 12, RollsUpTo: []int{1, 2}},
			{Name: "Week", Card: 4, Map: weekMap},
			{Name: "Month", Card: 3, Map: monthMap},
		},
	}
	if err := day.Finalize(); err != nil {
		t.Fatal(err)
	}
	hier, err := hierarchy.NewSchema(day, hierarchy.NewFlatDim("B", 3))
	if err != nil {
		t.Fatal(err)
	}
	schema := &relation.Schema{DimNames: []string{"T", "B"}, MeasureNames: []string{"M"}}
	ft := relation.NewFactTable(schema, 500)
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 500; i++ {
		ft.Append([]int32{int32(rng.Intn(12)), int32(rng.Intn(3))}, []float64{float64(rng.Intn(5))})
	}
	dir := filepath.Join(t.TempDir(), "cube")
	if _, err := core.BuildFromTable(ft, core.Options{
		Dir: dir, Hier: hier,
		AggSpecs: []relation.AggSpec{{Func: relation.AggSum, Measure: 0}, {Func: relation.AggCount}},
	}); err != nil {
		t.Fatal(err)
	}
	return dir, hier
}

// TestRollUpDrillDownBoundaries exercises navigation at the lattice
// borders: ALL cannot roll up further, base levels cannot drill deeper,
// and each successful step moves exactly one level.
func TestRollUpDrillDownBoundaries(t *testing.T) {
	dir, hier, _ := buildTestCube(t)
	eng, err := OpenDefault(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	enum := eng.Enum()
	allA := hier.Dims[0].AllLevel()
	allB := hier.Dims[1].AllLevel()

	top := enum.Encode([]int{allA, allB}) // apex: every dimension at ALL
	for dim := 0; dim < 2; dim++ {
		if id, ok := eng.RollUp(top, dim); ok || id != top {
			t.Errorf("dim %d: rolled up beyond ALL to %d", dim, id)
		}
	}
	base := enum.Encode([]int{0, 0}) // finest grouping
	for dim := 0; dim < 2; dim++ {
		if id, ok := eng.DrillDown(base, dim); ok || id != base {
			t.Errorf("dim %d: drilled below base to %d", dim, id)
		}
	}

	// Climb dimension A from base to ALL one level at a time, then walk
	// back down; every step must invert exactly.
	id := base
	var path []int64
	for {
		path = append(path, int64(id))
		next, ok := eng.RollUp(id, 0)
		if !ok {
			break
		}
		if next == id {
			t.Fatal("RollUp reported progress without moving")
		}
		id = next
	}
	if len(path) != allA+1 {
		t.Fatalf("climbed %d steps, want %d", len(path)-1, allA)
	}
	for i := len(path) - 1; i > 0; i-- {
		down, ok := eng.DrillDown(id, 0)
		if !ok {
			t.Fatalf("stuck at step %d of the descent", i)
		}
		id = down
	}
	if int64(id) != path[0] {
		t.Errorf("descent ended at %d, want %d", id, path[0])
	}
}

// TestNavigationComplexHierarchy checks the dashed-edge tree boundaries
// when a base level rolls up into two sibling levels: drill-down from
// ALL lands on one top-under-ALL sibling, the other sibling is reachable
// by roll-up, and both siblings' node queries aggregate correctly.
func TestNavigationComplexHierarchy(t *testing.T) {
	dir, hier := buildComplexCube(t)
	eng, err := OpenDefault(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	enum := eng.Enum()
	d := hier.Dims[0]
	if d.IsLinear() {
		t.Fatal("test hierarchy is linear")
	}

	// Both Week (1) and Month (2) hang under ALL (neither refines the
	// other), so the apex has two drill-down targets on T; the engine
	// follows the first dashed child.
	apex := enum.Encode([]int{d.AllLevel(), hier.Dims[1].AllLevel()})
	down, ok := eng.DrillDown(apex, 0)
	if !ok {
		t.Fatal("cannot drill below ALL")
	}
	gotLevel := enum.Decode(down, nil)[0]
	tops := d.TopUnderAll()
	if len(tops) != 2 {
		t.Fatalf("TopUnderAll = %v, want two siblings", tops)
	}
	if gotLevel != tops[0] {
		t.Errorf("drill-down landed on level %d, want first dashed child %d", gotLevel, tops[0])
	}

	// Roll-up from Week (level 1) moves to Month (level 2) — the next
	// coarser level index, even though Week does not map into Month.
	week := enum.Encode([]int{1, hier.Dims[1].AllLevel()})
	up, ok := eng.RollUp(week, 0)
	if !ok || enum.Decode(up, nil)[0] != 2 {
		t.Errorf("roll-up from Week: ok=%v level=%d, want Month (2)", ok, enum.Decode(up, nil)[0])
	}

	// Each sibling level aggregates the full fact table independently.
	for _, level := range tops {
		node := enum.Encode([]int{level, hier.Dims[1].AllLevel()})
		var count float64
		groups := 0
		if err := eng.NodeQuery(node, func(r Row) error {
			groups++
			count += r.Aggrs[1]
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if count != 500 {
			t.Errorf("level %s: counts sum to %v, want 500", d.LevelName(level), count)
		}
		if groups == 0 || groups > int(d.Card(level)) {
			t.Errorf("level %s: %d groups for cardinality %d", d.LevelName(level), groups, d.Card(level))
		}
	}

	// The whole complex-hierarchy cube verifies.
	rep, err := eng.Verify(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("complex-hierarchy cube failed verification: %v", rep.Errors)
	}
}
