package query

import (
	"math/rand"
	"path/filepath"
	"testing"

	"cure/internal/core"
	"cure/internal/hierarchy"
	"cure/internal/lattice"
	"cure/internal/relation"
)

// buildComplexCube builds a cube whose first dimension has a complex
// hierarchy: Day rolls up into both Week and Month (siblings, neither a
// refinement of the other), the shape CURE's modified rule 2 handles.
func buildComplexCube(t *testing.T) (string, *hierarchy.Schema, *relation.FactTable) {
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
	return dir, hier, ft
}

// TestRollUpDrillDownBoundaries walks the lattice the way roll-up and
// drill-down navigate it — a level's dashed-tree parent and first child,
// re-encoded as a node id — and holds every node on the way to the
// brute-force answer: ALL cannot roll up further, base levels cannot
// drill deeper, and the climb from base to ALL inverts exactly.
func TestRollUpDrillDownBoundaries(t *testing.T) {
	dir, hier, ft := buildTestCube(t)
	eng, err := OpenDefault(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	enum := eng.Enum()
	a := hier.Dims[0]
	if len(a.DashChildren(0)) != 0 || len(hier.Dims[1].DashChildren(0)) != 0 {
		t.Fatal("a base level drills down")
	}

	// Climb dimension A from base to ALL one level at a time, then walk
	// back down; every step must invert exactly.
	levels := []int{0, 0}
	var path []lattice.NodeID
	for {
		id := enum.Encode(levels)
		path = append(path, id)
		if checkSpec(t, eng, ft, Spec{Node: id}) == 0 {
			t.Fatalf("node %s answered nothing", enum.Name(id))
		}
		if a.IsAll(levels[0]) {
			break
		}
		levels[0] = a.DashParent(levels[0])
	}
	if len(path) != a.AllLevel()+1 {
		t.Fatalf("climbed %d steps, want %d", len(path)-1, a.AllLevel())
	}
	for i := len(path) - 1; i > 0; i-- {
		levels[0] = a.DashChildren(levels[0])[0]
		if id := enum.Encode(levels); id != path[i-1] {
			t.Fatalf("descent step %d reached node %d, want %d", i, id, path[i-1])
		}
	}
}

// TestNavigationComplexHierarchy checks navigation when a base level
// rolls up into two sibling levels: both hang under ALL in the dashed
// tree, neither aggregates the other — so a Week-grouped query cannot
// select by Month — and both siblings answer like the brute-force
// group-by.
func TestNavigationComplexHierarchy(t *testing.T) {
	dir, hier, ft := buildComplexCube(t)
	eng, err := OpenDefault(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	enum := eng.Enum()
	d := hier.Dims[0]
	tops := d.DashChildren(d.AllLevel())
	if len(tops) != 2 || d.DashParent(1) != d.AllLevel() || d.DashParent(2) != d.AllLevel() {
		t.Fatalf("Week and Month do not both hang under ALL: %v", tops)
	}

	// Week (1) does not lie inside Month (2): a Month predicate cannot be
	// decided per Week tuple, so the engine refuses it at the Week node
	// and accepts it at the Day node, which rolls up into both.
	allB := hier.Dims[1].AllLevel()
	month := []Predicate{{Dim: 0, Level: 2, Lo: 1, Hi: 1}}
	if err := eng.Query(Spec{Node: enum.Encode([]int{1, allB}), Where: month}, func(Row) error { return nil }); err == nil {
		t.Error("Week node accepted a Month predicate")
	}
	if checkSpec(t, eng, ft, Spec{Node: enum.Encode([]int{0, allB}), Where: month}) == 0 {
		t.Error("Day node under a Month predicate answered nothing")
	}

	// Each sibling level aggregates the full fact table independently.
	for _, level := range tops {
		node := enum.Encode([]int{level, allB})
		if n := checkSpec(t, eng, ft, Spec{Node: node}); n == 0 || n > int64(d.Card(level)) {
			t.Errorf("level %s: %d groups for cardinality %d", d.LevelName(level), n, d.Card(level))
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
