package lattice

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"cure/internal/hierarchy"
)

// rootID returns the id of the all-ALL node (∅), the root of CURE's
// execution plan.
func rootID(e *Enum) NodeID {
	levels := make([]int, e.Schema().NumDims())
	for i, d := range e.Schema().Dims {
		levels[i] = d.AllLevel()
	}
	return e.Encode(levels)
}

// paperSchema reproduces the running example of §3: A0 → A1 → A2,
// B0 → B1, and flat C. Cardinalities are immaterial to enumeration.
func paperSchema(t *testing.T) *hierarchy.Schema {
	t.Helper()
	am1 := hierarchy.BuildContiguousMap(8, 4)
	am2 := hierarchy.ComposeMaps(am1, hierarchy.BuildContiguousMap(4, 2))
	a, err := hierarchy.NewLinearDim("A", []string{"A0", "A1", "A2"}, []int32{8, 4, 2}, [][]int32{am1, am2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := hierarchy.NewLinearDim("B", []string{"B0", "B1"}, []int32{6, 3}, [][]int32{hierarchy.BuildContiguousMap(6, 3)})
	if err != nil {
		t.Fatal(err)
	}
	c := hierarchy.NewFlatDim("C", 4)
	s, err := hierarchy.NewSchema(a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestEnumMatchesPaperFigure6(t *testing.T) {
	e := NewEnum(paperSchema(t))
	if e.NumNodes() != 24 {
		t.Fatalf("NumNodes = %d, want 24", e.NumNodes())
	}
	// Spot-check ids against Figure 6 of the paper.
	cases := []struct {
		levels []int
		id     NodeID
	}{
		{[]int{0, 0, 0}, 0},  // A0B0C0
		{[]int{1, 0, 0}, 1},  // A1B0C0
		{[]int{2, 0, 0}, 2},  // A2B0C0
		{[]int{3, 0, 0}, 3},  // B0C0
		{[]int{0, 1, 0}, 4},  // A0B1C0
		{[]int{3, 1, 0}, 7},  // B1C0
		{[]int{0, 2, 0}, 8},  // A0C0
		{[]int{3, 2, 0}, 11}, // C0
		{[]int{0, 0, 1}, 12}, // A0B0
		{[]int{3, 0, 1}, 15}, // B0
		{[]int{1, 1, 1}, 17}, // A1B1
		{[]int{1, 2, 1}, 21}, // A1 — the paper's decode example
		{[]int{2, 2, 1}, 22}, // A2
		{[]int{3, 2, 1}, 23}, // ∅
	}
	for _, tc := range cases {
		if got := e.Encode(tc.levels); got != tc.id {
			t.Errorf("Encode(%v) = %d, want %d", tc.levels, got, tc.id)
		}
		if got := e.Decode(tc.id, nil); !reflect.DeepEqual(got, tc.levels) {
			t.Errorf("Decode(%d) = %v, want %v", tc.id, got, tc.levels)
		}
	}
	if rootID(e) != 23 {
		t.Errorf("root = %d, want 23", rootID(e))
	}
}

func TestEnumRoundTripProperty(t *testing.T) {
	e := NewEnum(paperSchema(t))
	f := func(raw uint16) bool {
		id := NodeID(int64(raw) % e.NumNodes())
		return e.Encode(e.Decode(id, nil)) == id
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEnumValid(t *testing.T) {
	e := NewEnum(paperSchema(t))
	if !e.Valid(0) || !e.Valid(23) {
		t.Error("valid ids rejected")
	}
	if e.Valid(-1) || e.Valid(24) {
		t.Error("invalid ids accepted")
	}
}

func TestName(t *testing.T) {
	e := NewEnum(paperSchema(t))
	if got := e.Name(23); got != "∅" {
		t.Errorf("Name(root) = %q", got)
	}
	if got := e.Name(21); got != "A[A1]" {
		t.Errorf("Name(21) = %q", got)
	}
	if got := e.Name(0); got != "A[A0]B[B0]C[C]" {
		t.Errorf("Name(0) = %q", got)
	}
}

func TestGroupingArity(t *testing.T) {
	e := NewEnum(paperSchema(t))
	if e.GroupingArity(23) != 0 || e.GroupingArity(21) != 1 || e.GroupingArity(0) != 3 {
		t.Error("GroupingArity wrong")
	}
}

func TestPlanParentMatchesFigure4(t *testing.T) {
	e := NewEnum(paperSchema(t))
	cases := []struct {
		node, parent NodeID
	}{
		{21, 22}, // A1 ← A2 (dashed)
		{20, 21}, // A0 ← A1 (dashed)
		{22, 23}, // A2 ← ∅ (solid)
		{19, 23}, // B1 ← ∅ (solid)
		{11, 23}, // C0 ← ∅ (solid)
		{16, 20}, // A0B1 ← A0 (solid)
		{12, 16}, // A0B0 ← A0B1 (dashed)
		{0, 12},  // A0B0C0 ← A0B0 (solid)
		{15, 19}, // B0 ← B1 (dashed)
		{18, 22}, // A2B1 ← A2 (solid)
		{14, 18}, // A2B0 ← A2B1 (dashed)
	}
	for _, tc := range cases {
		p, ok := e.PlanParent(tc.node)
		if !ok || p != tc.parent {
			t.Errorf("PlanParent(%s) = %s, want %s", e.Name(tc.node), e.Name(p), e.Name(tc.parent))
		}
	}
	if _, ok := e.PlanParent(rootID(e)); ok {
		t.Error("root has a parent")
	}
}

func TestPlanCoversAllNodesExactlyOnce(t *testing.T) {
	e := NewEnum(paperSchema(t))
	seen := map[NodeID]int{}
	var walk func(id NodeID)
	walk = func(id NodeID) {
		seen[id]++
		for _, c := range e.PlanChildren(id) {
			walk(c)
		}
	}
	walk(rootID(e))
	if len(seen) != 24 {
		t.Fatalf("plan visits %d nodes, want 24", len(seen))
	}
	for id, n := range seen {
		if n != 1 {
			t.Errorf("node %s visited %d times", e.Name(id), n)
		}
	}
}

func TestPlanChildrenAreConsistentWithPlanParent(t *testing.T) {
	e := NewEnum(paperSchema(t))
	for _, id := range e.AllNodes() {
		for _, c := range e.PlanChildren(id) {
			p, ok := e.PlanParent(c)
			if !ok || p != id {
				t.Errorf("PlanParent(%s) = %s, want %s", e.Name(c), e.Name(p), e.Name(id))
			}
		}
	}
}

func TestPlanHeightIsTallest(t *testing.T) {
	// §3.1: for the running example P3 has height 6 (edges), i.e. the
	// longest root-to-leaf path has 7 nodes.
	e := NewEnum(paperSchema(t))
	if got := e.PlanHeight(rootID(e)); got != 7 {
		t.Errorf("PlanHeight = %d nodes, want 7", got)
	}
}

func TestPlanPath(t *testing.T) {
	e := NewEnum(paperSchema(t))
	got := e.PlanPath(0) // A0B0C0
	want := []NodeID{23, 22, 21, 20, 16, 12, 0}
	if !reflect.DeepEqual(got, want) {
		names := make([]string, len(got))
		for i, id := range got {
			names[i] = e.Name(id)
		}
		t.Errorf("PlanPath(A0B0C0) = %v (%v), want %v", got, names, want)
	}
	if got := e.PlanPath(23); !reflect.DeepEqual(got, []NodeID{23}) {
		t.Errorf("PlanPath(root) = %v", got)
	}
}

func TestRefines(t *testing.T) {
	e := NewEnum(paperSchema(t))
	if !e.Refines(0, 23) { // base refines ∅
		t.Error("A0B0C0 must refine ∅")
	}
	if !e.Refines(0, 21) { // A0B0C0 refines A1
		t.Error("A0B0C0 must refine A1")
	}
	if e.Refines(21, 0) {
		t.Error("A1 must not refine A0B0C0")
	}
	if !e.Refines(17, 17) {
		t.Error("node must refine itself")
	}
	if e.Refines(15, 11) { // B0 vs C0: incomparable
		t.Error("B0 must not refine C0")
	}
}

func TestRefinesHoldsAlongPlanPaths(t *testing.T) {
	// Property: every node refines all of its plan ancestors — the
	// invariant trivial-tuple sharing relies on.
	e := NewEnum(paperSchema(t))
	for _, id := range e.AllNodes() {
		for _, anc := range e.PlanPath(id) {
			if !e.Refines(id, anc) {
				t.Errorf("%s does not refine plan ancestor %s", e.Name(id), e.Name(anc))
			}
		}
	}
}

// complexTimeSchema is the 1-dimensional cube of Figure 5.
func complexTimeSchema(t *testing.T) *hierarchy.Schema {
	t.Helper()
	const days = 728
	d := &hierarchy.Dim{
		Name: "time",
		Levels: []hierarchy.Level{
			{Name: "day", Card: days, RollsUpTo: []int{1, 2}},
			{Name: "week", Card: 104, Map: hierarchy.BuildContiguousMap(days, 104), RollsUpTo: []int{3}},
			{Name: "month", Card: 24, Map: hierarchy.BuildContiguousMap(days, 24), RollsUpTo: []int{3}},
			{Name: "year", Card: 2, Map: hierarchy.BuildContiguousMap(days, 2)},
		},
	}
	if err := d.Finalize(); err != nil {
		t.Fatal(err)
	}
	s, err := hierarchy.NewSchema(d)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestComplexHierarchyPlanMatchesFigure5b(t *testing.T) {
	e := NewEnum(complexTimeSchema(t))
	if e.NumNodes() != 5 {
		t.Fatalf("NumNodes = %d, want 5", e.NumNodes())
	}
	// Level indices: day=0, week=1, month=2, year=3, ALL=4. Node id of a
	// 1-dim schema is just the level.
	root := rootID(e)
	if root != 4 {
		t.Fatalf("root = %d", root)
	}
	if got := e.PlanChildren(root); !reflect.DeepEqual(got, []NodeID{3}) {
		t.Errorf("children(∅) = %v, want [year]", got)
	}
	if got := e.PlanChildren(3); !reflect.DeepEqual(got, []NodeID{1, 2}) {
		t.Errorf("children(year) = %v, want [week month]", got)
	}
	if got := e.PlanChildren(1); !reflect.DeepEqual(got, []NodeID{0}) {
		t.Errorf("children(week) = %v, want [day]", got)
	}
	if got := e.PlanChildren(2); len(got) != 0 {
		t.Errorf("children(month) = %v, want none (month→day edge discarded)", got)
	}
	if got := e.PlanChildren(0); len(got) != 0 {
		t.Errorf("children(day) = %v", got)
	}
	// Every node still covered exactly once.
	seen := map[NodeID]bool{}
	var walk func(id NodeID)
	walk = func(id NodeID) {
		seen[id] = true
		for _, c := range e.PlanChildren(id) {
			walk(c)
		}
	}
	walk(root)
	if len(seen) != 5 {
		t.Errorf("plan covers %d of 5 nodes", len(seen))
	}
}

func TestPlanCoverageRandomSchemas(t *testing.T) {
	// Property: for random linear schemas the plan tree covers every
	// lattice node exactly once.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 15; trial++ {
		numDims := 1 + rng.Intn(4)
		dims := make([]*hierarchy.Dim, numDims)
		for i := range dims {
			numLevels := 1 + rng.Intn(3)
			cards := make([]int32, numLevels)
			names := make([]string, numLevels)
			cards[0] = int32(4 + rng.Intn(20))
			names[0] = string(rune('A'+i)) + "0"
			maps := make([][]int32, 0, numLevels-1)
			prev := cards[0]
			var prevMap []int32
			for l := 1; l < numLevels; l++ {
				c := prev/2 + 1
				cards[l] = c
				names[l] = string(rune('A'+i)) + string(rune('0'+l))
				step := hierarchy.BuildContiguousMap(prev, c)
				if prevMap == nil {
					prevMap = step
				} else {
					prevMap = hierarchy.ComposeMaps(prevMap, step)
				}
				maps = append(maps, prevMap)
				prev = c
			}
			d, err := hierarchy.NewLinearDim(string(rune('A'+i)), names, cards, maps)
			if err != nil {
				t.Fatal(err)
			}
			dims[i] = d
		}
		s, err := hierarchy.NewSchema(dims...)
		if err != nil {
			t.Fatal(err)
		}
		e := NewEnum(s)
		seen := map[NodeID]int{}
		var walk func(id NodeID)
		walk = func(id NodeID) {
			seen[id]++
			for _, c := range e.PlanChildren(id) {
				walk(c)
			}
		}
		walk(rootID(e))
		if int64(len(seen)) != e.NumNodes() {
			t.Fatalf("trial %d: covered %d of %d nodes", trial, len(seen), e.NumNodes())
		}
		for id, n := range seen {
			if n != 1 {
				t.Fatalf("trial %d: node %s visited %d times", trial, e.Name(id), n)
			}
		}
	}
}

func TestPlanCoverageRandomComplexHierarchies(t *testing.T) {
	// Property: even for random DAG (complex) hierarchies, the plan tree
	// visits every lattice node exactly once and refinement holds along
	// plan paths.
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 10; trial++ {
		numDims := 1 + rng.Intn(3)
		dims := make([]*hierarchy.Dim, numDims)
		for i := range dims {
			numLevels := 2 + rng.Intn(3)
			levels := make([]hierarchy.Level, numLevels)
			baseCard := int32(8 + rng.Intn(24))
			levels[0] = hierarchy.Level{Name: "l0", Card: baseCard}
			// Each level's map composes the one below it with a step
			// map, so every level-to-coarser-level edge factors.
			for l := 1; l < numLevels; l++ {
				card := baseCard / int32(1<<l)
				if card < 1 {
					card = 1
				}
				m := hierarchy.BuildContiguousMap(levels[l-1].Card, card)
				if l > 1 {
					m = hierarchy.ComposeMaps(levels[l-1].Map, m)
				}
				levels[l] = hierarchy.Level{Name: string(rune('a' + l)), Card: card, Map: m}
			}
			// Random roll-up DAG: every level rolls up into one or two
			// strictly coarser levels.
			for l := 0; l < numLevels-1; l++ {
				ups := []int{l + 1}
				if l+2 < numLevels && rng.Intn(2) == 0 {
					ups = append(ups, l+2+rng.Intn(numLevels-l-2))
				}
				levels[l].RollsUpTo = ups
			}
			d := &hierarchy.Dim{Name: string(rune('A' + i)), Levels: levels}
			if err := d.Finalize(); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			dims[i] = d
		}
		s, err := hierarchy.NewSchema(dims...)
		if err != nil {
			t.Fatal(err)
		}
		e := NewEnum(s)
		seen := map[NodeID]int{}
		var walk func(id NodeID)
		walk = func(id NodeID) {
			seen[id]++
			for _, c := range e.PlanChildren(id) {
				walk(c)
			}
		}
		walk(rootID(e))
		if int64(len(seen)) != e.NumNodes() {
			t.Fatalf("trial %d: covered %d of %d nodes", trial, len(seen), e.NumNodes())
		}
		for id, n := range seen {
			if n != 1 {
				t.Fatalf("trial %d: node %s visited %d times", trial, e.Name(id), n)
			}
			for _, anc := range e.PlanPath(id) {
				if !e.Refines(id, anc) {
					t.Fatalf("trial %d: %s does not refine plan ancestor %s", trial, e.Name(id), e.Name(anc))
				}
			}
		}
	}
}
