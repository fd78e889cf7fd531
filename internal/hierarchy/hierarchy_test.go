package hierarchy

import (
	"bytes"
	"os"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// paperDimA builds the running example's dimension A: A0 → A1 → A2 with
// cardinalities 8 → 4 → 2.
func paperDimA(t *testing.T) *Dim {
	t.Helper()
	m01 := BuildContiguousMap(8, 4)
	m12 := BuildContiguousMap(4, 2)
	d, err := NewLinearDim("A", []string{"A0", "A1", "A2"}, []int32{8, 4, 2}, [][]int32{m01, ComposeMaps(m01, m12)})
	if err != nil {
		t.Fatalf("NewLinearDim: %v", err)
	}
	return d
}

func TestLinearDimBasics(t *testing.T) {
	d := paperDimA(t)
	if d.NumLevels() != 4 { // 3 real + ALL
		t.Errorf("NumLevels = %d, want 4", d.NumLevels())
	}
	if d.AllLevel() != 3 {
		t.Errorf("AllLevel = %d, want 3", d.AllLevel())
	}
	if !d.IsAll(3) || d.IsAll(2) {
		t.Error("IsAll misidentifies levels")
	}
	if d.Card(0) != 8 || d.Card(1) != 4 || d.Card(2) != 2 || d.Card(3) != 1 {
		t.Errorf("Card sequence wrong: %d %d %d %d", d.Card(0), d.Card(1), d.Card(2), d.Card(3))
	}
	for l := 0; l < d.AllLevel(); l++ {
		if d.DashParent(l) != l+1 {
			t.Errorf("linear dim: DashParent(%d) = %d, want %d", l, d.DashParent(l), l+1)
		}
	}
	if d.LevelName(3) != "ALL" || d.LevelName(0) != "A0" {
		t.Error("LevelName wrong")
	}
}

func TestMapCode(t *testing.T) {
	d := paperDimA(t)
	// Contiguous maps: base codes 0..7 → level1 0,0,1,1,2,2,3,3 → level2 0,0,0,0,1,1,1,1.
	for base := int32(0); base < 8; base++ {
		if got, want := d.MapCode(base, 0), base; got != want {
			t.Errorf("MapCode(%d, 0) = %d", base, got)
		}
		if got, want := d.MapCode(base, 1), base/2; got != want {
			t.Errorf("MapCode(%d, 1) = %d, want %d", base, got, want)
		}
		if got, want := d.MapCode(base, 2), base/4; got != want {
			t.Errorf("MapCode(%d, 2) = %d, want %d", base, got, want)
		}
		if got := d.MapCode(base, 3); got != 0 {
			t.Errorf("MapCode(%d, ALL) = %d", base, got)
		}
	}
}

func TestDashTreeLinear(t *testing.T) {
	d := paperDimA(t)
	// Chain: ALL(3) → 2 → 1 → 0.
	if got := d.TopUnderAll(); !reflect.DeepEqual(got, []int{2}) {
		t.Errorf("TopUnderAll = %v", got)
	}
	if got := d.DashChildren(2); !reflect.DeepEqual(got, []int{1}) {
		t.Errorf("DashChildren(2) = %v", got)
	}
	if got := d.DashChildren(0); len(got) != 0 {
		t.Errorf("DashChildren(0) = %v", got)
	}
	if d.DashParent(0) != 1 || d.DashParent(1) != 2 || d.DashParent(2) != 3 {
		t.Error("DashParent chain wrong")
	}
}

// complexTimeDim reproduces Figure 5a: day → {week, month}, month → year,
// week → year, with |week| > |month| so the modified rule 2 must route
// day's dashed edge through week.
func complexTimeDim(t *testing.T) *Dim {
	t.Helper()
	const days = 728
	d := &Dim{
		Name: "time",
		Levels: []Level{
			{Name: "day", Card: days, RollsUpTo: []int{1, 2}},
			{Name: "week", Card: 104, Map: BuildContiguousMap(days, 104), RollsUpTo: []int{3}},
			{Name: "month", Card: 24, Map: BuildContiguousMap(days, 24), RollsUpTo: []int{3}},
			{Name: "year", Card: 2, Map: BuildContiguousMap(days, 2)},
		},
	}
	if err := d.Finalize(); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	return d
}

func TestComplexHierarchyModifiedRule2(t *testing.T) {
	d := complexTimeDim(t)
	if len(d.Levels[0].RollsUpTo) < 2 {
		t.Error("complex dim: day rolls up into one level only")
	}
	// day's incoming dashed edge must come from week (card 104 > 24).
	if got := d.DashParent(0); got != 1 {
		t.Errorf("DashParent(day) = %s, want week", d.LevelName(got))
	}
	// The month→day edge is discarded: month has no dashed children.
	if got := d.DashChildren(2); len(got) != 0 {
		t.Errorf("DashChildren(month) = %v, want none", got)
	}
	// year fans out to both week and month.
	if got := d.DashChildren(3); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Errorf("DashChildren(year) = %v, want [week month]", got)
	}
	// year hangs under ALL.
	if got := d.TopUnderAll(); !reflect.DeepEqual(got, []int{3}) {
		t.Errorf("TopUnderAll = %v", got)
	}
}

func TestDashTreeCoversAllLevels(t *testing.T) {
	// Property: for any dimension we can build, every level is reachable
	// from ALL, i.e. the plan covers every node.
	for _, d := range []*Dim{paperDimA(t), complexTimeDim(t), NewFlatDim("F", 10)} {
		seen := map[int]bool{}
		var walk func(l int)
		walk = func(l int) {
			seen[l] = true
			for _, c := range d.DashChildren(l) {
				walk(c)
			}
		}
		walk(d.AllLevel())
		for l := 0; l < d.AllLevel(); l++ {
			if !seen[l] {
				t.Errorf("%s: level %s unreachable", d.Name, d.LevelName(l))
			}
		}
	}
}

func TestFinalizeRejectsBadDims(t *testing.T) {
	bad := []*Dim{
		{Name: "empty"},
		{Name: "badcard", Levels: []Level{{Name: "l0", Card: 0}}},
		{Name: "basemap", Levels: []Level{{Name: "l0", Card: 2, Map: []int32{0, 0}}}},
		{Name: "shortmap", Levels: []Level{
			{Name: "l0", Card: 4, RollsUpTo: []int{1}},
			{Name: "l1", Card: 2, Map: []int32{0, 0}},
		}},
		{Name: "oob", Levels: []Level{
			{Name: "l0", Card: 2, RollsUpTo: []int{1}},
			{Name: "l1", Card: 1, Map: []int32{0, 5}},
		}},
		{Name: "badrollup", Levels: []Level{
			{Name: "l0", Card: 2, RollsUpTo: []int{0}},
		}},
		{Name: "unreachable", Levels: []Level{
			// level 1 does not roll up anywhere and is not top-of-chain
			// in the dash tree from ALL... actually any parentless level
			// hangs under ALL, so craft a cycle-ish invalid rollup index.
			{Name: "l0", Card: 2, RollsUpTo: []int{2}},
			{Name: "l1", Card: 2, Map: []int32{0, 1}},
		}},
		{Name: "nofactor", Levels: []Level{
			// x1 member 0 holds base codes 0 and 1, which x2 splits.
			{Name: "x0", Card: 4, RollsUpTo: []int{1}},
			{Name: "x1", Card: 2, Map: []int32{0, 0, 1, 1}, RollsUpTo: []int{2}},
			{Name: "x2", Card: 2, Map: []int32{0, 1, 0, 1}},
		}},
	}
	for _, d := range bad {
		if err := d.Finalize(); err == nil {
			t.Errorf("%s: invalid dim accepted", d.Name)
		}
	}
	err := bad[len(bad)-1].Finalize()
	if err == nil || !strings.Contains(err.Error(), "nofactor/x1: rolls up to x2, but its member 0 maps to two x2 members") {
		t.Errorf("non-factoring edge: error %v does not name the dimension, both levels and member 0", err)
	}
}

func TestNewLinearDimArityChecks(t *testing.T) {
	if _, err := NewLinearDim("X", []string{"a", "b"}, []int32{4}, nil); err == nil {
		t.Error("mismatched names/cards accepted")
	}
	if _, err := NewLinearDim("X", []string{"a", "b"}, []int32{4, 2}, nil); err == nil {
		t.Error("missing maps accepted")
	}
}

func TestSchema(t *testing.T) {
	a := paperDimA(t)
	b := NewFlatDim("B", 5)
	s, err := NewSchema(a, b)
	if err != nil {
		t.Fatalf("NewSchema: %v", err)
	}
	if s.NumDims() != 2 {
		t.Errorf("NumDims = %d", s.NumDims())
	}
	// A has 4 levels incl. ALL, B has 2 → 8 nodes.
	if n := numNodes(s); n != 8 {
		t.Errorf("nodes = %d, want 8", n)
	}
	if _, err := NewSchema(); err == nil {
		t.Error("empty schema accepted")
	}
	if _, err := NewSchema(a, paperDimA(t)); err == nil {
		t.Error("duplicate dimension name accepted")
	}
	if _, err := NewSchema(&Dim{Name: "raw", Levels: []Level{{Name: "l", Card: 1}}}); err == nil {
		t.Error("unfinalized dim accepted")
	}
}

func TestPaperNodeCount(t *testing.T) {
	// §3: A0→A1→A2, B0→B1, C0 gives (3+1)(2+1)(1+1) = 24 nodes.
	a := paperDimA(t)
	bm := BuildContiguousMap(6, 3)
	b, err := NewLinearDim("B", []string{"B0", "B1"}, []int32{6, 3}, [][]int32{bm})
	if err != nil {
		t.Fatal(err)
	}
	c := NewFlatDim("C", 4)
	s, err := NewSchema(a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	if n := numNodes(s); n != 24 {
		t.Errorf("nodes = %d, want 24", n)
	}
}

// numNodes is the size of the schema's lattice, the paper's ∏(𝓛_i + 1)
// with 𝓛_i counted excluding ALL (lattice.Enum holds the real count).
func numNodes(s *Schema) int {
	n := 1
	for _, d := range s.Dims {
		n *= d.NumLevels()
	}
	return n
}

func TestFlatten(t *testing.T) {
	a := paperDimA(t)
	s, err := NewSchema(a, NewFlatDim("B", 5))
	if err != nil {
		t.Fatal(err)
	}
	f := s.Flatten()
	if n := numNodes(f); n != 4 { // 2 levels each incl. ALL → 2*2
		t.Errorf("flat nodes = %d, want 4", n)
	}
	if f.Dims[0].Levels[0].Card != 8 {
		t.Error("flatten lost base cardinality")
	}
}

func TestBuildContiguousMapProperties(t *testing.T) {
	f := func(baseCard, parentCard uint16) bool {
		b := int32(baseCard%5000) + 1
		p := int32(parentCard%200) + 1
		if p > b {
			p = b
		}
		m := BuildContiguousMap(b, p)
		// Monotone, in-range, and onto.
		seen := make([]bool, p)
		prev := int32(0)
		for _, c := range m {
			if c < prev || c >= p {
				return false
			}
			prev = c
			seen[c] = true
		}
		for _, ok := range seen {
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestComposeMaps(t *testing.T) {
	baseToMid := []int32{0, 0, 1, 1, 2, 2}
	midToTop := []int32{0, 0, 1}
	got := ComposeMaps(baseToMid, midToTop)
	want := []int32{0, 0, 0, 0, 1, 1}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ComposeMaps = %v, want %v", got, want)
	}
}

func TestFactorsThrough(t *testing.T) {
	d := paperDimA(t)
	// Contiguous chain maps factor: level 2 through level 1.
	if !d.FactorsThrough(1, 2) {
		t.Error("consistent chain does not factor")
	}
	if !d.FactorsThrough(0, 1) || !d.FactorsThrough(0, 3) || !d.FactorsThrough(2, 3) {
		t.Error("trivial factorizations rejected")
	}
	if d.FactorsThrough(2, 1) || d.FactorsThrough(1, 1) {
		t.Error("non-increasing levels accepted")
	}
	// An inconsistent pair: level 1 groups {0,1},{2,3}; level 2 groups
	// {0,2},{1,3} — level 2 does not factor through level 1.
	bad := &Dim{
		Name: "X",
		Levels: []Level{
			{Name: "x0", Card: 4, RollsUpTo: []int{1, 2}},
			{Name: "x1", Card: 2, Map: []int32{0, 0, 1, 1}},
			{Name: "x2", Card: 2, Map: []int32{0, 1, 0, 1}},
		},
	}
	if err := bad.Finalize(); err != nil {
		t.Fatal(err)
	}
	if bad.FactorsThrough(1, 2) {
		t.Error("inconsistent maps reported as factoring")
	}
}

func TestSchemaFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/hier.gob"
	a := paperDimA(t)
	ct := complexTimeDim(t)
	s, err := NewSchema(a, ct, NewFlatDim("F", 9))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSchema(&buf, s); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSchemaFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumDims() != 3 || numNodes(back) != numNodes(s) {
		t.Fatalf("round trip lost shape: %d dims, %d nodes", back.NumDims(), numNodes(back))
	}
	// Maps survive.
	if back.Dims[0].MapCode(7, 2) != a.MapCode(7, 2) {
		t.Error("level map lost")
	}
	// Dashed trees are recomputed: complex time still routes day ← week.
	if back.Dims[1].DashParent(0) != 1 {
		t.Error("dashed tree not rebuilt after load")
	}
	// Error paths.
	if _, err := ReadSchemaFile(dir + "/absent.gob"); err == nil {
		t.Error("missing file accepted")
	}
	if err := writeGarbage(dir+"/garbage.gob", "not gob at all"); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSchemaFile(dir + "/garbage.gob"); err == nil {
		t.Error("garbage accepted")
	}
}

func writeGarbage(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}
