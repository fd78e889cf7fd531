package query

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"

	"cure/internal/core"
	"cure/internal/hierarchy"
	"cure/internal/lattice"
	"cure/internal/obsv"
	"cure/internal/relation"
)

// buildIndexedCube builds a hierarchical cube with fine-grained zone maps
// (8-row blocks) so small test extents still get indexed.
func buildIndexedCube(t *testing.T, dr bool) (string, *hierarchy.Schema, *relation.FactTable) {
	t.Helper()
	m := hierarchy.BuildContiguousMap(64, 8)
	a, err := hierarchy.NewLinearDim("A", []string{"A0", "A1"}, []int32{64, 8}, [][]int32{m})
	if err != nil {
		t.Fatal(err)
	}
	hier, err := hierarchy.NewSchema(a, hierarchy.NewFlatDim("B", 8))
	if err != nil {
		t.Fatal(err)
	}
	schema := &relation.Schema{DimNames: []string{"A", "B"}, MeasureNames: []string{"M"}}
	const rows = 4000
	ft := relation.NewFactTable(schema, rows)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < rows; i++ {
		ft.Append([]int32{int32(rng.Intn(64)), int32(rng.Intn(8))}, []float64{float64(rng.Intn(9))})
	}
	dir := filepath.Join(t.TempDir(), "cube")
	if _, err := core.BuildFromTable(ft, core.Options{
		Dir: dir, Hier: hier,
		AggSpecs:      []relation.AggSpec{{Func: relation.AggSum, Measure: 0}, {Func: relation.AggCount}},
		DimsInline:    dr,
		ZoneBlockRows: 8,
	}); err != nil {
		t.Fatal(err)
	}
	return dir, hier, ft
}

// collectWhere renders a predicate query's result multiset to sorted
// strings.
func collectWhere(t *testing.T, eng *Engine, node lattice.NodeID, preds []Predicate) []string {
	t.Helper()
	var rows []string
	if err := eng.NodeQueryWhere(node, preds, func(r Row) error {
		rows = append(rows, fmt.Sprintf("%v|%v", r.Dims, r.Aggrs))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	sort.Strings(rows)
	return rows
}

func TestZoneMapsWrittenToManifest(t *testing.T) {
	dir, _, _ := buildIndexedCube(t, false)
	eng, err := OpenDefault(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	indexed := 0
	for _, id := range eng.Enum().AllNodes() {
		nm, ok := eng.Manifest().NodeMeta(id)
		if !ok {
			continue
		}
		for _, z := range []interface{ NumBlocks() int }{nm.NTZones, nm.TTZones, nm.CATZones} {
			if n := z.NumBlocks(); n > 0 {
				indexed++
			}
		}
	}
	if indexed == 0 {
		t.Fatal("no extent of the cube carries a zone map")
	}
}

// TestSliceQueryZonePruning is the headline acceptance check: a selective
// slice over a hierarchical cube skips blocks, and the indexed results
// are identical to a full-scan (-no-index) run over the same store.
func TestSliceQueryZonePruning(t *testing.T) {
	dir, _, _ := buildIndexedCube(t, false)
	regIdx := obsv.NewRegistry()
	idx, err := Open(dir, Options{CacheFraction: 1, PinAggregates: true, Metrics: regIdx})
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	regFull := obsv.NewRegistry()
	full, err := Open(dir, Options{CacheFraction: 1, PinAggregates: true, Metrics: regFull, NoIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()

	slice := func(eng *Engine) []string {
		var rows []string
		base := eng.Enum().Encode([]int{0, 0})
		if err := eng.SliceQuery(base, 0, 0, 17, func(r Row) error {
			rows = append(rows, fmt.Sprintf("%v|%v", r.Dims, r.Aggrs))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		sort.Strings(rows)
		return rows
	}
	got, want := slice(idx), slice(full)
	if len(got) == 0 {
		t.Fatal("slice returned nothing — selection is vacuous")
	}
	if len(got) != len(want) {
		t.Fatalf("indexed %d rows, full scan %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: indexed %q != full %q", i, got[i], want[i])
		}
	}
	if skipped := regIdx.Snapshot().Counters["query.index.blocks_skipped"]; skipped == 0 {
		t.Error("selective slice skipped no blocks")
	}
	if skipped := regFull.Snapshot().Counters["query.index.blocks_skipped"]; skipped != 0 {
		t.Errorf("-no-index engine skipped %d blocks", skipped)
	}
}

// TestZonePruningCoarserLevel checks pruning through a coarser-level
// predicate (the zone map has one slot per level, so the A1 slot prunes
// directly).
func TestZonePruningCoarserLevel(t *testing.T) {
	dir, _, _ := buildIndexedCube(t, false)
	reg := obsv.NewRegistry()
	idx, err := Open(dir, Options{CacheFraction: 1, PinAggregates: true, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	full, err := Open(dir, Options{CacheFraction: 1, PinAggregates: true, NoIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()

	preds := []Predicate{{Dim: 0, Level: 1, Lo: 2, Hi: 3}}
	for n, id := range idx.Enum().AllNodes() {
		// The predicate references A1; nodes grouping A more coarsely
		// reject it by design.
		if idx.Enum().Decode(id, nil)[0] > 1 {
			continue
		}
		got := collectWhere(t, idx, id, preds)
		want := collectWhere(t, full, id, preds)
		if len(got) != len(want) {
			t.Fatalf("node %d: indexed %d rows, full %d", n, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("node %d row %d: %q != %q", n, i, got[i], want[i])
			}
		}
	}
	if reg.Snapshot().Counters["query.index.hits"] == 0 {
		t.Error("no zone map was ever consulted")
	}
}

// TestZonePruningDR checks indexed vs full-scan equivalence on a CURE_DR
// cube, whose NT zone maps are built from the inline codes.
func TestZonePruningDR(t *testing.T) {
	dir, _, _ := buildIndexedCube(t, true)
	idx, err := OpenDefault(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	full, err := Open(dir, Options{CacheFraction: 1, PinAggregates: true, NoIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	// DR predicates target the node's own level.
	preds := []Predicate{{Dim: 0, Level: 0, Lo: 10, Hi: 20}}
	base := idx.Enum().Encode([]int{0, 0})
	got := collectWhere(t, idx, base, preds)
	want := collectWhere(t, full, base, preds)
	if len(got) == 0 || len(got) != len(want) {
		t.Fatalf("DR indexed %d rows, full %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("DR row %d: %q != %q", i, got[i], want[i])
		}
	}
}
