package query

import (
	"math/rand"
	"path/filepath"
	"testing"

	"cure/internal/core"
	"cure/internal/hierarchy"
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
// slice over a hierarchical cube skips blocks and answers like the
// brute-force group-by, while a -no-index engine over the same store
// skips nothing and answers the same.
func TestSliceQueryZonePruning(t *testing.T) {
	dir, _, ft := buildIndexedCube(t, false)
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

	s := Spec{Node: idx.Enum().Encode([]int{0, 0}), Where: []Predicate{{Dim: 0, Level: 0, Lo: 17, Hi: 17}}}
	if checkSpec(t, idx, ft, s) == 0 {
		t.Fatal("slice returned nothing — selection is vacuous")
	}
	checkSpec(t, full, ft, s)
	if skipped := regIdx.Snapshot().Counters["query.index.blocks_skipped"]; skipped == 0 {
		t.Error("selective slice skipped no blocks")
	}
	if skipped := regFull.Snapshot().Counters["query.index.blocks_skipped"]; skipped != 0 {
		t.Errorf("-no-index engine skipped %d blocks", skipped)
	}
}

// TestZonePruningCoarserLevel checks pruning through a coarser-level
// predicate (the A1 slot prunes directly) on every node that groups A at
// A0 or A1, each held to the brute-force answer.
func TestZonePruningCoarserLevel(t *testing.T) {
	dir, _, ft := buildIndexedCube(t, false)
	reg := obsv.NewRegistry()
	idx, err := Open(dir, Options{CacheFraction: 1, PinAggregates: true, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()

	preds := []Predicate{{Dim: 0, Level: 1, Lo: 2, Hi: 3}}
	for _, id := range idx.Enum().AllNodes() {
		// The predicate references A1; nodes grouping A more coarsely
		// reject it by design.
		if idx.Enum().Decode(id, nil)[0] > 1 {
			continue
		}
		checkSpec(t, idx, ft, Spec{Node: id, Where: preds})
	}
	snap := reg.Snapshot().Counters
	if snap["query.index.hits"] == 0 || snap["query.index.blocks_skipped"] == 0 {
		t.Errorf("zone maps kept %d and skipped %d blocks", snap["query.index.hits"], snap["query.index.blocks_skipped"])
	}
}

// TestZonePruningDR checks pruning on a CURE_DR cube, whose NT zone maps
// are built from the inline codes.
func TestZonePruningDR(t *testing.T) {
	dir, _, ft := buildIndexedCube(t, true)
	reg := obsv.NewRegistry()
	idx, err := Open(dir, Options{CacheFraction: 1, PinAggregates: true, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	// DR predicates target the node's own level.
	s := Spec{Node: idx.Enum().Encode([]int{0, 0}), Where: []Predicate{{Dim: 0, Level: 0, Lo: 10, Hi: 20}}}
	if checkSpec(t, idx, ft, s) == 0 {
		t.Fatal("DR selection answered nothing")
	}
	if reg.Snapshot().Counters["query.index.blocks_skipped"] == 0 {
		t.Error("DR selection skipped no blocks")
	}
}
