package storage

import (
	"math"
	"testing"

	"cure/internal/hierarchy"
)

func zoneTestSchema(t *testing.T) *hierarchy.Schema {
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
	return hier
}

func TestZoneSlots(t *testing.T) {
	hier := zoneTestSchema(t)
	offs, n := ZoneSlots(hier)
	// A's A1 map is non-decreasing, so A keeps its base slot only; B is
	// flat. ALL levels get no slot.
	if n != 2 {
		t.Fatalf("slots = %d, want 2", n)
	}
	if offs[0] != 0 || offs[1] != 1 {
		t.Fatalf("offs = %v, want [0 1]", offs)
	}
}

// TestZoneLayoutLower pins the lowering rule on a dimension with a
// non-decreasing level (A1: base codes 4c..4c+3 roll up to c) and a
// non-monotone one (parity), which keeps its own slot after the base.
func TestZoneLayoutLower(t *testing.T) {
	parity := make([]int32, 12)
	for c := range parity {
		parity[c] = int32(c % 2)
	}
	a := &hierarchy.Dim{Name: "A", Levels: []hierarchy.Level{
		{Name: "A0", Card: 12, RollsUpTo: []int{1, 2}},
		{Name: "A1", Card: 3, Map: hierarchy.BuildContiguousMap(12, 3)},
		{Name: "Parity", Card: 2, Map: parity},
	}}
	if err := a.Finalize(); err != nil {
		t.Fatal(err)
	}
	hier, err := hierarchy.NewSchema(a, hierarchy.NewFlatDim("B", 5))
	if err != nil {
		t.Fatal(err)
	}
	zl := NewZoneLayout(hier)
	if offs, n := ZoneSlots(hier); n != 3 || offs[0] != 0 || offs[1] != 2 {
		t.Fatalf("ZoneSlots = %v, %d; want [0 2], 3", offs, n)
	}
	const maxI, minI = math.MaxInt32, math.MinInt32
	for _, c := range []struct {
		dim, level int
		lo, hi     int32
		want       ZonePred
	}{
		{0, 0, 3, 5, ZonePred{0, 3, 5}},         // the base keeps its range
		{1, 0, 2, 2, ZonePred{2, 2, 2}},         // B's base slot
		{0, 2, 1, 1, ZonePred{1, 1, 1}},         // parity keeps its own slot
		{0, 1, 1, 1, ZonePred{0, 4, 7}},         // one A1 member: its base codes
		{0, 1, 0, 2, ZonePred{0, 0, 11}},        // the whole domain
		{0, 1, -5, 0, ZonePred{0, 0, 3}},        // partly below the domain
		{0, 1, 2, 9, ZonePred{0, 8, 11}},        // partly above it
		{0, 1, 3, 9, ZonePred{0, 12, 11}},       // wholly above: no base code
		{0, 1, -9, -1, ZonePred{0, 0, -1}},      // wholly below: no base code
		{0, 1, 1, maxI, ZonePred{0, 4, 11}},     // hi = MaxInt32 does not overflow
		{0, 1, minI, maxI, ZonePred{0, 0, 11}},  // everything
		{0, 1, maxI, maxI, ZonePred{0, 12, 11}}, // nothing
		{0, 1, minI, minI, ZonePred{0, 0, -1}},  // nothing
	} {
		if got := zl.Lower(c.dim, c.level, c.lo, c.hi); got != c.want {
			t.Errorf("Lower(%d, %d, %d, %d) = %+v, want %+v", c.dim, c.level, c.lo, c.hi, got, c.want)
		}
	}
}

// buildIndex folds rows of codes (one []int32 per row, one code per slot)
// through the zone builder, each slot the base of a flat dimension.
func buildIndex(blockRows int, rows [][]int32) *ZoneIndex {
	n := len(rows[0])
	zl := &ZoneLayout{levels: make([][]zoneLevel, n), slots: n}
	cols := make([][]int32, n)
	for s := range cols {
		zl.levels[s] = []zoneLevel{{slot: s}}
		for _, r := range rows {
			cols[s] = append(cols[s], r[s])
		}
	}
	zb := newZoneBuilder(blockRows, n)
	zl.fold(zb, cols, len(rows))
	return zb.finish()
}

func TestPruneZonesUnsorted(t *testing.T) {
	// One slot, block size 2, 7 rows (last block partial); values chosen
	// so the bounds are NOT monotone — forces the linear path.
	z := buildIndex(2, [][]int32{{5}, {9}, {1}, {2}, {8}, {7}, {3}})
	if z.NumBlocks() != 4 {
		t.Fatalf("blocks = %d, want 4", z.NumBlocks())
	}
	if z.Sorted != nil && z.sortedSlot(0) {
		t.Fatal("non-monotone slot flagged sorted")
	}
	// [1,3] matches blocks 1 ([1,2]) and 3 ([3,3]) only.
	ranges, kept, skipped := PruneZones(z, 7, []ZonePred{{Slot: 0, Lo: 1, Hi: 3}})
	if kept != 2 || skipped != 2 {
		t.Fatalf("kept=%d skipped=%d, want 2/2", kept, skipped)
	}
	want := []RowRange{{2, 4}, {6, 7}}
	if len(ranges) != len(want) || ranges[0] != want[0] || ranges[1] != want[1] {
		t.Fatalf("ranges = %v, want %v", ranges, want)
	}
	// A vacuous predicate keeps everything and merges into one range.
	ranges, kept, skipped = PruneZones(z, 7, []ZonePred{{Slot: 0, Lo: 0, Hi: 100}})
	if kept != 4 || skipped != 0 || len(ranges) != 1 || ranges[0] != (RowRange{0, 7}) {
		t.Fatalf("vacuous predicate: ranges=%v kept=%d skipped=%d", ranges, kept, skipped)
	}
	// An impossible predicate prunes every block: empty non-nil result.
	ranges, kept, _ = PruneZones(z, 7, []ZonePred{{Slot: 0, Lo: 50, Hi: 60}})
	if ranges == nil || len(ranges) != 0 || kept != 0 {
		t.Fatalf("impossible predicate: ranges=%v kept=%d", ranges, kept)
	}
	// No predicates: no pruning signal at all.
	if r, _, _ := PruneZones(z, 7, nil); r != nil {
		t.Fatalf("no preds returned %v", r)
	}
}

func TestPruneZonesSorted(t *testing.T) {
	// Monotone values → the slot is sorted and binary search narrows the
	// window before any per-block test.
	z := buildIndex(2, [][]int32{{1}, {2}, {3}, {4}, {5}, {6}, {7}, {8}})
	if !z.sortedSlot(0) {
		t.Fatal("monotone slot not flagged sorted")
	}
	ranges, kept, skipped := PruneZones(z, 8, []ZonePred{{Slot: 0, Lo: 4, Hi: 5}})
	if kept != 2 || skipped != 2 {
		t.Fatalf("kept=%d skipped=%d, want 2/2", kept, skipped)
	}
	if len(ranges) != 1 || ranges[0] != (RowRange{2, 6}) {
		t.Fatalf("ranges = %v, want [{2 6}]", ranges)
	}
	// Out-of-range predicate on a sorted slot: everything pruned.
	ranges, kept, _ = PruneZones(z, 8, []ZonePred{{Slot: 0, Lo: 100, Hi: 200}})
	if len(ranges) != 0 || kept != 0 {
		t.Fatalf("out-of-range: ranges=%v kept=%d", ranges, kept)
	}
}

func TestPruneZonesMultiPredicate(t *testing.T) {
	// Two slots: slot 0 sorted, slot 1 not; both predicates must hold.
	z := buildIndex(2, [][]int32{
		{1, 9}, {2, 9}, // block 0: s0 [1,2], s1 [9,9]
		{3, 1}, {4, 1}, // block 1: s0 [3,4], s1 [1,1]
		{5, 9}, {6, 9}, // block 2: s0 [5,6], s1 [9,9]
	})
	ranges, kept, skipped := PruneZones(z, 6, []ZonePred{
		{Slot: 0, Lo: 3, Hi: 6}, // keeps blocks 1,2
		{Slot: 1, Lo: 9, Hi: 9}, // keeps blocks 0,2
	})
	if kept != 1 || skipped != 2 {
		t.Fatalf("kept=%d skipped=%d, want 1/2", kept, skipped)
	}
	if len(ranges) != 1 || ranges[0] != (RowRange{4, 6}) {
		t.Fatalf("ranges = %v, want [{4 6}]", ranges)
	}
	// Out-of-bounds slots are ignored: the index knows nothing of them.
	ranges, _, _ = PruneZones(z, 6, []ZonePred{{Slot: 99, Lo: 0, Hi: 0}})
	if len(ranges) != 1 || ranges[0] != (RowRange{0, 6}) {
		t.Fatalf("unknown slot pruned: %v", ranges)
	}
}

func TestZoneBuilderEmpty(t *testing.T) {
	if z := newZoneBuilder(4, 2).finish(); z != nil {
		t.Fatalf("empty builder produced %+v", z)
	}
	var nilIdx *ZoneIndex
	if nilIdx.NumBlocks() != 0 {
		t.Fatal("nil index has blocks")
	}
}
