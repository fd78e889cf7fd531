package storage

import (
	"math"
	"slices"
	"sort"

	"cure/internal/hierarchy"
)

// Zone maps are the sparse indexes of the query path: per node, per
// extent (NT, TT, CAT), Finalize records the min/max base code of every
// dimension over blocks of ZoneBlockRows tuples, in the exact order
// query-time scans visit them. A predicate at a coarser level is lowered
// to a base-code range (ZoneLayout.Lower) before it meets the bounds. A
// selective query compares its predicate ranges against the block bounds
// and skips blocks that cannot match; on extents CURE+ left sorted (TT
// row-ids, format-(a) CATs) the bounds are monotone and the candidate
// window narrows by binary search instead of a linear sweep.

// DefaultZoneBlockRows is the zone-map block granularity (rows per
// block). Extents smaller than one block carry no zone map — pruning a
// sub-block extent saves less than the manifest bytes it costs.
const DefaultZoneBlockRows = 256

// ZoneIndex is the zone map of one extent: for each block of BlockRows
// consecutive rows and each slot (see ZoneLayout), the inclusive [Lo, Hi]
// code bounds, stored flat as block-major arrays of numBlocks·Slots
// entries. Sorted[s] marks slots whose per-block bounds are globally
// ordered (hi of block b ≤ lo of block b+1), enabling binary search.
type ZoneIndex struct {
	BlockRows int32   `json:"block_rows"`
	Slots     int32   `json:"slots"`
	Lo        []int32 `json:"lo"`
	Hi        []int32 `json:"hi"`
	Sorted    []bool  `json:"sorted,omitempty"`
}

// NumBlocks returns the number of blocks the index covers.
func (z *ZoneIndex) NumBlocks() int {
	if z == nil || z.Slots == 0 {
		return 0
	}
	return len(z.Lo) / int(z.Slots)
}

// sortedSlot reports whether slot s has globally ordered block bounds.
func (z *ZoneIndex) sortedSlot(s int) bool { return s < len(z.Sorted) && z.Sorted[s] }

// ZoneLayout is the slot layout of a schema's zone maps, recomputed from
// the hierarchy wherever a zone map is written or read. Each dimension
// has a slot for its base codes. A level above the base whose base→level
// Map is non-decreasing, as every generator's contiguous numbering makes
// it, has none: a predicate on it lowers to a base-code range. Any other
// level (csvload's dictionary order, a user map, a parity split) keeps a
// slot of its own, folded from the mapped codes, right after its
// dimension's base slot.
type ZoneLayout struct {
	base   []int         // dimension → its base slot
	levels [][]zoneLevel // dimension → real level
	slots  int
}

// zoneLevel is one real level of a dimension: its own slot, or -1 when
// predicates on it lower to the base slot, and its base→level map (nil at
// the base).
type zoneLevel struct {
	slot int
	m    []int32
}

// NewZoneLayout returns the zone-map layout of hier.
func NewZoneLayout(hier *hierarchy.Schema) *ZoneLayout {
	zl := &ZoneLayout{base: make([]int, hier.NumDims()), levels: make([][]zoneLevel, hier.NumDims())}
	for d, dim := range hier.Dims {
		zl.base[d] = zl.slots
		zl.slots++
		zl.levels[d] = make([]zoneLevel, dim.AllLevel())
		zl.levels[d][0].slot = zl.base[d]
		for l := 1; l < dim.AllLevel(); l++ {
			lv := zoneLevel{slot: -1, m: dim.Levels[l].Map}
			if !slices.IsSorted(lv.m) {
				lv.slot = zl.slots
				zl.slots++
			}
			zl.levels[d][l] = lv
		}
	}
	return zl
}

// ZoneSlots returns each dimension's base slot in the layout of hier, and
// the layout's slot count.
func ZoneSlots(hier *hierarchy.Schema) ([]int, int) {
	zl := NewZoneLayout(hier)
	return zl.base, zl.slots
}

// Lower turns the predicate "dimension dim at real level level lies in
// [lo, hi]" into a zone-map predicate. The base and a level with its own
// slot keep their range. A non-decreasing level m becomes the base range
// [first(lo), first(hi+1)−1], where first(c) = min{b : m[b] ≥ c}: a block
// with base bounds [bLo, bHi] holds a level code in [lo, hi] exactly when
// m[bHi] ≥ lo, i.e. bHi ≥ first(lo), and m[bLo] ≤ hi, i.e. bLo <
// first(hi+1). So every block gets the verdict the level's own bounds
// would give. The searches clamp a range outside the domain by themselves
// (first is 0 below it, len(m) above it), and first(hi+1) is searched as
// min{b : m[b] > hi}, which hi = MaxInt32 cannot overflow.
func (zl *ZoneLayout) Lower(dim, level int, lo, hi int32) ZonePred {
	lv := zl.levels[dim][level]
	if lv.slot >= 0 {
		return ZonePred{Slot: lv.slot, Lo: lo, Hi: hi}
	}
	m := lv.m
	first := sort.Search(len(m), func(b int) bool { return m[b] >= lo })
	past := sort.Search(len(m), func(b int) bool { return m[b] > hi })
	return ZonePred{Slot: zl.base[dim], Lo: int32(first), Hi: int32(past - 1)}
}

// fold folds n resolved rows into zb — base[d][i] is row i's base code in
// dimension d — keeping running bounds of each base code and of each
// level with its own slot. A block may straddle two calls: zb's fill
// carries across them.
func (zl *ZoneLayout) fold(zb *zoneBuilder, base [][]int32, n int) {
	for i := 0; i < n; {
		b, k := zb.claim(n - i)
		for d, col := range base {
			col := col[i : i+k]
			for _, lv := range zl.levels[d] {
				if lv.slot < 0 {
					continue
				}
				s := b + lv.slot
				lo, hi := zb.lo[s], zb.hi[s]
				if lv.m == nil {
					for _, c := range col {
						lo, hi = min(lo, c), max(hi, c)
					}
				} else {
					for _, c := range col {
						v := lv.m[c]
						lo, hi = min(lo, v), max(hi, v)
					}
				}
				zb.lo[s], zb.hi[s] = lo, hi
			}
		}
		i += k
	}
}

// ZonePred is one predicate lowered to zone-map terms: accept rows whose
// code in Slot falls in [Lo, Hi].
type ZonePred struct {
	Slot   int
	Lo, Hi int32
}

// RowRange is a half-open interval [Lo, Hi) of row indexes within one
// extent.
type RowRange struct{ Lo, Hi int64 }

// ZoneStats summarizes one pruning decision, the unit EXPLAIN plans and
// per-query attribution report.
type ZoneStats struct {
	// Blocks is the total number of zone-map blocks of the extent.
	Blocks int `json:"blocks"`
	// Kept and Skipped partition Blocks by the pruning verdict.
	Kept    int `json:"kept"`
	Skipped int `json:"skipped"`
	// Narrowed reports that at least one predicate hit a sorted slot and
	// shrank the candidate window by binary search (CURE+ sorted extents)
	// rather than a linear block sweep.
	Narrowed bool `json:"narrowed,omitempty"`
	// ScanRows is the number of extent rows inside the surviving ranges.
	ScanRows int64 `json:"scan_rows"`
}

// PruneZones returns the row ranges of an extent that may contain rows
// satisfying every predicate, merging adjacent surviving blocks, plus
// the numbers of blocks kept and skipped. rows is the extent's row
// count (the last block may be partial). Predicates on sorted slots
// narrow the candidate window by binary search; the rest are tested
// block by block.
func PruneZones(z *ZoneIndex, rows int64, preds []ZonePred) ([]RowRange, int, int) {
	ranges, st := PruneZonesStats(z, rows, preds)
	return ranges, st.Kept, st.Skipped
}

// PruneZonesStats is PruneZones with the full decision record: the
// surviving ranges plus block counts, whether sorted-slot narrowing
// applied, and the surviving row volume. Explain renders the decision;
// the query path tallies it into per-query counters.
func PruneZonesStats(z *ZoneIndex, rows int64, preds []ZonePred) ([]RowRange, ZoneStats) {
	nb := z.NumBlocks()
	if nb == 0 || len(preds) == 0 {
		return nil, ZoneStats{}
	}
	st := ZoneStats{Blocks: nb}
	slots := int(z.Slots)
	lo, hi := 0, nb
	for _, p := range preds {
		if p.Slot < 0 || p.Slot >= slots || !z.sortedSlot(p.Slot) {
			continue
		}
		l := sort.Search(nb, func(b int) bool { return z.Hi[b*slots+p.Slot] >= p.Lo })
		h := sort.Search(nb, func(b int) bool { return z.Lo[b*slots+p.Slot] > p.Hi })
		if l > lo {
			lo = l
		}
		if h < hi {
			hi = h
		}
	}
	st.Narrowed = lo > 0 || hi < nb
	var out []RowRange
	kept := 0
	br := int64(z.BlockRows)
	for b := lo; b < hi; b++ {
		match := true
		for _, p := range preds {
			if p.Slot < 0 || p.Slot >= slots {
				continue
			}
			if z.Hi[b*slots+p.Slot] < p.Lo || z.Lo[b*slots+p.Slot] > p.Hi {
				match = false
				break
			}
		}
		if !match {
			continue
		}
		kept++
		rLo := int64(b) * br
		rHi := rLo + br
		if rHi > rows {
			rHi = rows
		}
		if n := len(out); n > 0 && out[n-1].Hi == rLo {
			out[n-1].Hi = rHi
		} else {
			out = append(out, RowRange{rLo, rHi})
		}
	}
	if out == nil {
		out = []RowRange{} // every block pruned: scan nothing, not everything
	}
	st.Kept = kept
	st.Skipped = nb - kept
	for _, rg := range out {
		st.ScanRows += rg.Hi - rg.Lo
	}
	return out, st
}

// zoneBuilder accumulates per-block bounds while an extent streams by in
// its final on-disk order.
type zoneBuilder struct {
	blockRows int
	slots     int
	lo, hi    []int32
	n         int // rows folded into the current block
}

func newZoneBuilder(blockRows, slots int) *zoneBuilder {
	return &zoneBuilder{blockRows: blockRows, slots: slots}
}

// claim takes up to n rows into the current block — opening a fresh one,
// with empty (inverted) bounds, when the last is full — and returns the
// block's base index and the rows taken; it stops at the block's end.
func (b *zoneBuilder) claim(n int) (base, k int) {
	if b.n == 0 {
		for s := 0; s < b.slots; s++ {
			b.lo = append(b.lo, math.MaxInt32)
			b.hi = append(b.hi, math.MinInt32)
		}
	}
	base = len(b.lo) - b.slots
	k = min(n, b.blockRows-b.n)
	b.n = (b.n + k) % b.blockRows
	return base, k
}

// finish computes the per-slot sortedness bits and returns the index
// (nil when no rows were added). Every slot of a claimed block has been
// folded: each is a dimension's base or a level mapped from it.
func (b *zoneBuilder) finish() *ZoneIndex {
	if len(b.lo) == 0 {
		return nil
	}
	z := &ZoneIndex{
		BlockRows: int32(b.blockRows),
		Slots:     int32(b.slots),
		Lo:        b.lo,
		Hi:        b.hi,
	}
	nb := z.NumBlocks()
	if nb > 1 {
		sorted := make([]bool, b.slots)
		any := false
		for s := 0; s < b.slots; s++ {
			ok := true
			for blk := 1; blk < nb; blk++ {
				if z.Hi[(blk-1)*b.slots+s] > z.Lo[blk*b.slots+s] {
					ok = false
					break
				}
			}
			sorted[s] = ok
			any = any || ok
		}
		if any {
			z.Sorted = sorted
		}
	}
	return z
}
