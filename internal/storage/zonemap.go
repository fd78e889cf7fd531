package storage

import (
	"math"
	"sort"

	"cure/internal/hierarchy"
)

// Zone maps are the sparse indexes of the query path: per node, per
// extent (NT, TT, CAT), Finalize records the min/max code of every
// dimension-level over blocks of ZoneBlockRows tuples, in the exact
// order query-time scans visit them. A selective query compares its
// predicate ranges against the block bounds and skips blocks that cannot
// match; on extents CURE+ left sorted (TT row-ids, format-(a) CATs) the
// bounds are monotone and the candidate window narrows by binary search
// instead of a linear sweep.

// DefaultZoneBlockRows is the zone-map block granularity (rows per
// block). Extents smaller than one block carry no zone map — pruning a
// sub-block extent saves less than the manifest bytes it costs.
const DefaultZoneBlockRows = 256

// Sentinel bounds of a slot whose value is unknown for a row (e.g. the
// non-grouped dimensions of a CURE_DR NT extent): the full int32 range,
// which no predicate can exclude.
const (
	zoneWideLo = math.MinInt32
	zoneWideHi = math.MaxInt32
)

// ZoneIndex is the zone map of one extent: for each block of BlockRows
// consecutive rows and each slot (one per real dimension-level, see
// ZoneSlots), the inclusive [Lo, Hi] code bounds, stored flat as
// block-major arrays of numBlocks·Slots entries. Sorted[s] marks slots
// whose per-block bounds are globally ordered (hi of block b ≤ lo of
// block b+1), enabling binary search.
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

// ZoneSlots returns the slot layout of a schema: slot offs[d]+l holds
// the bounds of dimension d at real level l (the ALL level needs no
// slot — it has a single code). The second result is the total slot
// count.
func ZoneSlots(hier *hierarchy.Schema) ([]int, int) {
	offs := make([]int, hier.NumDims())
	n := 0
	for d, dim := range hier.Dims {
		offs[d] = n
		n += dim.AllLevel()
	}
	return offs, n
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
			b.lo = append(b.lo, zoneWideHi)
			b.hi = append(b.hi, zoneWideLo)
		}
	}
	base = len(b.lo) - b.slots
	k = min(n, b.blockRows-b.n)
	b.n = (b.n + k) % b.blockRows
	return base, k
}

// addSparse folds one row known only in the listed slots (codes[i] is
// the value of slot slotIdx[i]); the rest stay unknown.
func (b *zoneBuilder) addSparse(slotIdx []int, codes []int32) {
	base, _ := b.claim(1)
	for i, s := range slotIdx {
		c := codes[i]
		if c < b.lo[base+s] {
			b.lo[base+s] = c
		}
		if c > b.hi[base+s] {
			b.hi[base+s] = c
		}
	}
}

// finish widens never-touched slots to the full range (unknown must not
// prune), computes the per-slot sortedness bits, and returns the index
// (nil when no rows were added).
func (b *zoneBuilder) finish() *ZoneIndex {
	if len(b.lo) == 0 {
		return nil
	}
	for i := range b.lo {
		if b.lo[i] > b.hi[i] {
			b.lo[i] = zoneWideLo
			b.hi[i] = zoneWideHi
		}
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
