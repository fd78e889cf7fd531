package partition

import (
	"math"

	"cure/internal/relation"
)

// nodeHash is the flat, allocation-free accumulator behind an in-memory
// node N_j. The old path kept a map[string]int32 plus one heap-allocated
// relation.Aggregator per group; at millions of groups the pointer chase
// and per-group allocs dominated the fold. nodeHash instead stores each
// group as one fixed-stride record in a flat uint64 array — key words
// (the 4-byte dimension codes packed two per word, zero-padded), source
// count, minimum row-id, then the aggregate values as float64 bits —
// addressed through one open-addressing table. The interleaving is
// deliberate: the fold is memory-latency-bound, and keeping a group's
// key and its mutable state on the same cache line turns the
// compare-then-update of the hot path into a single random access
// instead of one per parallel array.
type nodeHash struct {
	specs []relation.AggSpec
	kw    int // key width in uint64 words: ⌈nDims/2⌉
	st    int // record stride in words: kw + 2 + len(specs)
	nDims int

	// Open-addressing table: slot value 0 is empty, otherwise group
	// index + 1. Sized to a power of two, grown at ~2/3 load.
	slots []int32
	mask  uint64

	n       int      // number of groups
	recs    []uint64 // n × st group records
	repDims []int32  // n × nDims representative base codes (first occurrence)
}

// Record layout offsets, relative to the record start: key words at
// [0,kw), count at kw, min row-id at kw+1, aggregate values (float64
// bits) at [kw+2, st).

// Groups keep their insertion order, which for a single sequential scan
// is first-occurrence order. mergeFrom preserves that property across
// shards: merging per-shard hashes in ascending shard order yields the
// exact group order a sequential scan would have produced, because a
// group's first global occurrence lies in the earliest shard containing
// it (shards are contiguous, ascending row ranges).

func newNodeHash(specs []relation.AggSpec, nDims int) *nodeHash {
	kw := (nDims + 1) / 2
	h := &nodeHash{specs: specs, kw: kw, st: kw + 2 + len(specs), nDims: nDims}
	h.slots = make([]int32, 64)
	h.mask = 63
	return h
}

// hashWords is FNV-1a over the key words with a murmur3 finalizer. The
// finalizer is load-bearing: the table index is the hash's low bits, a
// multiply's low bits ignore its operand's high bits, and half the
// dimension codes sit in the high half of their packed word — without
// the down-mixing, those dimensions vanish from the index and probe
// chains degenerate.
func hashWords(w []uint64) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range w {
		h ^= v
		h *= 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// lookup finds the slot holding the key, or the empty slot where it
// belongs.
func (h *nodeHash) lookup(w []uint64) int {
	i := hashWords(w) & h.mask
	for {
		gi := h.slots[i]
		if gi == 0 {
			return int(i)
		}
		rec := h.recs[int(gi-1)*h.st:]
		eq := true
		for j, v := range w {
			if rec[j] != v {
				eq = false
				break
			}
		}
		if eq {
			return int(i)
		}
		i = (i + 1) & h.mask
	}
}

func (h *nodeHash) grow() {
	old := h.slots
	h.slots = make([]int32, len(old)*2)
	h.mask = uint64(len(h.slots) - 1)
	for _, gi := range old {
		if gi == 0 {
			continue
		}
		off := int(gi-1) * h.st
		i := hashWords(h.recs[off:off+h.kw]) & h.mask
		for h.slots[i] != 0 {
			i = (i + 1) & h.mask
		}
		h.slots[i] = gi
	}
}

// appendGroup adds a new group with zeroed aggregate state and returns
// its record offset. slot is the empty slot lookup returned for the
// key. The caller MUST follow up by appending the group's nDims
// representative codes to repDims (mergeFrom does; pipeline folds call
// appendRepFromBatch) — the two arrays advance in lockstep.
func (h *nodeHash) appendGroup(slot int, w []uint64, rowid int64) int {
	gi := h.n
	h.n++
	h.slots[slot] = int32(gi + 1)
	h.recs = append(h.recs, w...)
	h.recs = append(h.recs, 0, uint64(rowid))
	for i := 0; i < len(h.specs); i++ {
		h.recs = append(h.recs, 0)
	}
	if uint64(h.n)*3 >= uint64(len(h.slots))*2 {
		h.grow()
	}
	return gi * h.st
}

// appendRepFromBatch records row i of a decoded batch as the newest
// group's representative.
func (h *nodeHash) appendRepFromBatch(b *relation.Batch, i int) {
	for d := range b.Dims {
		h.repDims = append(h.repDims, b.Dims[d][i])
	}
}

// addRowWords folds one source row into the group for the packed key w
// (the dimension codes two per word, as folds pack them straight from
// batch columns), creating it on first sight. Semantics match
// relation.Aggregator.AddValues exactly. It reports whether the row
// opened a new group — the caller must then append the representative
// codes.
func (h *nodeHash) addRowWords(w []uint64, meas []float64, rowid int64) (first bool) {
	slot := h.lookup(w)
	gi := int(h.slots[slot]) - 1
	first = gi < 0
	var off int
	if first {
		off = h.appendGroup(slot, w, rowid)
	} else {
		off = gi * h.st
	}
	rec := h.recs[off : off+h.st]
	rec[h.kw]++
	if rowid < int64(rec[h.kw+1]) {
		rec[h.kw+1] = uint64(rowid)
	}
	v := rec[h.kw+2:]
	for i, s := range h.specs {
		switch s.Func {
		case relation.AggSum:
			v[i] = math.Float64bits(math.Float64frombits(v[i]) + meas[s.Measure])
		case relation.AggCount:
			v[i] = math.Float64bits(math.Float64frombits(v[i]) + 1)
		case relation.AggMin:
			if m := meas[s.Measure]; first {
				v[i] = math.Float64bits(m)
			} else {
				v[i] = math.Float64bits(min(math.Float64frombits(v[i]), m))
			}
		case relation.AggMax:
			if m := meas[s.Measure]; first {
				v[i] = math.Float64bits(m)
			} else {
				v[i] = math.Float64bits(max(math.Float64frombits(v[i]), m))
			}
		}
	}
	return first
}

// count, minRow, and val read one group's state out of its record.
func (h *nodeHash) count(gi int) int64    { return int64(h.recs[gi*h.st+h.kw]) }
func (h *nodeHash) minRow(gi int) int64   { return int64(h.recs[gi*h.st+h.kw+1]) }
func (h *nodeHash) val(gi, i int) float64 { return math.Float64frombits(h.recs[gi*h.st+h.kw+2+i]) }

// mergeFrom folds every group of o (in o's insertion order) into h.
// Unlike addRowWords this merges *pre-aggregated* state: SUM and COUNT add,
// MIN/MAX compare, counts add, min row-ids take the minimum. The
// representative dims of a group present in both stay h's — h holds the
// earlier shards, so its representative is the first occurrence.
func (h *nodeHash) mergeFrom(o *nodeHash) {
	for g2 := 0; g2 < o.n; g2++ {
		orec := o.recs[g2*o.st : (g2+1)*o.st]
		w := orec[:o.kw]
		slot := h.lookup(w)
		gi := int(h.slots[slot]) - 1
		first := gi < 0
		var off int
		if first {
			off = h.appendGroup(slot, w, int64(orec[o.kw+1]))
			h.repDims = append(h.repDims, o.repDims[g2*o.nDims:(g2+1)*o.nDims]...)
		} else {
			off = gi * h.st
		}
		rec := h.recs[off : off+h.st]
		rec[h.kw] += orec[o.kw]
		if int64(orec[o.kw+1]) < int64(rec[h.kw+1]) {
			rec[h.kw+1] = orec[o.kw+1]
		}
		v := rec[h.kw+2:]
		ov := orec[o.kw+2:]
		for i, s := range h.specs {
			switch s.Func {
			case relation.AggSum, relation.AggCount:
				v[i] = math.Float64bits(math.Float64frombits(v[i]) + math.Float64frombits(ov[i]))
			case relation.AggMin:
				if first {
					v[i] = ov[i]
				} else {
					v[i] = math.Float64bits(min(math.Float64frombits(v[i]), math.Float64frombits(ov[i])))
				}
			case relation.AggMax:
				if first {
					v[i] = ov[i]
				} else {
					v[i] = math.Float64bits(max(math.Float64frombits(v[i]), math.Float64frombits(ov[i])))
				}
			}
		}
	}
}

// materialize renders the accumulated groups, in insertion order, as the
// node relation: representative dims, aggregate columns, the source
// count column, and min row-ids.
func (h *nodeHash) materialize(schema *relation.Schema) *relation.FactTable {
	t := relation.NewFactTable(schema, h.n)
	ns := len(h.specs)
	row := make([]float64, ns+1)
	for gi := 0; gi < h.n; gi++ {
		for i := 0; i < ns; i++ {
			row[i] = h.val(gi, i)
		}
		row[ns] = float64(h.count(gi))
		t.AppendWithRowID(h.repDims[gi*h.nDims:(gi+1)*h.nDims], row, h.minRow(gi))
	}
	return t
}
