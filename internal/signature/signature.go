// Package signature implements §5.2 of the paper: the signature pool that
// classifies non-trivial cube tuples into normal tuples (NTs) and common
// aggregate tuples (CATs), and the statistics-driven choice among the
// alternative CAT storage formats of §5.1.
//
// A signature <Aggr1..AggrY, R-rowid, NodeId> is the minimal metadata of
// one aggregated (non-trivial) cube tuple: the aggregate values, the
// minimum row-id of the source tuple set in the fact table, and the id of
// the lattice node the tuple belongs to. Holding signatures instead of
// tuples is what lets CURE defer the NT/CAT decision without holding the
// cube in memory; a bounded pool trades a little redundancy (tuples
// classified per flush instead of globally) for bounded memory.
//
// Order contract. A flush emits aggregate-value groups ascending by
// (aggr1, …, aggrY) and, inside a group, signatures ascending by R-rowid.
// Signatures that tie on both differ only in node and go to different
// relations, so their mutual order is unspecified and reaches no file.
//
// Float contract. Classification is on canonical bits, fixed at Add: −0
// becomes +0 and every NaN, whatever its sign or payload, becomes the one
// quiet NaN of math.NaN(). Values otherwise group exactly when their bits
// are equal, order numerically, and NaN orders above +Inf; NaN groups with
// NaN. The value a sink receives is the canonical one.
package signature

import (
	"fmt"
	"math"

	"cure/internal/lattice"
	"cure/internal/obsv"
)

// Format selects how CATs are materialized (§5.1).
type Format uint8

const (
	// FormatUndecided means no flush has observed CATs yet.
	FormatUndecided Format = iota
	// FormatA stores AGGREGATES = <R-rowid, aggrs> and CAT rows that are
	// a bare A-rowid; best when common-source CATs prevail (k/n > Y+1).
	FormatA
	// FormatB stores AGGREGATES = <aggrs> and CAT rows <R-rowid,
	// A-rowid>; best when coincidental CATs prevail and Y > 1.
	FormatB
	// FormatNT stores would-be CATs as plain NTs; best when coincidental
	// CATs prevail and Y = 1 (an A-rowid would be as wide as the single
	// aggregate it replaces).
	FormatNT
)

// String names the format.
func (f Format) String() string {
	switch f {
	case FormatUndecided:
		return "undecided"
	case FormatA:
		return "A(common-source)"
	case FormatB:
		return "B(coincidental)"
	case FormatNT:
		return "NT(fallback)"
	default:
		return fmt.Sprintf("Format(%d)", uint8(f))
	}
}

// Stats aggregates the quantities of the §5.1 cost model observed during
// flushes: m aggregate-value combinations shared by CATs, each pointed at
// by k CATs on average, produced by n distinct source sets on average.
type Stats struct {
	// CatGroups is m: the number of distinct aggregate combinations
	// shared by ≥2 signatures.
	CatGroups int64
	// CatSigs is the total number of signatures inside those groups
	// (k·m in the paper's model).
	CatSigs int64
	// CatSourceSets is the total number of distinct (aggrs, R-rowid)
	// pairs inside those groups (n·m).
	CatSourceSets int64
	// NTs is the number of signatures classified as normal tuples.
	NTs int64
	// Flushes counts pool flushes.
	Flushes int64
	// Total counts all signatures ever added.
	Total int64
}

// Add returns the element-wise sum of s and o — the union statistics of
// independent pools. Parallel builds classify through one pool per
// worker (pools are single-goroutine; only the locked writer is shared)
// and report the merged counts.
func (s Stats) Add(o Stats) Stats {
	s.CatGroups += o.CatGroups
	s.CatSigs += o.CatSigs
	s.CatSourceSets += o.CatSourceSets
	s.NTs += o.NTs
	s.Flushes += o.Flushes
	s.Total += o.Total
	return s
}

// K returns the average number of CATs per shared aggregate combination.
func (s Stats) K() float64 {
	if s.CatGroups == 0 {
		return 0
	}
	return float64(s.CatSigs) / float64(s.CatGroups)
}

// N returns the average number of distinct source sets per shared
// aggregate combination.
func (s Stats) N() float64 {
	if s.CatGroups == 0 {
		return 0
	}
	return float64(s.CatSourceSets) / float64(s.CatGroups)
}

// Decide applies the paper's format-selection rule to observed statistics
// for a cube with numAggrs aggregate columns:
//
//	if common-source CATs prevail (k/n > Y+1)  → format (a)
//	else if Y = 1                              → store CATs as NTs
//	else                                       → format (b)
func Decide(s Stats, numAggrs int) Format {
	if s.CatGroups == 0 {
		// No CATs observed; format (b) is a safe default (it degrades
		// to nothing if CATs never appear).
		if numAggrs == 1 {
			return FormatNT
		}
		return FormatB
	}
	if s.K() > s.N()*float64(numAggrs+1) {
		return FormatA
	}
	if numAggrs == 1 {
		return FormatNT
	}
	return FormatB
}

// Sink receives classified tuples from pool flushes. Implementations live
// in the storage layer.
type Sink interface {
	// WriteNT materializes a normal tuple of node: <R-rowid, aggrs>.
	WriteNT(node lattice.NodeID, rrowid int64, aggrs []float64) error
	// AppendAggregate appends one tuple to the shared AGGREGATES
	// relation and returns its A-rowid. rrowid is ≥0 under format (a)
	// and -1 under format (b), where AGGREGATES holds aggregates only.
	AppendAggregate(rrowid int64, aggrs []float64) (int64, error)
	// WriteCAT materializes a common-aggregate tuple of node. rrowid is
	// -1 under format (a), where the R-rowid lives in AGGREGATES.
	WriteCAT(node lattice.NodeID, rrowid, arowid int64) error
}

// Pool is the bounded signature pool: one flat []uint64 of (Y+2)-word
// records <key(aggr1)..key(aggrY), R-rowid, node>, 8·(Y+2) bytes per
// signature, matching the paper's "(Y+2)·4 MB per million signatures" up
// to the word size. Flush sorts the records in place, so a full pool is
// the whole of the classification's memory.
//
// A Pool is not safe for concurrent use.
type Pool struct {
	numAggrs int
	capacity int
	sink     Sink

	// recs holds the buffered records back to back. It is allocated at
	// the first Add, so a pool that never sees a signature costs nothing,
	// and is reused across flushes.
	recs []uint64
	// aggBuf is the decoded aggregate values handed to the sink.
	aggBuf []float64
	// hold is one record's worth of scratch for the insertion sort.
	hold []uint64

	format Format
	stats  Stats
	// ForceFormat, when not FormatUndecided, bypasses the dynamic
	// decision; used by tests and by ablation benchmarks.
	ForceFormat Format
	// Metrics is the optional observability registry: flush counts,
	// NT/CAT classification counters, pool occupancy at flush time, and a
	// flush trace event per Flush. nil disables it.
	Metrics *obsv.Registry
}

// NewPool creates a pool holding up to capacity signatures with numAggrs
// aggregate values each. capacity = 0 disables CAT/NT separation entirely
// (every non-trivial tuple is emitted immediately as an NT), the paper's
// "zero-length pool prohibits the identification of CATs" extreme.
func NewPool(numAggrs, capacity int, sink Sink) (*Pool, error) {
	if numAggrs < 1 {
		return nil, fmt.Errorf("signature: need at least one aggregate, got %d", numAggrs)
	}
	if capacity < 0 {
		return nil, fmt.Errorf("signature: negative capacity %d", capacity)
	}
	return &Pool{
		numAggrs: numAggrs,
		capacity: capacity,
		sink:     sink,
		aggBuf:   make([]float64, numAggrs),
		hold:     make([]uint64, numAggrs+2),
	}, nil
}

// width is the record length in words.
func (p *Pool) width() int { return p.numAggrs + 2 }

// Len returns the number of buffered signatures.
func (p *Pool) Len() int { return len(p.recs) / p.width() }

// Full reports whether the pool has reached capacity.
func (p *Pool) Full() bool { return len(p.recs) >= p.capacity*p.width() }

// Format returns the storage format in effect (FormatUndecided until the
// first flush that observes CATs).
func (p *Pool) Format() Format { return p.format }

// Stats returns cumulative classification statistics.
func (p *Pool) Stats() Stats { return p.stats }

const signBit = 1 << 63

// canonical is the float contract's choice of representative: +0 for
// both zeroes, one positive quiet NaN for every NaN.
func canonical(v float64) float64 {
	switch {
	case v == 0:
		return 0
	case v != v:
		return math.NaN()
	}
	return v
}

// floatKey maps v to a word whose unsigned order is the numeric order of
// canonical values, NaN above +Inf: negative values have every bit
// complemented, the rest only the sign bit set.
func floatKey(v float64) uint64 {
	b := math.Float64bits(canonical(v))
	if b&signBit != 0 {
		return ^b
	}
	return b | signBit
}

// keyFloat inverts floatKey.
func keyFloat(k uint64) float64 {
	if k&signBit != 0 {
		return math.Float64frombits(k &^ signBit)
	}
	return math.Float64frombits(^k)
}

// Add buffers the signature of one non-trivial tuple, flushing first if
// the pool is full. With zero capacity the tuple is written out as an NT
// immediately.
func (p *Pool) Add(node lattice.NodeID, rrowid int64, aggrs []float64) error {
	p.stats.Total++
	if p.capacity == 0 {
		p.stats.NTs++
		for i, v := range aggrs[:p.numAggrs] {
			p.aggBuf[i] = canonical(v)
		}
		return p.sink.WriteNT(node, rrowid, p.aggBuf)
	}
	if p.Full() {
		if err := p.Flush(); err != nil {
			return err
		}
	}
	if len(p.recs)+p.width() > cap(p.recs) {
		p.reserve()
	}
	for _, v := range aggrs[:p.numAggrs] {
		p.recs = append(p.recs, floatKey(v))
	}
	// The sign flip makes the word order of R-rowids their int64 order.
	p.recs = append(p.recs, uint64(rrowid)^signBit, uint64(node))
	return nil
}

// firstReserve and fullReserve are the signatures recs is sized for: the
// first Add takes the small buffer, so a build whose pool never fills it
// neither allocates nor clears more; the first time it fills below
// capacity, the full buffer replaces it once. Flush boundaries stay at
// capacity whatever the buffer's size.
const (
	firstReserve = 64 << 10
	fullReserve  = 1 << 20
)

// reserve sizes recs before an Add that would not fit in it. Past
// fullReserve, huge pools grow by append instead of reserving it all.
func (p *Pool) reserve() {
	n := firstReserve
	if p.recs != nil {
		n = fullReserve
	}
	n = min(p.capacity, n) * p.width()
	if n <= cap(p.recs) {
		return
	}
	grown := make([]uint64, len(p.recs), n)
	copy(grown, p.recs)
	p.recs = grown
}

// insertionCutoff is the range length under which sortRecs stops
// partitioning.
const insertionCutoff = 12

// sortRecs sorts records [lo, hi), which agree on words [0, d), by words
// [d, Y]: a three-way radix quicksort. A partition equal to the pivot on
// word d descends to word d+1 instead of being compared again, which is
// what a pool made mostly of duplicate aggregates wants. The smaller
// parts recurse and the largest loops, so the stack stays logarithmic.
func (p *Pool) sortRecs(lo, hi, d int) {
	w, recs := p.width(), p.recs
	for d <= p.numAggrs && hi-lo > insertionCutoff {
		pivot := median3(recs[lo*w+d], recs[(lo+(hi-lo)/2)*w+d], recs[(hi-1)*w+d])
		// Bentley–McIlroy: records equal to the pivot are parked at the
		// two ends and swapped into the middle afterwards, so the inner
		// loops exchange only records on the wrong side of it.
		i, j, a, b := lo, hi-1, lo, hi-1
		for {
			for ; i <= j && recs[i*w+d] <= pivot; i++ {
				if recs[i*w+d] == pivot {
					p.swap(a, i)
					a++
				}
			}
			for ; i <= j && recs[j*w+d] >= pivot; j-- {
				if recs[j*w+d] == pivot {
					p.swap(j, b)
					b--
				}
			}
			if i > j {
				break
			}
			p.swap(i, j)
			i++
			j--
		}
		for k, m := 0, min(a-lo, i-a); k < m; k++ {
			p.swap(lo+k, i-1-k)
		}
		for k, m := 0, min(hi-1-b, b-j); k < m; k++ {
			p.swap(i+k, hi-1-k)
		}
		lt, gt := lo+(i-a), hi-(b-j)
		parts := [3][3]int{{lo, lt, d}, {lt, gt, d + 1}, {gt, hi, d}}
		big := 0
		for j := 1; j < 3; j++ {
			if parts[j][1]-parts[j][0] > parts[big][1]-parts[big][0] {
				big = j
			}
		}
		for j, q := range parts {
			if j != big {
				p.sortRecs(q[0], q[1], q[2])
			}
		}
		lo, hi, d = parts[big][0], parts[big][1], parts[big][2]
	}
	if d > p.numAggrs {
		return
	}
	for i := lo + 1; i < hi; i++ {
		j := i
		for j > lo && p.less(i, j-1, d) {
			j--
		}
		if j < i {
			copy(p.hold, recs[i*w:(i+1)*w])
			copy(recs[(j+1)*w:(i+1)*w], recs[j*w:i*w])
			copy(recs[j*w:(j+1)*w], p.hold)
		}
	}
}

func median3(a, b, c uint64) uint64 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		b = a
	}
	return b
}

func (p *Pool) swap(a, b int) {
	w := p.width()
	ra, rb := p.recs[a*w:(a+1)*w], p.recs[b*w:(b+1)*w]
	for k := range ra {
		ra[k], rb[k] = rb[k], ra[k]
	}
}

// less orders records a and b by words [d, Y].
func (p *Pool) less(a, b, d int) bool {
	w := p.width()
	ra, rb := p.recs[a*w:a*w+p.numAggrs+1], p.recs[b*w:b*w+p.numAggrs+1]
	for k := d; k < len(ra); k++ {
		if ra[k] != rb[k] {
			return ra[k] < rb[k]
		}
	}
	return false
}

// groupEnd returns the end of the run of records starting at lo that
// agree with it on words [0, words).
func (p *Pool) groupEnd(lo, n, words int) int {
	w := p.width()
	first := p.recs[lo*w : lo*w+words]
	hi := lo + 1
	for ; hi < n; hi++ {
		r := p.recs[hi*w : hi*w+words]
		for k := range first {
			if r[k] != first[k] {
				return hi
			}
		}
	}
	return hi
}

func (p *Pool) rrowid(i int) int64 {
	return int64(p.recs[i*p.width()+p.numAggrs] ^ signBit)
}

func (p *Pool) node(i int) lattice.NodeID {
	return lattice.NodeID(p.recs[i*p.width()+p.numAggrs+1])
}

// Flush sorts the buffered signatures, updates the format statistics,
// locks the storage format on the first flush that observes CATs, and
// emits every buffered signature to the sink as an NT or CAT. The pool is
// empty afterwards.
func (p *Pool) Flush() error {
	n := p.Len()
	if n == 0 {
		return nil
	}
	p.sortRecs(0, n, 0)

	// First pass: statistics over aggregate-value groups.
	var flushStats Stats
	for lo := 0; lo < n; {
		hi := p.groupEnd(lo, n, p.numAggrs)
		if hi-lo > 1 {
			flushStats.CatGroups++
			flushStats.CatSigs += int64(hi - lo)
			for i := lo; i < hi; i = p.groupEnd(i, hi, p.numAggrs+1) {
				flushStats.CatSourceSets++
			}
		}
		lo = hi
	}
	p.stats.CatGroups += flushStats.CatGroups
	p.stats.CatSigs += flushStats.CatSigs
	p.stats.CatSourceSets += flushStats.CatSourceSets
	p.stats.Flushes++
	if reg := p.Metrics; reg != nil {
		reg.Counter("pool.flushes").Inc()
		reg.Counter("pool.cat_groups").Add(flushStats.CatGroups)
		reg.Counter("pool.cat_sigs").Add(flushStats.CatSigs)
		reg.Gauge("pool.occupancy").Set(int64(n))
	}

	// Lock the format once: the first flush that actually sees CATs
	// decides for the whole construction, as the paper prescribes.
	if p.format == FormatUndecided {
		if p.ForceFormat != FormatUndecided {
			p.format = p.ForceFormat
		} else if flushStats.CatGroups > 0 {
			p.format = Decide(flushStats, p.numAggrs)
		}
	}
	effective := p.format
	if effective == FormatUndecided {
		// Still no CATs anywhere: everything in this flush is an NT.
		effective = FormatNT
	}

	// Second pass: emit.
	ntsBefore := p.stats.NTs
	var err error
	for lo := 0; lo < n && err == nil; {
		hi := p.groupEnd(lo, n, p.numAggrs)
		err = p.emitGroup(lo, hi, effective)
		lo = hi
	}
	if reg := p.Metrics; reg != nil {
		flushNTs := p.stats.NTs - ntsBefore
		reg.Counter("pool.nts").Add(flushNTs)
		if tr := reg.Trace(); tr != nil {
			tr.Emit(obsv.FlushEvent{
				Ev: "pool-flush", Size: n, NTs: flushNTs,
				CatGroups: flushStats.CatGroups, CatSigs: flushStats.CatSigs,
				Format: effective.String(),
			})
		}
	}
	p.recs = p.recs[:0]
	return err
}

// emitGroup writes one aggregate-value group, records [lo, hi) (already
// sorted by R-rowid), to the sink under the chosen format.
func (p *Pool) emitGroup(lo, hi int, format Format) error {
	aggrs := p.aggBuf
	for k := range aggrs {
		aggrs[k] = keyFloat(p.recs[lo*p.width()+k])
	}
	if hi-lo == 1 || format == FormatNT {
		for s := lo; s < hi; s++ {
			p.stats.NTs += 1
			if err := p.sink.WriteNT(p.node(s), p.rrowid(s), aggrs); err != nil {
				return err
			}
		}
		return nil
	}
	switch format {
	case FormatA:
		// One AGGREGATES tuple per common-source subgroup; coincidental
		// members of the group each get their own (the paper's "second,
		// mainly redundant tuple" cost that the decision rule weighs).
		for lo < hi {
			end := p.groupEnd(lo, hi, p.numAggrs+1)
			arowid, err := p.sink.AppendAggregate(p.rrowid(lo), aggrs)
			if err != nil {
				return err
			}
			for s := lo; s < end; s++ {
				if err := p.sink.WriteCAT(p.node(s), -1, arowid); err != nil {
					return err
				}
			}
			lo = end
		}
		return nil
	case FormatB:
		arowid, err := p.sink.AppendAggregate(-1, aggrs)
		if err != nil {
			return err
		}
		for s := lo; s < hi; s++ {
			if err := p.sink.WriteCAT(p.node(s), p.rrowid(s), arowid); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("signature: emit under format %v", format)
	}
}
