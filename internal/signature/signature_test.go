package signature

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"cure/internal/lattice"
)

// recordingSink captures everything a pool emits.
type recordingSink struct {
	nts  []ntRec
	aggs []aggRec
	cats []catRec
}

type ntRec struct {
	node   lattice.NodeID
	rrowid int64
	aggrs  []float64
}

type aggRec struct {
	rrowid int64
	aggrs  []float64
}

type catRec struct {
	node           lattice.NodeID
	rrowid, arowid int64
}

func (s *recordingSink) WriteNT(node lattice.NodeID, rrowid int64, aggrs []float64) error {
	s.nts = append(s.nts, ntRec{node, rrowid, append([]float64(nil), aggrs...)})
	return nil
}

func (s *recordingSink) AppendAggregate(rrowid int64, aggrs []float64) (int64, error) {
	s.aggs = append(s.aggs, aggRec{rrowid, append([]float64(nil), aggrs...)})
	return int64(len(s.aggs) - 1), nil
}

func (s *recordingSink) WriteCAT(node lattice.NodeID, rrowid, arowid int64) error {
	s.cats = append(s.cats, catRec{node, rrowid, arowid})
	return nil
}

func TestDecideRule(t *testing.T) {
	tests := []struct {
		name  string
		stats Stats
		y     int
		want  Format
	}{
		// k/n > Y+1 → common source prevails → format (a).
		{"common source Y=2", Stats{CatGroups: 10, CatSigs: 100, CatSourceSets: 20}, 2, FormatA}, // k=10, n=2, 10 > 2·3
		{"coincidental Y=2", Stats{CatGroups: 10, CatSigs: 40, CatSourceSets: 30}, 2, FormatB},   // k=4, n=3, 4 < 9
		{"coincidental Y=1", Stats{CatGroups: 10, CatSigs: 40, CatSourceSets: 30}, 1, FormatNT},
		{"common source Y=1", Stats{CatGroups: 10, CatSigs: 100, CatSourceSets: 10}, 1, FormatA},       // k=10, n=1, 10 > 2
		{"boundary equals not greater", Stats{CatGroups: 1, CatSigs: 6, CatSourceSets: 2}, 2, FormatB}, // k/n = 3 = Y+1
		{"no cats Y=2", Stats{}, 2, FormatB},
		{"no cats Y=1", Stats{}, 1, FormatNT},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Decide(tt.stats, tt.y); got != tt.want {
				t.Errorf("Decide = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestStatsKN(t *testing.T) {
	s := Stats{CatGroups: 4, CatSigs: 20, CatSourceSets: 8}
	if s.K() != 5 || s.N() != 2 {
		t.Errorf("K=%v N=%v", s.K(), s.N())
	}
	var zero Stats
	if zero.K() != 0 || zero.N() != 0 {
		t.Error("zero stats must not divide by zero")
	}
}

func TestNewPoolValidation(t *testing.T) {
	if _, err := NewPool(0, 10, &recordingSink{}); err == nil {
		t.Error("zero aggregates accepted")
	}
	if _, err := NewPool(1, -1, &recordingSink{}); err == nil {
		t.Error("negative capacity accepted")
	}
}

func TestZeroCapacityPoolWritesNTsImmediately(t *testing.T) {
	sink := &recordingSink{}
	p, err := NewPool(2, 0, sink)
	if err != nil {
		t.Fatal(err)
	}
	// Two identical signatures that a real pool would classify as CATs.
	if err := p.Add(1, 10, []float64{5, 5}); err != nil {
		t.Fatal(err)
	}
	if err := p.Add(2, 10, []float64{5, 5}); err != nil {
		t.Fatal(err)
	}
	if len(sink.nts) != 2 || len(sink.cats) != 0 {
		t.Errorf("zero pool wrote %d NTs, %d CATs", len(sink.nts), len(sink.cats))
	}
	if p.Stats().Total != 2 {
		t.Errorf("Total = %d", p.Stats().Total)
	}
}

func TestCommonSourceCATsUseFormatA(t *testing.T) {
	sink := &recordingSink{}
	p, err := NewPool(2, 100, sink)
	if err != nil {
		t.Fatal(err)
	}
	// Three common-source CATs (same aggrs, same min R-rowid, distinct
	// nodes) plus one NT.
	for node := lattice.NodeID(1); node <= 3; node++ {
		if err := p.Add(node, 7, []float64{30, 2}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Add(9, 3, []float64{90, 1}); err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	// k=3, n=1 → k/n=3 > Y+1=3? No: 3 > 3 is false... with Y=2 the rule
	// needs k/n > 3; a single source set with 3 CATs sits exactly on the
	// boundary and picks format (b). Add more CATs to push it over.
	if p.Format() != FormatB {
		t.Fatalf("boundary case format = %v, want B", p.Format())
	}

	sink = &recordingSink{}
	p, err = NewPool(2, 100, sink)
	if err != nil {
		t.Fatal(err)
	}
	for node := lattice.NodeID(1); node <= 7; node++ {
		if err := p.Add(node, 7, []float64{30, 2}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Add(9, 3, []float64{90, 1}); err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if p.Format() != FormatA {
		t.Fatalf("format = %v, want A", p.Format())
	}
	// One AGGREGATES tuple carrying the shared R-rowid; seven bare-A-rowid
	// CAT rows; one NT.
	if len(sink.aggs) != 1 || sink.aggs[0].rrowid != 7 {
		t.Errorf("aggs = %+v", sink.aggs)
	}
	if len(sink.cats) != 7 {
		t.Fatalf("cats = %d", len(sink.cats))
	}
	for _, c := range sink.cats {
		if c.rrowid != -1 || c.arowid != 0 {
			t.Errorf("format-A CAT row = %+v", c)
		}
	}
	if len(sink.nts) != 1 || sink.nts[0].rrowid != 3 {
		t.Errorf("nts = %+v", sink.nts)
	}
}

func TestCoincidentalCATsUseFormatB(t *testing.T) {
	sink := &recordingSink{}
	p, err := NewPool(2, 100, sink)
	if err != nil {
		t.Fatal(err)
	}
	// Two coincidental CATs: same aggregates, different source sets.
	if err := p.Add(1, 10, []float64{85, 2}); err != nil {
		t.Fatal(err)
	}
	if err := p.Add(2, 20, []float64{85, 2}); err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if p.Format() != FormatB {
		t.Fatalf("format = %v, want B", p.Format())
	}
	if len(sink.aggs) != 1 || sink.aggs[0].rrowid != -1 {
		t.Errorf("aggs = %+v", sink.aggs)
	}
	if len(sink.cats) != 2 {
		t.Fatalf("cats = %+v", sink.cats)
	}
	rids := []int64{sink.cats[0].rrowid, sink.cats[1].rrowid}
	sort.Slice(rids, func(i, j int) bool { return rids[i] < rids[j] })
	if !reflect.DeepEqual(rids, []int64{10, 20}) {
		t.Errorf("format-B CAT rrowids = %v", rids)
	}
}

func TestSingleAggregateCoincidentalStoredAsNT(t *testing.T) {
	sink := &recordingSink{}
	p, err := NewPool(1, 100, sink)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Add(1, 10, []float64{85}); err != nil {
		t.Fatal(err)
	}
	if err := p.Add(2, 20, []float64{85}); err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if p.Format() != FormatNT {
		t.Fatalf("format = %v, want NT", p.Format())
	}
	if len(sink.nts) != 2 || len(sink.cats) != 0 || len(sink.aggs) != 0 {
		t.Errorf("NT fallback wrote nts=%d cats=%d aggs=%d", len(sink.nts), len(sink.cats), len(sink.aggs))
	}
}

func TestAutoFlushOnCapacity(t *testing.T) {
	sink := &recordingSink{}
	p, err := NewPool(1, 4, sink)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		if err := p.Add(lattice.NodeID(i), int64(i), []float64{float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Capacity 4: adds 0-3 buffered, 5th add flushes then buffers, 9th
	// add flushes again. Two flushes so far, 1 signature left buffered.
	if got := p.Stats().Flushes; got != 2 {
		t.Errorf("Flushes = %d, want 2", got)
	}
	if p.Len() != 1 {
		t.Errorf("Len = %d, want 1", p.Len())
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(sink.nts) != 9 {
		t.Errorf("total NTs = %d, want 9", len(sink.nts))
	}
}

func TestBoundedPoolMayMissCrossFlushCATs(t *testing.T) {
	// The documented trade-off: partners split across flushes are
	// classified independently (here: as NTs), whereas one big pool
	// finds the CAT pair.
	small := &recordingSink{}
	p, _ := NewPool(2, 1, small)
	p.Add(1, 10, []float64{85, 1})
	p.Add(2, 20, []float64{85, 1})
	p.Flush()
	if len(small.cats) != 0 || len(small.nts) != 2 {
		t.Errorf("split flushes: cats=%d nts=%d", len(small.cats), len(small.nts))
	}
	big := &recordingSink{}
	q, _ := NewPool(2, 10, big)
	q.Add(1, 10, []float64{85, 1})
	q.Add(2, 20, []float64{85, 1})
	q.Flush()
	if len(big.cats) != 2 {
		t.Errorf("joint flush: cats=%d", len(big.cats))
	}
}

func TestForceFormat(t *testing.T) {
	sink := &recordingSink{}
	p, _ := NewPool(2, 10, sink)
	p.ForceFormat = FormatA
	p.Add(1, 10, []float64{85, 1})
	p.Add(2, 20, []float64{85, 1}) // coincidental, but format is forced
	p.Flush()
	if p.Format() != FormatA {
		t.Fatalf("format = %v", p.Format())
	}
	// Format (a) with two different source sets → two AGGREGATES tuples.
	if len(sink.aggs) != 2 {
		t.Errorf("aggs = %d, want 2 (one per source set)", len(sink.aggs))
	}
}

func TestFormatLockedAcrossFlushes(t *testing.T) {
	sink := &recordingSink{}
	p, _ := NewPool(2, 10, sink)
	// First flush: coincidental → FormatB.
	p.Add(1, 10, []float64{85, 1})
	p.Add(2, 20, []float64{85, 1})
	p.Flush()
	if p.Format() != FormatB {
		t.Fatalf("first flush format = %v", p.Format())
	}
	// Second flush is overwhelmingly common-source, but the decision is
	// already locked.
	for i := 0; i < 8; i++ {
		p.Add(lattice.NodeID(i), 5, []float64{42, 7})
	}
	p.Flush()
	if p.Format() != FormatB {
		t.Errorf("format changed after lock: %v", p.Format())
	}
}

func TestSizeBytesMatchesPaperFootprint(t *testing.T) {
	// §5.2: a pool of 1e6 signatures occupies ≈ (Y+2)·4 MB with 4-byte
	// words; our words are 8 bytes, so a pool that fills its small first
	// buffer reserves (Y+2)·8 MB, once. The first Add reserves 64Ki
	// signatures only: most pools of a small build never need more.
	sink := &recordingSink{}
	p, _ := NewPool(2, 1_000_000, sink)
	if err := p.Add(0, 0, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if got, want := int64(cap(p.recs))*8, int64(firstReserve*(2+2)*8); got != want {
		t.Errorf("first Add reserves %d bytes, want %d", got, want)
	}
	for i := 1; i <= firstReserve; i++ {
		if err := p.Add(0, int64(i), []float64{1, 2}); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := int64(cap(p.recs))*8, int64(1_000_000*(2+2)*8); got != want {
		t.Errorf("pool past its first buffer reserves %d bytes, want %d", got, want)
	}
	if p.Len() != firstReserve+1 || len(sink.nts)+len(sink.cats) != 0 {
		t.Errorf("pool holds %d signatures and emitted %d, want %d and none", p.Len(), len(sink.nts)+len(sink.cats), firstReserve+1)
	}
}

func TestEveryAddedSignatureIsEmittedExactlyOnce(t *testing.T) {
	// Property: over random inputs, #NTs + #CATs emitted equals the
	// number of signatures added, regardless of flush boundaries.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		sink := &recordingSink{}
		capacity := 1 + rng.Intn(50)
		p, _ := NewPool(2, capacity, sink)
		n := 1 + rng.Intn(300)
		for i := 0; i < n; i++ {
			aggrs := []float64{float64(rng.Intn(5)), float64(rng.Intn(3))}
			if err := p.Add(lattice.NodeID(rng.Intn(8)), int64(rng.Intn(20)), aggrs); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.Flush(); err != nil {
			t.Fatal(err)
		}
		if got := len(sink.nts) + len(sink.cats); got != n {
			t.Fatalf("trial %d: emitted %d tuples for %d signatures (cap %d)", trial, got, n, capacity)
		}
		// Each CAT's A-rowid must reference a recorded AGGREGATES tuple.
		for _, c := range sink.cats {
			if c.arowid < 0 || int(c.arowid) >= len(sink.aggs) {
				t.Fatalf("trial %d: dangling A-rowid %d", trial, c.arowid)
			}
		}
	}
}

func TestFlushEmptyPoolIsNoop(t *testing.T) {
	sink := &recordingSink{}
	p, _ := NewPool(1, 10, sink)
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if p.Stats().Flushes != 0 {
		t.Error("empty flush counted")
	}
}

func TestFormatString(t *testing.T) {
	for f, want := range map[Format]string{
		FormatUndecided: "undecided",
		FormatA:         "A(common-source)",
		FormatB:         "B(coincidental)",
		FormatNT:        "NT(fallback)",
	} {
		if got := f.String(); got != want {
			t.Errorf("String = %q, want %q", got, want)
		}
	}
	if got := Format(99).String(); got != fmt.Sprintf("Format(%d)", 99) {
		t.Errorf("unknown format string = %q", got)
	}
}

// refSig is one signature as a struct, and refPool the pool as it was
// before the flat record buffer: signatures sorted through a comparator on
// (aggregate values, R-rowid), groups found by value equality. It is the
// oracle the in-place radix sort is held to.
type refSig struct {
	node   lattice.NodeID
	rrowid int64
	aggrs  []float64
}

type refPool struct {
	numAggrs, capacity int
	sink               Sink
	sigs               []refSig
	force, format      Format
	stats              Stats
}

func compareRef(a, b refSig) int {
	for i := range a.aggrs {
		if a.aggrs[i] < b.aggrs[i] {
			return -1
		}
		if a.aggrs[i] > b.aggrs[i] {
			return 1
		}
	}
	switch {
	case a.rrowid < b.rrowid:
		return -1
	case a.rrowid > b.rrowid:
		return 1
	}
	return 0
}

func (p *refPool) add(s refSig) {
	p.stats.Total++
	if len(p.sigs) >= p.capacity {
		p.flush()
	}
	p.sigs = append(p.sigs, s)
}

func (p *refPool) flush() {
	if len(p.sigs) == 0 {
		return
	}
	sigs := p.sigs
	sort.SliceStable(sigs, func(i, j int) bool { return compareRef(sigs[i], sigs[j]) < 0 })
	var groups [][]refSig
	for lo := 0; lo < len(sigs); {
		hi := lo + 1
		for hi < len(sigs) && reflect.DeepEqual(sigs[lo].aggrs, sigs[hi].aggrs) {
			hi++
		}
		groups = append(groups, sigs[lo:hi])
		lo = hi
	}
	var fs Stats
	for _, g := range groups {
		if len(g) < 2 {
			continue
		}
		fs.CatGroups++
		fs.CatSigs += int64(len(g))
		fs.CatSourceSets++
		for i := 1; i < len(g); i++ {
			if g[i].rrowid != g[i-1].rrowid {
				fs.CatSourceSets++
			}
		}
	}
	p.stats = p.stats.Add(fs)
	p.stats.Flushes++
	if p.format == FormatUndecided {
		if p.force != FormatUndecided {
			p.format = p.force
		} else if fs.CatGroups > 0 {
			p.format = Decide(fs, p.numAggrs)
		}
	}
	for _, g := range groups {
		switch {
		case len(g) == 1 || p.format == FormatNT || p.format == FormatUndecided:
			for _, s := range g {
				p.stats.NTs++
				p.sink.WriteNT(s.node, s.rrowid, s.aggrs)
			}
		case p.format == FormatA:
			var arowid int64
			for i, s := range g {
				if i == 0 || s.rrowid != g[i-1].rrowid {
					arowid, _ = p.sink.AppendAggregate(s.rrowid, s.aggrs)
				}
				p.sink.WriteCAT(s.node, -1, arowid)
			}
		default:
			arowid, _ := p.sink.AppendAggregate(-1, g[0].aggrs)
			for _, s := range g {
				p.sink.WriteCAT(s.node, s.rrowid, arowid)
			}
		}
	}
	p.sigs = p.sigs[:0]
}

// perNode splits a recording by node: signatures that tie on (aggregates,
// R-rowid) differ only in node and may leave a flush in either order, so
// the order that matters — and that reaches the cube — is per node.
func (s *recordingSink) perNode() (map[lattice.NodeID][]ntRec, map[lattice.NodeID][]catRec) {
	nts, cats := map[lattice.NodeID][]ntRec{}, map[lattice.NodeID][]catRec{}
	for _, r := range s.nts {
		nts[r.node] = append(nts[r.node], r)
	}
	for _, r := range s.cats {
		cats[r.node] = append(cats[r.node], r)
	}
	return nts, cats
}

func TestPoolMatchesReferenceOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const n = 400
	for _, y := range []int{1, 2, 3} {
		for _, distinct := range []bool{false, true} {
			sigs := make([]refSig, n)
			for i := range sigs {
				aggrs := make([]float64, y)
				for k := range aggrs {
					if distinct {
						aggrs[k] = rng.NormFloat64() * 1e3
					} else {
						aggrs[k] = float64(rng.Intn(4)) - 1.5
					}
				}
				sigs[i] = refSig{lattice.NodeID(rng.Intn(6)), int64(rng.Intn(12)), aggrs}
			}
			for _, capacity := range []int{1, 2, 7, n} {
				for _, force := range []Format{FormatUndecided, FormatA, FormatB, FormatNT} {
					name := fmt.Sprintf("Y=%d distinct=%v cap=%d force=%v", y, distinct, capacity, force)
					got, want := &recordingSink{}, &recordingSink{}
					p, err := NewPool(y, capacity, got)
					if err != nil {
						t.Fatal(err)
					}
					p.ForceFormat = force
					ref := &refPool{numAggrs: y, capacity: capacity, sink: want, force: force}
					for _, s := range sigs {
						if err := p.Add(s.node, s.rrowid, s.aggrs); err != nil {
							t.Fatal(err)
						}
						ref.add(s)
					}
					if err := p.Flush(); err != nil {
						t.Fatal(err)
					}
					ref.flush()
					if p.Stats() != ref.stats || p.Format() != ref.format {
						t.Fatalf("%s: stats %+v format %v, reference %+v %v", name, p.Stats(), p.Format(), ref.stats, ref.format)
					}
					if !reflect.DeepEqual(got.aggs, want.aggs) {
						t.Fatalf("%s: AGGREGATES differ from the reference", name)
					}
					gotNT, gotCAT := got.perNode()
					wantNT, wantCAT := want.perNode()
					if !reflect.DeepEqual(gotNT, wantNT) || !reflect.DeepEqual(gotCAT, wantCAT) {
						t.Fatalf("%s: per-node NT/CAT sequences differ from the reference", name)
					}
				}
			}
		}
	}
}

// canonBits is the float contract stated independently of floatKey.
func canonBits(v float64) uint64 {
	switch {
	case v == 0:
		return 0
	case math.IsNaN(v):
		return math.Float64bits(math.NaN())
	}
	return math.Float64bits(v)
}

// lessTotal is the order the contract promises: numeric, NaN above +Inf.
func lessTotal(a, b []float64) bool {
	for i := range a {
		an, bn := math.IsNaN(a[i]), math.IsNaN(b[i])
		switch {
		case an != bn:
			return bn
		case !an && a[i] != b[i]:
			return a[i] < b[i]
		}
	}
	return false
}

func TestPoolFloatContract(t *testing.T) {
	negZero := math.Copysign(0, -1)
	values := []float64{
		0, negZero, math.Inf(1), math.Inf(-1), 1, -1, 1.5,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.2e-308, 1e-310,
		math.NaN(),
		math.Float64frombits(0x7ff8000000000002), // another quiet payload
		math.Float64frombits(0xfff8000000000001), // negative quiet
		math.Float64frombits(0x7ff0000000000001), // signalling
		math.Float64frombits(0xfff00000deadbeef), // negative signalling
	}
	type member struct {
		node   lattice.NodeID
		rrowid int64
	}
	rng := rand.New(rand.NewSource(31))
	for y := 1; y <= 3; y++ {
		sink := &recordingSink{}
		p, err := NewPool(y, 10_000, sink)
		if err != nil {
			t.Fatal(err)
		}
		p.ForceFormat = FormatB
		want := map[[3]uint64][]member{}
		for i := 0; i < 600*y; i++ {
			aggrs := make([]float64, y)
			var key [3]uint64
			for k := range aggrs {
				aggrs[k] = values[rng.Intn(len(values))]
				if y == 3 && k > 0 {
					aggrs[k] = values[rng.Intn(4)] // keep groups populated
				}
				key[k] = canonBits(aggrs[k])
			}
			m := member{lattice.NodeID(rng.Intn(5)), int64(i)}
			want[key] = append(want[key], m)
			if err := p.Add(m.node, m.rrowid, aggrs); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.Flush(); err != nil {
			t.Fatal(err)
		}
		got := map[[3]uint64][]member{}
		emitted := func(aggrs []float64) [3]uint64 {
			var key [3]uint64
			for k, v := range aggrs {
				// The emitted value is the canonical one, bit for bit.
				if key[k] = math.Float64bits(v); key[k] != canonBits(v) {
					t.Fatalf("Y=%d: emitted %#x is not canonical", y, key[k])
				}
			}
			return key
		}
		for _, r := range sink.nts {
			key := emitted(r.aggrs)
			if len(want[key]) != 1 {
				t.Fatalf("Y=%d: NT for a group of %d", y, len(want[key]))
			}
			got[key] = append(got[key], member{r.node, r.rrowid})
		}
		for _, c := range sink.cats {
			key := emitted(sink.aggs[c.arowid].aggrs)
			got[key] = append(got[key], member{c.node, c.rrowid})
		}
		// R-rowids were added ascending, so the brute-force lists are in
		// the R-rowid order a group is emitted in.
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Y=%d: groups differ from the brute-force grouping on canonical bits", y)
		}
		for i := 1; i < len(sink.aggs); i++ {
			if !lessTotal(sink.aggs[i-1].aggrs, sink.aggs[i].aggrs) {
				t.Fatalf("Y=%d: AGGREGATES %v before %v", y, sink.aggs[i-1].aggrs, sink.aggs[i].aggrs)
			}
		}
		for i := 1; i < len(sink.nts); i++ {
			if !lessTotal(sink.nts[i-1].aggrs, sink.nts[i].aggrs) {
				t.Fatalf("Y=%d: NT %v before %v", y, sink.nts[i-1].aggrs, sink.nts[i].aggrs)
			}
		}
	}
}

// TestPoolFlushSteadyStateAllocs pins the pool's memory contract: nothing
// is reserved before the first signature, and a warm Add…Flush cycle
// allocates nothing — no permutation, no scratch proportional to the pool.
func TestPoolFlushSteadyStateAllocs(t *testing.T) {
	const n = 2000
	p, err := NewPool(2, n, discardSink{})
	if err != nil {
		t.Fatal(err)
	}
	if p.recs != nil {
		t.Fatalf("NewPool reserved %d words before the first Add", cap(p.recs))
	}
	rng := rand.New(rand.NewSource(3))
	aggrs := make([][]float64, n)
	for i := range aggrs {
		aggrs[i] = []float64{float64(rng.Intn(40)), float64(rng.Intn(3))}
	}
	cycle := func() {
		for i, a := range aggrs {
			if err := p.Add(lattice.NodeID(i&7), int64(i%50), a); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // warm: the buffer exists from here on
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Fatalf("warm Add…Flush cycle allocated %.1f times, want 0", allocs)
	}
}

// discardSink drops everything, so a benchmark measures the pool alone.
type discardSink struct{}

func (discardSink) WriteNT(lattice.NodeID, int64, []float64) error  { return nil }
func (discardSink) AppendAggregate(int64, []float64) (int64, error) { return 0, nil }
func (discardSink) WriteCAT(lattice.NodeID, int64, int64) error     { return nil }

// BenchmarkPoolFlush fills a 1 M-signature pool (Y = 2) and flushes it.
// dup17 has every aggregate combination shared by 17 signatures on
// average, a third of them from a common source — the CAT-heavy shape of
// an APB build; distinct has no two signatures alike, the worst case for
// a sort that wins on duplicates.
func BenchmarkPoolFlush(b *testing.B) {
	const n = 1_000_000
	for _, bc := range []struct {
		name   string
		groups int
	}{{"dup17", n / 17}, {"distinct", n}} {
		b.Run(bc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(5))
			aggrs := make([][2]float64, n)
			rrowids := make([]int64, n)
			for i := range aggrs {
				g := i
				if bc.groups < n {
					g = rng.Intn(bc.groups)
				}
				aggrs[i] = [2]float64{float64(g%4099) * 1.25, float64(g / 4099)}
				rrowids[i] = int64(g*3 + rng.Intn(3))
			}
			rng.Shuffle(n, func(i, j int) { aggrs[i], aggrs[j] = aggrs[j], aggrs[i] })
			pool, err := NewPool(2, n, discardSink{})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range aggrs {
					if err := pool.Add(lattice.NodeID(j&63), rrowids[j], aggrs[j][:]); err != nil {
						b.Fatal(err)
					}
				}
				if err := pool.Flush(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(n)*float64(b.N)/1e6/b.Elapsed().Seconds(), "Msigs/s")
		})
	}
}
