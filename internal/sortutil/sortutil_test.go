package sortutil

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestIota(t *testing.T) {
	got := Iota(nil, 5)
	if !reflect.DeepEqual(got, []int32{0, 1, 2, 3, 4}) {
		t.Errorf("Iota = %v", got)
	}
	// Reuse path.
	got = Iota(got, 3)
	if !reflect.DeepEqual(got, []int32{0, 1, 2}) {
		t.Errorf("Iota reuse = %v", got)
	}
}

func TestSortSmallAndEmpty(t *testing.T) {
	var s Sorter
	col := []int32{5, 3}
	idx := []int32{}
	s.Sort(idx, SliceKeyer{Col: col, Hi: 10})
	idx = []int32{1}
	s.Sort(idx, SliceKeyer{Col: col, Hi: 10})
	if idx[0] != 1 {
		t.Error("singleton disturbed")
	}
	idx = []int32{0, 1}
	s.Sort(idx, SliceKeyer{Col: col, Hi: 10})
	if !reflect.DeepEqual(idx, []int32{1, 0}) {
		t.Errorf("pair sort = %v", idx)
	}
}

func randomCase(rng *rand.Rand, n, card int) ([]int32, []int32) {
	col := make([]int32, n)
	for i := range col {
		col[i] = int32(rng.Intn(card))
	}
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	rng.Shuffle(n, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	return col, idx
}

func TestSortVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cases := []struct {
		name string
		conf func(*Sorter)
	}{
		{"auto", func(s *Sorter) {}},
		{"quick", func(s *Sorter) { s.ForceQuick = true }},
		{"counting", func(s *Sorter) { s.ForceCounting = true }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for trial := 0; trial < 30; trial++ {
				n := 1 + rng.Intn(2000)
				card := 1 + rng.Intn(5000)
				col, idx := randomCase(rng, n, card)
				var s Sorter
				tc.conf(&s)
				key := SliceKeyer{Col: col, Hi: int32(card)}
				s.Sort(idx, key)
				if !isSorted(idx, key) {
					t.Fatalf("trial %d (n=%d card=%d): not sorted", trial, n, card)
				}
				// Permutation check: every original index appears once.
				seen := make([]bool, n)
				for _, r := range idx {
					if seen[r] {
						t.Fatalf("trial %d: duplicate index %d", trial, r)
					}
					seen[r] = true
				}
			}
		})
	}
}

func TestCountingSortIsStable(t *testing.T) {
	// Equal keys must preserve the input order of idx: BUC-style
	// recursion depends on segments staying contiguous after re-sorts
	// at coarser levels, and stability gives deterministic output.
	col := []int32{1, 0, 1, 0, 1, 0}
	idx := []int32{0, 1, 2, 3, 4, 5}
	var s Sorter
	s.ForceCounting = true
	s.Sort(idx, SliceKeyer{Col: col, Hi: 2})
	want := []int32{1, 3, 5, 0, 2, 4}
	if !reflect.DeepEqual(idx, want) {
		t.Errorf("counting sort order = %v, want %v", idx, want)
	}
}

func TestMappedKeyer(t *testing.T) {
	col := []int32{0, 1, 2, 3}
	m := []int32{1, 1, 0, 0}
	k := MappedKeyer{Col: col, Map: m, Hi: 2}
	if k.Key(0) != 1 || k.Key(3) != 0 {
		t.Error("MappedKeyer.Key wrong")
	}
	if k.Card() != 2 {
		t.Error("MappedKeyer.Card wrong")
	}
	idx := []int32{0, 1, 2, 3}
	var s Sorter
	s.Sort(idx, k)
	if !isSorted(idx, k) {
		t.Error("not sorted under mapped keys")
	}
	if idx[0] != 2 && idx[0] != 3 {
		t.Errorf("mapped sort = %v", idx)
	}
}

// segments calls fn(lo, hi, code) for every run keys[lo:hi] of equal
// codes, walking them with RunEnd as the executor's FollowEdge does.
func segments(keys []int32, fn func(lo, hi int, code int32)) {
	for lo := 0; lo < len(keys); {
		hi := RunEnd(keys, lo, len(keys))
		fn(lo, hi, keys[lo])
		lo = hi
	}
}

// isSorted reports whether idx is sorted by key.
func isSorted(idx []int32, key Keyer) bool {
	for i := 1; i < len(idx); i++ {
		if key.Key(idx[i]) < key.Key(idx[i-1]) {
			return false
		}
	}
	return true
}

func TestSegments(t *testing.T) {
	keys := []int32{3, 3, 5, 5, 5, 7}
	type seg struct {
		lo, hi int
		code   int32
	}
	var got []seg
	segments(keys, func(lo, hi int, code int32) {
		got = append(got, seg{lo, hi, code})
	})
	want := []seg{{0, 2, 3}, {2, 5, 5}, {5, 6, 7}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("segments = %v, want %v", got, want)
	}
	// A run ends at hi even when equal codes follow it.
	if end := RunEnd(keys, 2, 4); end != 4 {
		t.Errorf("RunEnd(keys, 2, 4) = %d, want 4", end)
	}
	// Empty input yields no segments.
	got = nil
	segments(nil, func(lo, hi int, code int32) {
		got = append(got, seg{lo, hi, code})
	})
	if got != nil {
		t.Error("segments on empty input")
	}
}

func TestSegmentsCoverInput(t *testing.T) {
	// Property: after a keyed sort, the runs RunEnd finds tile [0, n)
	// exactly and each is key-homogeneous.
	f := func(seed int64, nRaw, cardRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%500) + 1
		card := int(cardRaw%40) + 1
		col, idx := randomCase(rng, n, card)
		keys := make([]int32, n)
		Codes(keys, idx, col, nil)
		var s Sorter
		s.SortKeyed(idx, keys, card)
		next := 0
		ok := true
		segments(keys, func(lo, hi int, code int32) {
			if lo != next || hi <= lo {
				ok = false
			}
			for i := lo; i < hi; i++ {
				if col[idx[i]] != code {
					ok = false
				}
			}
			next = hi
		})
		return ok && next == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestQuickVsCountingAgreeOnOrder(t *testing.T) {
	// The two sorts may order equal keys differently, but the key
	// sequences must be identical.
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 10; trial++ {
		n := 3000
		card := 100
		col, idx := randomCase(rng, n, card)
		idx2 := append([]int32(nil), idx...)
		key := SliceKeyer{Col: col, Hi: int32(card)}
		var q, c Sorter
		q.ForceQuick = true
		c.ForceCounting = true
		q.Sort(idx, key)
		c.Sort(idx2, key)
		for i := range idx {
			if key.Key(idx[i]) != key.Key(idx2[i]) {
				t.Fatalf("key sequence diverges at %d", i)
			}
		}
	}
}

// TestSortKeyedMatchesStableReference sweeps both sides of the insertion
// cut-off and of the counting-sort heuristic: the stable paths must give
// exactly sort.SliceStable's permutation (a cube's float sums depend on
// the order of rows inside a run), quicksort a sorted one, keys must come
// back sorted beside idx, and Sort — the adapter — must agree with the
// kernel it wraps.
func TestSortKeyedMatchesStableReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for n := 0; n <= 40; n++ {
		for _, card := range []int{1, 2, 3, 7, 16, 64, 65, 255, 256, 257, 300} {
			col, idx := randomCase(rng, n, card)
			ident := make([]int32, card)
			for i := range ident {
				ident[i] = int32(i)
			}
			rng.Shuffle(card, func(i, j int) { ident[i], ident[j] = ident[j], ident[i] })
			for _, key := range []Keyer{
				SliceKeyer{Col: col, Hi: int32(card)},
				MappedKeyer{Col: col, Map: ident, Hi: int32(card)},
			} {
				want := append([]int32(nil), idx...)
				sort.SliceStable(want, func(i, j int) bool { return key.Key(want[i]) < key.Key(want[j]) })
				for _, s := range []*Sorter{{}, {ForceCounting: true}, {ForceQuick: true}} {
					got := append([]int32(nil), idx...)
					keys := make([]int32, n)
					for i, r := range got {
						keys[i] = key.Key(r)
					}
					alg := s.SortKeyed(got, keys, card)
					for i, r := range got {
						if keys[i] != key.Key(r) {
							t.Fatalf("n=%d card=%d %v: keys[%d]=%d beside row %d with key %d", n, card, alg, i, keys[i], r, key.Key(r))
						}
					}
					if !isSorted(got, key) {
						t.Fatalf("n=%d card=%d %v: not sorted", n, card, alg)
					}
					if alg != AlgQuick && !reflect.DeepEqual(got, want) {
						t.Fatalf("n=%d card=%d %v: %v, stable reference %v", n, card, alg, got, want)
					}
					viaSort := append([]int32(nil), idx...)
					if a := s.Sort(viaSort, key); a != alg || !reflect.DeepEqual(viaSort, got) {
						t.Fatalf("n=%d card=%d: Sort ran %v -> %v, SortKeyed %v -> %v", n, card, a, viaSort, alg, got)
					}
				}
			}
		}
	}
}

func TestHighSkewSort(t *testing.T) {
	// Long runs of one value — the regime where naive quicksort is
	// quadratic; both variants must handle it (three-way partitioning).
	n := 200000
	col := make([]int32, n)
	for i := n - 10; i < n; i++ {
		col[i] = 1
	}
	idx := Iota(nil, n)
	var s Sorter
	s.ForceQuick = true
	key := SliceKeyer{Col: col, Hi: 2}
	s.Sort(idx, key)
	if !isSorted(idx, key) {
		t.Error("skewed input not sorted")
	}
}

// TestSorterSteadyStateAllocs pins the scratch-reuse contract: once a
// Sorter has seen its largest segment and cardinality, further sorts of
// any smaller (or equal) shape allocate nothing.
func TestSorterSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n, card = 4096, 512
	col := make([]int32, n)
	for i := range col {
		col[i] = int32(rng.Intn(card))
	}
	var s Sorter
	idx := Iota(nil, n)
	key := Keyer(SliceKeyer{Col: col, Hi: card}) // boxed once, like a hot loop would
	s.Sort(idx, key)                             // warm up the buffers
	sizes := []int{n, n / 2, 37, 1000, n, 256}
	allocs := testing.AllocsPerRun(50, func() {
		for _, sz := range sizes {
			s.Sort(idx[:sz], key)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Sort allocated %.1f times per run, want 0", allocs)
	}
	// The keyed kernel, fed the way the executor feeds it: the caller owns
	// the key array, and sizes on both sides of the insertion cut-off mix.
	keys := make([]int32, n)
	sizes = append(sizes, 2, 9, 16, 17)
	allocs = testing.AllocsPerRun(50, func() {
		for _, sz := range sizes {
			Codes(keys, idx[:sz], col, nil)
			s.SortKeyed(idx[:sz], keys[:sz], card)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state SortKeyed allocated %.1f times per run, want 0", allocs)
	}
}

// TestSorterGrowsGeometrically feeds steadily growing segments and
// checks the amortization: the total number of reallocations stays
// logarithmic in the final size instead of linear in the number of
// distinct sizes (the old exact-fit behavior).
func TestSorterGrowsGeometrically(t *testing.T) {
	var s Sorter
	grows := 0
	prevCap := 0
	col := make([]int32, 10000)
	for i := range col {
		col[i] = int32(i % 64)
	}
	for n := 16; n <= len(col); n += 16 {
		idx := Iota(nil, n)
		s.Sort(idx, SliceKeyer{Col: col[:n], Hi: 64})
		if cap(s.scratch) != prevCap {
			grows++
			prevCap = cap(s.scratch)
		}
	}
	if grows > 12 {
		t.Fatalf("scratch reallocated %d times over a 16..10000 ramp; doubling should need ~10", grows)
	}
}

// BenchmarkSorterManySmallSegments is the deep-recursion workload: one sorter
// handling a stream of small segments of varying size, through the Keyer
// adapter (what buc and bubst call) and through the keyed kernel the way
// the executor drives it (Codes into its own key array, then SortKeyed). The report must
// show 0 allocs/op in steady state on both arms.
func BenchmarkSorterManySmallSegments(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	const n, card = 1 << 16, 300
	col := make([]int32, n)
	for i := range col {
		col[i] = int32(rng.Intn(card))
	}
	segs := []int{900, 64, 4000, 17, 1 << 14, 333, 5, 12}
	b.Run("adapter", func(b *testing.B) {
		var s Sorter
		idx := Iota(nil, n)
		key := Keyer(SliceKeyer{Col: col, Hi: card})
		s.Sort(idx, key) // steady state
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Sort(idx[:segs[i%len(segs)]], key)
		}
	})
	b.Run("keyed", func(b *testing.B) {
		var s Sorter
		idx := Iota(nil, n)
		keys := make([]int32, n)
		s.Sort(idx, SliceKeyer{Col: col, Hi: card}) // steady state
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			seg := idx[:segs[i%len(segs)]]
			Codes(keys, seg, col, nil)
			s.SortKeyed(seg, keys[:len(seg)], card)
		}
	})
}
