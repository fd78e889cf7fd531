// Package sortutil provides the tuple-sorting machinery shared by BUC-style
// cube algorithms: sorting a segment of row indices by the (hierarchy-
// mapped) value of one dimension, and iterating over the resulting runs of
// equal values. Following the paper's remark that CountingSort instead of
// QuickSort keeps BUC-based methods efficient under high skew, the
// counting sort is the default whenever the key cardinality is reasonable,
// with a three-way quicksort fallback. Every sort runs on materialised
// keys: SortKeyed takes the (row index, code) arrays, and Sort is the
// adapter that fills them from a Keyer.
package sortutil

// Keyer produces the sort key of fact-table row r (already an int32 code
// in [0, Card)).
type Keyer interface {
	Key(r int32) int32
	Card() int32
}

// SliceKeyer keys rows by a plain column.
type SliceKeyer struct {
	Col []int32
	Hi  int32 // cardinality
}

// Key returns the code of row r.
func (k SliceKeyer) Key(r int32) int32 { return k.Col[r] }

// Card returns the key cardinality.
func (k SliceKeyer) Card() int32 { return k.Hi }

// MappedKeyer keys rows by a column mapped through a hierarchy level map.
type MappedKeyer struct {
	Col []int32
	Map []int32
	Hi  int32
}

// Key returns the mapped code of row r.
func (k MappedKeyer) Key(r int32) int32 { return k.Map[k.Col[r]] }

// Card returns the key cardinality.
func (k MappedKeyer) Card() int32 { return k.Hi }

// countingSortThreshold bounds the extra memory counting sort may use: we
// fall back to quicksort when the key cardinality exceeds the segment
// length by more than this factor (the counts array would be mostly
// zeroes and its initialization would dominate).
const countingSortThreshold = 4

// insertionMax is the longest segment the stable path sorts by insertion:
// most segments of a cube build are this short, and counting sort would
// clear and prefix-sum a counts array of the level's cardinality for each.
const insertionMax = 16

// Alg identifies which algorithm a Sort call ran, for instrumentation.
type Alg uint8

const (
	// AlgNone means the segment was too short to need sorting.
	AlgNone Alg = iota
	// AlgCounting is the stable distribution sort.
	AlgCounting
	// AlgQuick is the three-way quicksort fallback.
	AlgQuick
	// AlgInsertion is the stable insertion sort of short segments.
	AlgInsertion
)

// String names the algorithm.
func (a Alg) String() string {
	switch a {
	case AlgCounting:
		return "counting"
	case AlgQuick:
		return "quick"
	case AlgInsertion:
		return "insertion"
	default:
		return "none"
	}
}

// Sorter sorts index segments, reusing scratch buffers across calls. It is
// not safe for concurrent use; cube construction owns one per goroutine.
type Sorter struct {
	counts  []int32
	scratch []int32
	keys    []int32 // Sort's materialised keys
	// ForceQuick disables counting sort; used by the ablation benchmark
	// that reproduces the paper's CountingSort-vs-QuickSort remark.
	ForceQuick bool
	// ForceCounting disables the heuristic fallback to quicksort.
	ForceCounting bool
}

// grow returns buf resliced to n elements, reallocating geometrically
// rather than exact-fit: a cube build feeds one Sorter an endless mix of
// segment sizes, and doubling makes reallocation amortize away instead of
// recurring every time a slightly larger segment shows up.
func grow(buf []int32, n int) []int32 {
	if cap(buf) < n {
		buf = make([]int32, max(n, 2*cap(buf)))
	}
	return buf[:n]
}

// Sort reorders idx so that keys are non-decreasing and reports which
// algorithm ran. It materialises the keys once and hands them to
// SortKeyed, which callers holding their own key array use directly.
func (s *Sorter) Sort(idx []int32, key Keyer) Alg {
	s.keys = grow(s.keys, len(idx))
	fillKeys(s.keys, idx, key)
	return s.SortKeyed(idx, s.keys, int(key.Card()))
}

// fillKeys sets keys[i] to the key of row idx[i]. The package's own
// keyers are read without an interface call per row.
func fillKeys(keys, idx []int32, key Keyer) {
	switch k := key.(type) {
	case SliceKeyer:
		Codes(keys, idx, k.Col, nil)
	case MappedKeyer:
		Codes(keys, idx, k.Col, k.Map)
	default:
		for i, r := range idx {
			keys[i] = key.Key(r)
		}
	}
}

// Codes sets keys[i] to the code of row idx[i]: col[r], mapped through
// the hierarchy level map m unless m is nil. It is what a caller that
// owns its key array fills it with before SortKeyed — plain slices, so
// nothing is boxed per call.
func Codes(keys, idx, col, m []int32) {
	keys = keys[:len(idx)]
	if m == nil {
		for i, r := range idx {
			keys[i] = col[r]
		}
		return
	}
	for i, r := range idx {
		keys[i] = m[col[r]]
	}
}

// SortKeyed sorts the pairs (idx[i], keys[i]) by key, every key a code in
// [0, card), and reports which algorithm ran; keys comes back sorted
// beside idx, so the caller finds the runs without looking a row up
// again. It chooses counting sort when the cardinality is small relative
// to the segment (insertion sort when the segment is short), quicksort
// otherwise. Counting and insertion sort are stable. Quicksort is not,
// but its exchanges depend on the key sequence alone, so every path is a
// function of (keys, arrival order): the same input always leaves the
// rows of a run in the same order, which float aggregation is sensitive
// to.
func (s *Sorter) SortKeyed(idx, keys []int32, card int) Alg {
	n := len(idx)
	keys = keys[:n]
	switch {
	case n < 2:
		return AlgNone
	case s.ForceQuick || !(s.ForceCounting || card <= countingSortThreshold*n || card <= 256):
		quickSort(idx, keys)
		return AlgQuick
	case n <= insertionMax:
		insertionSort(idx, keys)
		return AlgInsertion
	}
	s.countingSort(idx, keys, card)
	return AlgCounting
}

// countingSort is a stable distribution sort over codes [0, card).
func (s *Sorter) countingSort(idx, keys []int32, card int) {
	s.counts = grow(s.counts, card+1)
	counts := s.counts
	clear(counts)
	for _, k := range keys {
		counts[k+1]++
	}
	for i := 1; i <= card; i++ {
		counts[i] += counts[i-1]
	}
	s.scratch = grow(s.scratch, len(idx))
	out := s.scratch
	for i, k := range keys {
		out[counts[k]] = idx[i]
		counts[k]++
	}
	copy(idx, out)
	// counts[c] is now where code c's run ends: the sorted keys follow
	// from it without a second scatter.
	lo := int32(0)
	for c, hi := range counts[:card] {
		run := keys[lo:hi]
		for i := range run {
			run[i] = int32(c)
		}
		lo = hi
	}
}

// quickSort is a three-way (Dutch-flag) quicksort, robust to the long runs
// of duplicate keys that cube segments are made of.
func quickSort(idx, keys []int32) {
	for len(idx) > 12 {
		lo, hi := threeWayPartition(idx, keys)
		// Recurse into the smaller side, loop on the larger, keeping the
		// stack logarithmic even on adversarial inputs.
		if lo < len(idx)-hi {
			quickSort(idx[:lo], keys[:lo])
			idx, keys = idx[hi:], keys[hi:]
		} else {
			quickSort(idx[hi:], keys[hi:])
			idx, keys = idx[:lo], keys[:lo]
		}
	}
	insertionSort(idx, keys)
}

// threeWayPartition partitions the pairs around a median-of-three pivot
// and returns the bounds [lo, hi) of the run equal to the pivot.
func threeWayPartition(idx, keys []int32) (int, int) {
	n := len(idx)
	pivot := median3(keys[0], keys[n/2], keys[n-1])
	lo, mid, hi := 0, 0, n
	for mid < hi {
		switch k := keys[mid]; {
		case k < pivot:
			idx[lo], idx[mid] = idx[mid], idx[lo]
			keys[lo], keys[mid] = keys[mid], keys[lo]
			lo++
			mid++
		case k > pivot:
			hi--
			idx[mid], idx[hi] = idx[hi], idx[mid]
			keys[mid], keys[hi] = keys[hi], keys[mid]
		default:
			mid++
		}
	}
	return lo, hi
}

func median3(a, b, c int32) int32 {
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

func insertionSort(idx, keys []int32) {
	for i := 1; i < len(idx); i++ {
		r, k := idx[i], keys[i]
		j := i
		for ; j > 0 && keys[j-1] > k; j-- {
			idx[j], keys[j] = idx[j-1], keys[j-1]
		}
		idx[j], keys[j] = r, k
	}
}

// RunEnd returns the end of the run of equal codes that starts at
// keys[lo], within keys[lo:hi]: with sorted keys, successive runs are the
// segments the paper's FollowEdge visits (its GetNextSegment loop).
func RunEnd(keys []int32, lo, hi int) int {
	code := keys[lo]
	end := lo + 1
	for end < hi && keys[end] == code {
		end++
	}
	return end
}

// Iota fills dst with 0..n-1, allocating if needed, and returns it.
func Iota(dst []int32, n int) []int32 {
	if cap(dst) < n {
		dst = make([]int32, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = int32(i)
	}
	return dst
}
