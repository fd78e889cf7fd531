package gen

import (
	"math"
	"math/rand"
	"testing"

	"cure/internal/lattice"
	"cure/internal/relation"
)

func TestZipfUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	z := NewZipf(rng, 10, 0)
	counts := make([]int, 10)
	const n = 100_000
	for i := 0; i < n; i++ {
		counts[z.Next()]++
	}
	for c, got := range counts {
		if math.Abs(float64(got)-n/10) > n/10*0.15 {
			t.Errorf("uniform zipf code %d drawn %d times, want ≈%d", c, got, n/10)
		}
	}
}

func TestZipfSkewConcentrates(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	z := NewZipf(rng, 1000, 1.5)
	head := 0
	const n = 50_000
	for i := 0; i < n; i++ {
		if z.Next() < 10 {
			head++
		}
	}
	// With s = 1.5 the top 10 of 1000 ranks carry most of the mass.
	if float64(head)/n < 0.6 {
		t.Errorf("skewed zipf put only %d/%d draws in the head", head, n)
	}
	// Codes stay in range.
	for i := 0; i < 1000; i++ {
		if c := z.Next(); c < 0 || c >= 1000 {
			t.Fatalf("code %d out of range", c)
		}
	}
}

func TestSyntheticSpec(t *testing.T) {
	spec := SyntheticSpec{Dims: 4, Tuples: 1000, Zipf: 0.8, Seed: 3}
	cards := spec.Cards()
	want := []int32{1000, 500, 333, 250}
	for i := range want {
		if cards[i] != want[i] {
			t.Errorf("C_%d = %d, want %d", i+1, cards[i], want[i])
		}
	}
	ft, hier, err := Synthetic(spec)
	if err != nil {
		t.Fatal(err)
	}
	if ft.Len() != 1000 || hier.NumDims() != 4 {
		t.Fatalf("generated %d rows, %d dims", ft.Len(), hier.NumDims())
	}
	for d := 0; d < 4; d++ {
		for _, v := range ft.Dims[d] {
			if v < 0 || v >= cards[d] {
				t.Fatalf("dim %d value %d out of [0,%d)", d, v, cards[d])
			}
		}
	}
	// Determinism.
	ft2, _, err := Synthetic(spec)
	if err != nil {
		t.Fatal(err)
	}
	for d := range ft.Dims {
		for r := range ft.Dims[d] {
			if ft.Dims[d][r] != ft2.Dims[d][r] {
				t.Fatal("synthetic generation not deterministic")
			}
		}
	}
	if _, _, err := Synthetic(SyntheticSpec{}); err == nil {
		t.Error("empty spec accepted")
	}
}

func TestAPBSchemaMatchesPaper(t *testing.T) {
	hier := APBSchema()
	if hier.NumDims() != 4 {
		t.Fatalf("dims = %d", hier.NumDims())
	}
	// §7: total nodes = (6+1)·(2+1)·(3+1)·(1+1) = 168.
	if got := lattice.NewEnum(hier).NumNodes(); got != 168 {
		t.Errorf("NumNodes = %d, want 168", got)
	}
	p := hier.Dims[0]
	wantCards := []int32{6500, 435, 215, 54, 11, 3}
	for l, w := range wantCards {
		if p.Card(l) != w {
			t.Errorf("Product level %d card = %d, want %d", l, p.Card(l), w)
		}
	}
	if hier.Dims[1].Card(0) != 640 || hier.Dims[1].Card(1) != 71 {
		t.Error("Customer cards wrong")
	}
	if hier.Dims[2].Card(0) != 17 || hier.Dims[2].Card(2) != 2 {
		t.Error("Time cards wrong")
	}
	if hier.Dims[3].Card(0) != 9 {
		t.Error("Channel card wrong")
	}
	// Roll-up consistency: maps must factor through every intermediate
	// level (needed by the partitioner).
	for lo := 0; lo < p.AllLevel(); lo++ {
		for hi := lo + 1; hi <= p.AllLevel(); hi++ {
			if !p.FactorsThrough(lo, hi) {
				t.Errorf("Product level %d does not factor through %d", hi, lo)
			}
		}
	}
}

func TestAPBTuples(t *testing.T) {
	if got := APBTuples(0.1); got != 1_239_300 {
		t.Errorf("density 0.1 → %d tuples, want 1,239,300 (paper)", got)
	}
	if got := APBTuples(40); got != 495_720_000 {
		t.Errorf("density 40 → %d tuples, want 495,720,000 (paper)", got)
	}
}

func TestAPBGeneration(t *testing.T) {
	ft, hier, err := APB(0.0005, 7)
	if err != nil {
		t.Fatal(err)
	}
	if ft.Len() != APBTuples(0.0005) {
		t.Fatalf("rows = %d", ft.Len())
	}
	for d := 0; d < 4; d++ {
		card := hier.Dims[d].Card(0)
		for _, v := range ft.Dims[d] {
			if v < 0 || v >= card {
				t.Fatalf("dim %d value %d out of range", d, v)
			}
		}
	}
	// Measures: unit sales ≥ 1, dollar = unit × price ≥ unit.
	for r := 0; r < ft.Len(); r++ {
		if ft.Measures[0][r] < 1 || ft.Measures[1][r] < ft.Measures[0][r] {
			t.Fatalf("row %d measures %v %v", r, ft.Measures[0][r], ft.Measures[1][r])
		}
	}
	if _, _, err := APB(0, 1); err == nil {
		t.Error("zero density accepted")
	}
}

func TestAPBToFileMatchesInMemory(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/apb.bin"
	n, _, err := APBToFile(path, 0.0002, 9)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(APBTuples(0.0002)) {
		t.Fatalf("streamed %d rows", n)
	}
	ft, _, err := APB(0.0002, 9)
	if err != nil {
		t.Fatal(err)
	}
	back, err := readFact(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != ft.Len() {
		t.Fatalf("file has %d rows, memory %d", back.Len(), ft.Len())
	}
	for r := 0; r < ft.Len(); r++ {
		for d := range ft.Dims {
			if ft.Dims[d][r] != back.Dims[d][r] {
				t.Fatalf("row %d dim %d differs", r, d)
			}
		}
	}
}

func TestCovTypeLike(t *testing.T) {
	ft, hier, err := CovTypeLike(0.01, 4)
	if err != nil {
		t.Fatal(err)
	}
	if hier.NumDims() != 10 {
		t.Fatalf("dims = %d", hier.NumDims())
	}
	scale := 0.01
	if want := int(float64(581_012) * scale); ft.Len() != want {
		t.Fatalf("rows = %d, want %d", ft.Len(), want)
	}
	if _, _, err := CovTypeLike(0, 1); err == nil {
		t.Error("zero scale accepted")
	}
	if _, _, err := CovTypeLike(1.5, 1); err == nil {
		t.Error("scale > 1 accepted")
	}
}

func TestSep85LLikeHasDenseAreas(t *testing.T) {
	ft, hier, err := Sep85LLike(0.01, 4)
	if err != nil {
		t.Fatal(err)
	}
	if hier.NumDims() != 9 {
		t.Fatalf("dims = %d", hier.NumDims())
	}
	// The dense sub-domain must be visibly over-represented: count rows
	// whose every dimension lies in the lowest 1/32 of its domain.
	dense := 0
	for r := 0; r < ft.Len(); r++ {
		in := true
		for d := 0; d < hier.NumDims(); d++ {
			dc := hier.Dims[d].Card(0) / 32
			if dc < 1 {
				dc = 1
			}
			if ft.Dims[d][r] >= dc {
				in = false
				break
			}
		}
		if in {
			dense++
		}
	}
	if float64(dense)/float64(ft.Len()) < 0.15 {
		t.Errorf("dense area holds only %d/%d rows", dense, ft.Len())
	}
}

func TestNodeWorkload(t *testing.T) {
	hier := APBSchema()
	enum := lattice.NewEnum(hier)
	w := NodeWorkload(enum, 1000, 5)
	if len(w) != 1000 {
		t.Fatalf("workload size %d", len(w))
	}
	seen := map[lattice.NodeID]bool{}
	for _, id := range w {
		if !enum.Valid(id) {
			t.Fatalf("invalid node %d", id)
		}
		seen[id] = true
	}
	// 1000 draws over 168 nodes should hit most of them.
	if len(seen) < 100 {
		t.Errorf("workload covers only %d distinct nodes", len(seen))
	}
	// Deterministic.
	w2 := NodeWorkload(enum, 1000, 5)
	for i := range w {
		if w[i] != w2[i] {
			t.Fatal("workload not deterministic")
		}
	}
}

// readFact loads a generated fact file for comparison.
func readFact(path string) (*relation.FactTable, error) {
	return relation.ReadFactFile(path)
}
