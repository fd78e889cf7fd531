package partition

import (
	"math/rand"
	"path/filepath"
	"testing"

	"cure/internal/hierarchy"
	"cure/internal/relation"
)

const gb = int64(1) << 30

// salesDim reproduces the paper's SALES example: Product with hierarchy
// barcode(10,000) → brand(1,000) → economic_strength(10).
func salesDim(t *testing.T) *hierarchy.Dim {
	t.Helper()
	m1 := hierarchy.BuildContiguousMap(10000, 1000)
	m2 := hierarchy.ComposeMaps(m1, hierarchy.BuildContiguousMap(1000, 10))
	d, err := hierarchy.NewLinearDim("Product",
		[]string{"barcode", "brand", "economic_strength"},
		[]int32{10000, 1000, 10}, [][]int32{m1, m2})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestSelectLevelReproducesTable1(t *testing.T) {
	// Table 1 of the paper: |M| = 1 GB.
	d := salesDim(t)
	tests := []struct {
		rBytes    int64
		wantL     int
		wantParts int
		wantRatio float64
		wantN     int64
	}{
		{10 * gb, 2, 10, 10000, 10 * gb / 10000},     // |N| ≈ 1 MB
		{100 * gb, 1, 100, 1000, 100 * gb / 1000},    // |N| ≈ 100 MB
		{1000 * gb, 1, 1000, 1000, 1000 * gb / 1000}, // the paper's "1 TB" row: 1000 partitions, |N| ≈ 1 GB
	}
	for _, tt := range tests {
		c, err := SelectLevel(d, tt.rBytes, gb, gb, nil)
		if err != nil {
			t.Fatalf("R=%d: %v", tt.rBytes, err)
		}
		if len(c.Levels) != 1 || c.Levels[0] != tt.wantL {
			t.Errorf("R=%dGB: levels = %v, want [%d]", tt.rBytes/gb, c.Levels, tt.wantL)
			continue
		}
		if c.NumPartitions != tt.wantParts {
			t.Errorf("R=%dGB: parts = %d, want %d", tt.rBytes/gb, c.NumPartitions, tt.wantParts)
		}
		if ratio := float64(d.Card(0)) / float64(d.Card(c.Levels[0]+1)); ratio != tt.wantRatio {
			t.Errorf("R=%dGB: ratio = %v, want %v", tt.rBytes/gb, ratio, tt.wantRatio)
		}
		if len(c.NBytes) != 1 || c.NBytes[0] != tt.wantN {
			t.Errorf("R=%dGB: |N| = %v, want [%d]", tt.rBytes/gb, c.NBytes, tt.wantN)
		}
		if c.PartitionBytes > gb {
			t.Errorf("R=%dGB: partition size %d exceeds budget", tt.rBytes/gb, c.PartitionBytes)
		}
	}
}

func TestSelectLevelInfeasible(t *testing.T) {
	// §4's motivating failure: |R| = 10 GB, M = 1 GB, top-level
	// cardinality 5 and no deeper levels with enough values.
	d, err := hierarchy.NewLinearDim("A", []string{"a0", "a1"}, []int32{8, 5},
		[][]int32{hierarchy.BuildContiguousMap(8, 5)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SelectLevel(d, 10*gb, gb, gb, nil); err == nil {
		t.Error("infeasible partitioning accepted (only 8 base values for 10 partitions)")
	}
	// Degenerate sizes are rejected.
	if _, err := SelectLevel(d, 0, gb, gb, nil); err == nil {
		t.Error("zero R accepted")
	}
}

func TestSelectLevelPrefersMaxLevel(t *testing.T) {
	// Both L=0 and L=1 are feasible: the maximum must win (it minimizes
	// the N-phase work).
	d, err := hierarchy.NewLinearDim("A", []string{"a0", "a1"}, []int32{1000, 100},
		[][]int32{hierarchy.BuildContiguousMap(1000, 100)})
	if err != nil {
		t.Fatal(err)
	}
	c, err := SelectLevel(d, 10*gb, gb, gb, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.Levels[0] != 1 {
		t.Errorf("Level = %d, want 1", c.Levels[0])
	}
}

func TestDerivedSpecs(t *testing.T) {
	specs := []relation.AggSpec{
		{Func: relation.AggSum, Measure: 3},
		{Func: relation.AggCount},
		{Func: relation.AggMin, Measure: 1},
	}
	got := DerivedSpecs(specs, 3)
	want := []relation.AggSpec{
		{Func: relation.AggSum, Measure: 0},
		{Func: relation.AggSum, Measure: 3},
		{Func: relation.AggMin, Measure: 2},
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("spec %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// buildTestFact writes a small fact table with a 2-level first dimension
// and one flat dimension.
func buildTestFact(t *testing.T, rows int) (string, *hierarchy.Schema, *relation.FactTable) {
	t.Helper()
	m := hierarchy.BuildContiguousMap(16, 4)
	a, err := hierarchy.NewLinearDim("A", []string{"A0", "A1"}, []int32{16, 4}, [][]int32{m})
	if err != nil {
		t.Fatal(err)
	}
	hier, err := hierarchy.NewSchema(a, hierarchy.NewFlatDim("B", 3))
	if err != nil {
		t.Fatal(err)
	}
	schema := &relation.Schema{DimNames: []string{"A", "B"}, MeasureNames: []string{"M"}}
	ft := relation.NewFactTable(schema, rows)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < rows; i++ {
		ft.Append([]int32{int32(rng.Intn(16)), int32(rng.Intn(3))}, []float64{float64(rng.Intn(100))})
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "fact.bin")
	if err := relation.WriteFactFile(path, ft); err != nil {
		t.Fatal(err)
	}
	return path, hier, ft
}

func TestPartitionSoundnessAndN(t *testing.T) {
	path, hier, ft := buildTestFact(t, 500)
	specs := []relation.AggSpec{{Func: relation.AggSum, Measure: 0}, {Func: relation.AggCount}}
	choice := Choice{Levels: []int{0}, NumPartitions: 4}
	res, err := PartitionScan(path, t.TempDir(), hier, specs, choice, ScanConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PartitionPaths) != 4 {
		t.Fatalf("partitions = %d", len(res.PartitionPaths))
	}

	// (1) Partitions are sound on A_0 and their union is exactly R.
	seenRows := map[int64]bool{}
	valueToPart := map[int32]int{}
	var total int
	for pi, pp := range res.PartitionPaths {
		pt, err := relation.ReadFactFile(pp)
		if err != nil {
			t.Fatal(err)
		}
		total += pt.Len()
		for r := 0; r < pt.Len(); r++ {
			id := pt.RowID(r)
			if seenRows[id] {
				t.Fatalf("row %d in two partitions", id)
			}
			seenRows[id] = true
			code := pt.Dims[0][r] // level 0 partitioning: code is the base value
			if prev, ok := valueToPart[code]; ok && prev != pi {
				t.Fatalf("value %d split across partitions %d and %d", code, prev, pi)
			}
			valueToPart[code] = pi
			// Row content matches the original table.
			if ft.Dims[0][id] != pt.Dims[0][r] || ft.Dims[1][id] != pt.Dims[1][r] || ft.Measures[0][id] != pt.Measures[0][r] {
				t.Fatalf("row %d corrupted in partition", id)
			}
		}
	}
	if total != ft.Len() {
		t.Fatalf("partitions hold %d rows, want %d", total, ft.Len())
	}

	// (2) N groups by (A_1, B): verify aggregates against a direct
	// computation.
	type key struct{ a1, b int32 }
	wantSum := map[key]float64{}
	wantCnt := map[key]float64{}
	wantMin := map[key]int64{}
	a := hier.Dims[0]
	for r := 0; r < ft.Len(); r++ {
		k := key{a.MapCode(ft.Dims[0][r], 1), ft.Dims[1][r]}
		wantSum[k] += ft.Measures[0][r]
		wantCnt[k]++
		if _, ok := wantMin[k]; !ok || int64(r) < wantMin[k] {
			wantMin[k] = int64(r)
		}
	}
	n := res.N[0]
	if n.Len() != len(wantSum) {
		t.Fatalf("N has %d groups, want %d", n.Len(), len(wantSum))
	}
	for r := 0; r < n.Len(); r++ {
		k := key{a.MapCode(n.Dims[0][r], 1), n.Dims[1][r]}
		if n.Measures[0][r] != wantSum[k] {
			t.Errorf("group %+v: sum = %v, want %v", k, n.Measures[0][r], wantSum[k])
		}
		if n.Measures[1][r] != wantCnt[k] {
			t.Errorf("group %+v: count agg = %v, want %v", k, n.Measures[1][r], wantCnt[k])
		}
		if n.Measures[res.NCountCol][r] != wantCnt[k] {
			t.Errorf("group %+v: count col = %v, want %v", k, n.Measures[res.NCountCol][r], wantCnt[k])
		}
		if n.RowID(r) != wantMin[k] {
			t.Errorf("group %+v: min rowid = %d, want %d", k, n.RowID(r), wantMin[k])
		}
	}
	// (3) Derived specs re-aggregate N to the grand total correctly.
	agg := relation.NewAggregator(res.NSpecs)
	meas := make([]float64, len(n.Measures))
	for r := 0; r < n.Len(); r++ {
		meas = n.MeasureRow(r, meas)
		agg.AddValues(meas)
	}
	got := agg.Values(nil)
	var totalSum float64
	for _, v := range ft.Measures[0] {
		totalSum += v
	}
	if got[0] != totalSum || got[1] != float64(ft.Len()) {
		t.Errorf("re-aggregated totals = %v, want [%v %v]", got, totalSum, ft.Len())
	}
}

func TestPartitionOnTopLevelDropsDim0(t *testing.T) {
	path, hier, ft := buildTestFact(t, 200)
	specs := []relation.AggSpec{{Func: relation.AggSum, Measure: 0}}
	// L = 1 is the top real level → N is grouped on (ALL, B) = B only.
	choice := Choice{Levels: []int{1}, NumPartitions: 2}
	res, err := PartitionScan(path, t.TempDir(), hier, specs, choice, ScanConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.N[0].Len() != 3 { // |B| = 3
		t.Errorf("N has %d groups, want 3", res.N[0].Len())
	}
	var totalSum float64
	for _, v := range ft.Measures[0] {
		totalSum += v
	}
	var nSum float64
	for r := 0; r < res.N[0].Len(); r++ {
		nSum += res.N[0].Measures[0][r]
	}
	if nSum != totalSum {
		t.Errorf("N sums to %v, want %v", nSum, totalSum)
	}
}

func TestPartitionRejectsNonFactoringHierarchy(t *testing.T) {
	// Dimension whose level 2 does not factor through level 1: N at
	// level 1 cannot represent level-2 groupings.
	bad := &hierarchy.Dim{
		Name: "X",
		Levels: []hierarchy.Level{
			{Name: "x0", Card: 4, RollsUpTo: []int{1, 2}},
			{Name: "x1", Card: 2, Map: []int32{0, 0, 1, 1}},
			{Name: "x2", Card: 2, Map: []int32{0, 1, 0, 1}},
		},
	}
	if err := bad.Finalize(); err != nil {
		t.Fatal(err)
	}
	hier, err := hierarchy.NewSchema(bad)
	if err != nil {
		t.Fatal(err)
	}
	schema := &relation.Schema{DimNames: []string{"X"}, MeasureNames: []string{"M"}}
	ft := relation.NewFactTable(schema, 4)
	for i := 0; i < 4; i++ {
		ft.Append([]int32{int32(i)}, []float64{1})
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "fact.bin")
	if err := relation.WriteFactFile(path, ft); err != nil {
		t.Fatal(err)
	}
	if _, err := PartitionScan(path, t.TempDir(), hier, []relation.AggSpec{{Func: relation.AggCount}}, Choice{Levels: []int{0}, NumPartitions: 2}, ScanConfig{}); err == nil {
		t.Error("non-factoring hierarchy accepted")
	}
}

func TestSelectLevelPair(t *testing.T) {
	// A: 64 → 4; B: 256 → 16; R = 44,800 B, budgets 2,800 / 1,400 →
	// 16 partitions; only (L=1, M=1) works (see core's pair tests for
	// the full derivation).
	a, err := hierarchy.NewLinearDim("A", []string{"A0", "A1"}, []int32{64, 4},
		[][]int32{hierarchy.BuildContiguousMap(64, 4)})
	if err != nil {
		t.Fatal(err)
	}
	b, err := hierarchy.NewLinearDim("B", []string{"B0", "B1"}, []int32{256, 16},
		[][]int32{hierarchy.BuildContiguousMap(256, 16)})
	if err != nil {
		t.Fatal(err)
	}
	// Single-dimension selection must fail here.
	if _, err := SelectLevel(a, 44_800, 2_800, 1_400, nil); err == nil {
		t.Fatal("single-dimension selection unexpectedly feasible")
	}
	c, err := SelectLevelPair(a, b, 44_800, 2_800, 1_400, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Levels) != 2 || c.Levels[0] != 1 || c.Levels[1] != 1 {
		t.Fatalf("levels = %v, want [1 1]", c.Levels)
	}
	if c.NumPartitions != 16 {
		t.Errorf("partitions = %d, want 16", c.NumPartitions)
	}
	if len(c.NBytes) != 2 || c.NBytes[0] != 44_800/64 || c.NBytes[1] != 44_800/256 {
		t.Errorf("N sizes = %v", c.NBytes)
	}
	// Degenerate inputs rejected.
	if _, err := SelectLevelPair(a, b, 0, 1, 1, nil); err == nil {
		t.Error("zero R accepted")
	}
	// Infeasible: both N floors above budget.
	if _, err := SelectLevelPair(a, b, 44_800, 2_800, 10, nil); err == nil {
		t.Error("infeasible pair accepted")
	}
}

func TestPartitionPairSoundness(t *testing.T) {
	a, err := hierarchy.NewLinearDim("A", []string{"A0", "A1"}, []int32{8, 2},
		[][]int32{hierarchy.BuildContiguousMap(8, 2)})
	if err != nil {
		t.Fatal(err)
	}
	b, err := hierarchy.NewLinearDim("B", []string{"B0", "B1"}, []int32{12, 3},
		[][]int32{hierarchy.BuildContiguousMap(12, 3)})
	if err != nil {
		t.Fatal(err)
	}
	hier, err := hierarchy.NewSchema(a, b)
	if err != nil {
		t.Fatal(err)
	}
	schema := &relation.Schema{DimNames: []string{"A", "B"}, MeasureNames: []string{"M"}}
	ft := relation.NewFactTable(schema, 400)
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 400; i++ {
		ft.Append([]int32{int32(rng.Intn(8)), int32(rng.Intn(12))}, []float64{float64(rng.Intn(10))})
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "fact.bin")
	if err := relation.WriteFactFile(path, ft); err != nil {
		t.Fatal(err)
	}
	specs := []relation.AggSpec{{Func: relation.AggSum, Measure: 0}, {Func: relation.AggCount}}
	// L = 0, M = 1: N_0 groups on (A_1, B_0); N_1 on (A_0, ALL) since
	// M + 1 is B's ALL level.
	choice := Choice{Levels: []int{0, 1}, NumPartitions: 5}
	res, err := PartitionScan(path, t.TempDir(), hier, specs, choice, ScanConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Soundness on (A0, B1): a pair value must live in exactly one
	// partition, and the union must be R.
	pairToPart := map[[2]int32]int{}
	total := 0
	for pi, pp := range res.PartitionPaths {
		pt, err := relation.ReadFactFile(pp)
		if err != nil {
			t.Fatal(err)
		}
		total += pt.Len()
		for r := 0; r < pt.Len(); r++ {
			pair := [2]int32{pt.Dims[0][r], b.MapCode(pt.Dims[1][r], 1)}
			if prev, ok := pairToPart[pair]; ok && prev != pi {
				t.Fatalf("pair %v split across partitions %d and %d", pair, prev, pi)
			}
			pairToPart[pair] = pi
		}
	}
	if total != ft.Len() {
		t.Fatalf("partitions hold %d rows, want %d", total, ft.Len())
	}
	// N_0 groups on (A1, B0): count distinct groups directly.
	type k1 struct{ a1, b int32 }
	want1 := map[k1]float64{}
	for r := 0; r < ft.Len(); r++ {
		want1[k1{a.MapCode(ft.Dims[0][r], 1), ft.Dims[1][r]}] += ft.Measures[0][r]
	}
	if res.N[0].Len() != len(want1) {
		t.Fatalf("N_0 groups = %d, want %d", res.N[0].Len(), len(want1))
	}
	for r := 0; r < res.N[0].Len(); r++ {
		key := k1{a.MapCode(res.N[0].Dims[0][r], 1), res.N[0].Dims[1][r]}
		if res.N[0].Measures[0][r] != want1[key] {
			t.Fatalf("N_0 group %v sum = %v, want %v", key, res.N[0].Measures[0][r], want1[key])
		}
	}
	// N_1 groups on (A0, B at ALL) = A0 alone.
	want2 := map[int32]float64{}
	for r := 0; r < ft.Len(); r++ {
		want2[ft.Dims[0][r]] += ft.Measures[0][r]
	}
	if res.N[1].Len() != len(want2) {
		t.Fatalf("N_1 groups = %d, want %d", res.N[1].Len(), len(want2))
	}
	for r := 0; r < res.N[1].Len(); r++ {
		if res.N[1].Measures[0][r] != want2[res.N[1].Dims[0][r]] {
			t.Fatalf("N_1 group %d sum = %v, want %v", res.N[1].Dims[0][r], res.N[1].Measures[0][r], want2[res.N[1].Dims[0][r]])
		}
	}
}
