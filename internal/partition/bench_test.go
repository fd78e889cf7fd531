package partition

import (
	"math/rand"
	"path/filepath"
	"testing"

	"cure/internal/hierarchy"
	"cure/internal/relation"
)

// benchFixture writes a fact file with a hierarchical A (8192→512→32),
// three flat dims and one integer measure.
func benchFixture(b *testing.B, rows int) (string, *hierarchy.Schema, Choice) {
	b.Helper()
	m01 := hierarchy.BuildContiguousMap(8192, 512)
	m02 := hierarchy.ComposeMaps(m01, hierarchy.BuildContiguousMap(512, 32))
	a, err := hierarchy.NewLinearDim("A", []string{"A0", "A1", "A2"}, []int32{8192, 512, 32}, [][]int32{m01, m02})
	if err != nil {
		b.Fatal(err)
	}
	hier, err := hierarchy.NewSchema(a,
		hierarchy.NewFlatDim("B", 64), hierarchy.NewFlatDim("C", 8), hierarchy.NewFlatDim("D", 8))
	if err != nil {
		b.Fatal(err)
	}
	schema := &relation.Schema{DimNames: []string{"A", "B", "C", "D"}, MeasureNames: []string{"M"}}
	ft := relation.NewFactTable(schema, rows)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < rows; i++ {
		ft.Append(
			[]int32{int32(rng.Intn(8192)), int32(rng.Intn(64)), int32(rng.Intn(8)), int32(rng.Intn(8))},
			[]float64{float64(rng.Intn(100))},
		)
	}
	dir := b.TempDir()
	path := filepath.Join(dir, "fact.bin")
	if err := relation.WriteFactFile(path, ft); err != nil {
		b.Fatal(err)
	}
	rBytes := int64(rows) * int64(schema.RowWidth())
	choice, err := SelectLevel(hier.Dims[0], rBytes, (rBytes+7)/8, rBytes, nil)
	if err != nil {
		b.Fatal(err)
	}
	return path, hier, choice
}

func BenchmarkPartitionScan(b *testing.B) {
	const rows = 1_000_000
	path, hier, choice := benchFixture(b, rows)
	specs := []relation.AggSpec{{Func: relation.AggSum, Measure: 0}, {Func: relation.AggCount}}
	out := b.TempDir()
	b.SetBytes(int64(rows) * 24)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := PartitionScan(path, filepath.Join(out, "run"), hier, specs, choice, ScanConfig{})
		if err != nil {
			b.Fatal(err)
		}
		if res.N[0].Len() == 0 {
			b.Fatal("empty N")
		}
	}
}
