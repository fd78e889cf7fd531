package cure_test

// Benchmarks that regenerate every table and figure of the paper's
// evaluation (§7) at laptop scale, one testing.B target per exhibit, plus
// micro-benchmarks for the hot paths. Run with:
//
//	go test -bench=. -benchmem
//
// Each figure benchmark logs the regenerated table (visible with -v); the
// cmd/cubebench tool runs the same experiments at configurable scale.

import (
	"math/rand"
	"path/filepath"
	"testing"

	cure "cure"
	"cure/internal/bench"
	"cure/internal/gen"
	"cure/internal/lattice"
	"cure/internal/relation"
	"cure/internal/signature"
	"cure/internal/sortutil"
)

// benchConfig keeps figure benchmarks in the seconds range.
func benchConfig() bench.Config {
	return bench.Config{
		Scale:        0.002,
		APBDensities: []float64{0.0005, 0.002},
		MemoryBudget: 1 << 20,
		Queries:      40,
		Seed:         1,
		MaxDims:      12,
	}
}

// benchExperiment reruns one paper exhibit per iteration and logs the
// regenerated table once.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		h, err := bench.New(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		res, err := h.Run(id)
		if err != nil {
			h.Close()
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.String())
		}
		h.Close()
	}
}

func BenchmarkTable1PartitionPlan(b *testing.B)   { benchExperiment(b, "table1") }
func BenchmarkFig14ConstructionReal(b *testing.B) { benchExperiment(b, "fig14") }
func BenchmarkFig15StorageReal(b *testing.B)      { benchExperiment(b, "fig15") }
func BenchmarkFig16QueryReal(b *testing.B)        { benchExperiment(b, "fig16") }
func BenchmarkFig17Caching(b *testing.B)          { benchExperiment(b, "fig17") }
func BenchmarkFig18PoolSize(b *testing.B)         { benchExperiment(b, "fig18") }
func BenchmarkFig19DimsTime(b *testing.B)         { benchExperiment(b, "fig19") }
func BenchmarkFig20DimsSpace(b *testing.B)        { benchExperiment(b, "fig20") }
func BenchmarkFig21SkewTime(b *testing.B)         { benchExperiment(b, "fig21") }
func BenchmarkFig22SkewSpace(b *testing.B)        { benchExperiment(b, "fig22") }
func BenchmarkFig23APBTime(b *testing.B)          { benchExperiment(b, "fig23") }
func BenchmarkFig24APBSpace(b *testing.B)         { benchExperiment(b, "fig24") }
func BenchmarkFig25APBQuery(b *testing.B)         { benchExperiment(b, "fig25") }
func BenchmarkFig26FlatVsHierTime(b *testing.B)   { benchExperiment(b, "fig26") }
func BenchmarkFig27FlatVsHierSpace(b *testing.B)  { benchExperiment(b, "fig27") }
func BenchmarkFig28FlatVsHierQuery(b *testing.B)  { benchExperiment(b, "fig28") }
func BenchmarkIcebergQuery(b *testing.B)          { benchExperiment(b, "iceberg") }
func BenchmarkAblationSortMode(b *testing.B)      { benchExperiment(b, "ablation-sort") }
func BenchmarkAblationSharedPlan(b *testing.B)    { benchExperiment(b, "ablation-plan") }

// --- Micro-benchmarks for the hot paths. ---

// BenchmarkCUREBuildInMemory measures the core in-memory construction on
// a small APB-1 table (per-op cost amortizes dataset generation away).
func BenchmarkCUREBuildInMemory(b *testing.B) {
	ft, hier, err := gen.APB(0.0005, 1)
	if err != nil {
		b.Fatal(err)
	}
	specs := []cure.AggSpec{{Func: cure.AggSum, Measure: 0}, {Func: cure.AggCount}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dir := filepath.Join(b.TempDir(), "cube")
		if _, err := cure.BuildFromTable(ft, cure.BuildOptions{Dir: dir, Hier: hier, AggSpecs: specs}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(ft.Len()), "tuples")
}

// BenchmarkNodeQuery measures a single mid-size node query on a built
// APB-1 cube.
func BenchmarkNodeQuery(b *testing.B) {
	ft, hier, err := gen.APB(0.0005, 1)
	if err != nil {
		b.Fatal(err)
	}
	dir := filepath.Join(b.TempDir(), "cube")
	specs := []cure.AggSpec{{Func: cure.AggSum, Measure: 0}, {Func: cure.AggCount}}
	if _, err := cure.BuildFromTable(ft, cure.BuildOptions{Dir: dir, Hier: hier, AggSpecs: specs}); err != nil {
		b.Fatal(err)
	}
	eng, err := cure.OpenCube(dir)
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	node := eng.Enum().Encode([]int{1, 1, 3, 1}) // Class × Retailer
	b.ResetTimer()
	var rows int64
	for i := 0; i < b.N; i++ {
		if err := eng.Query(cure.Spec{Node: node}, func(cure.Row) error { rows++; return nil }); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows)/float64(b.N), "rows/query")
}

// BenchmarkSignaturePoolFlush measures classification throughput of the
// signature pool (sort + group + emit).
func BenchmarkSignaturePoolFlush(b *testing.B) {
	const n = 100_000
	rng := rand.New(rand.NewSource(3))
	aggrs := make([][2]float64, n)
	rrowids := make([]int64, n)
	for i := range aggrs {
		aggrs[i] = [2]float64{float64(rng.Intn(5000)), float64(rng.Intn(8))}
		rrowids[i] = int64(rng.Intn(20000))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pool, err := signature.NewPool(2, n, discardSink{})
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < n; j++ {
			a := aggrs[j]
			if err := pool.Add(lattice.NodeID(j%64), rrowids[j], a[:]); err != nil {
				b.Fatal(err)
			}
		}
		if err := pool.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(n, "signatures")
}

type discardSink struct{}

func (discardSink) WriteNT(lattice.NodeID, int64, []float64) error { return nil }
func (discardSink) AppendAggregate(int64, []float64) (int64, error) {
	return 0, nil
}
func (discardSink) WriteCAT(lattice.NodeID, int64, int64) error { return nil }

// BenchmarkCountingSortSkewed measures the sorting hot path under the
// paper's high-skew regime.
func BenchmarkCountingSortSkewed(b *testing.B) {
	benchSort(b, false)
}

// BenchmarkQuickSortSkewed is the ablation counterpart.
func BenchmarkQuickSortSkewed(b *testing.B) {
	benchSort(b, true)
}

func benchSort(b *testing.B, forceQuick bool) {
	b.Helper()
	const n = 200_000
	rng := rand.New(rand.NewSource(5))
	z := gen.NewZipf(rng, 10_000, 2.0)
	col := make([]int32, n)
	for i := range col {
		col[i] = z.Next()
	}
	idx := make([]int32, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range idx {
			idx[j] = int32(j)
		}
		var s sortutil.Sorter
		s.ForceQuick = forceQuick
		s.Sort(idx, sortutil.SliceKeyer{Col: col, Hi: 10_000})
	}
	b.SetBytes(n * 4)
}

// BenchmarkAggregateRange measures the segment-aggregation inner loop.
func BenchmarkAggregateRange(b *testing.B) {
	schema := &relation.Schema{DimNames: []string{"A"}, MeasureNames: []string{"M"}}
	ft := relation.NewFactTable(schema, 100_000)
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 100_000; i++ {
		ft.Append([]int32{0}, []float64{float64(rng.Intn(100))})
	}
	specs := []relation.AggSpec{{Func: relation.AggSum, Measure: 0}, {Func: relation.AggCount}}
	idx := sortutil.Iota(nil, ft.Len())
	buf := make([]float64, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = relation.AggregateRange(ft, specs, idx, 0, ft.Len(), buf)
	}
	b.SetBytes(int64(ft.Len()) * 8)
}

// BenchmarkEnumEncodeDecode measures node-id arithmetic.
func BenchmarkEnumEncodeDecode(b *testing.B) {
	enum := lattice.NewEnum(gen.APBSchema())
	levels := make([]int, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := lattice.NodeID(int64(i) % enum.NumNodes())
		levels = enum.Decode(id, levels)
		if enum.Encode(levels) != id {
			b.Fatal("round trip failed")
		}
	}
}

// BenchmarkHierarchyMapCode measures the roll-up map lookup.
func BenchmarkHierarchyMapCode(b *testing.B) {
	d := gen.APBSchema().Dims[0]
	b.ResetTimer()
	var acc int32
	for i := 0; i < b.N; i++ {
		acc += d.MapCode(int32(i%6500), 3)
	}
	_ = acc
}

func BenchmarkAblationPlanHeight(b *testing.B) { benchExperiment(b, "ablation-height") }
