package core

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"testing"

	"cure/internal/gen"
	"cure/internal/hierarchy"
	"cure/internal/query"
	"cure/internal/relation"
	"cure/internal/signature"
	"cure/internal/storage"
)

// paperHier builds the running example: A0(12)→A1(6)→A2(2), B0(8)→B1(3),
// flat C(4).
func paperHier(t testing.TB) *hierarchy.Schema {
	t.Helper()
	am1 := hierarchy.BuildContiguousMap(12, 6)
	am2 := hierarchy.ComposeMaps(am1, hierarchy.BuildContiguousMap(6, 2))
	a, err := hierarchy.NewLinearDim("A", []string{"A0", "A1", "A2"}, []int32{12, 6, 2}, [][]int32{am1, am2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := hierarchy.NewLinearDim("B", []string{"B0", "B1"}, []int32{8, 3}, [][]int32{hierarchy.BuildContiguousMap(8, 3)})
	if err != nil {
		t.Fatal(err)
	}
	s, err := hierarchy.NewSchema(a, b, hierarchy.NewFlatDim("C", 4))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// randomFact builds a fact table over paperHier's domains with integer
// measures (so float aggregation is exact).
func randomFact(t testing.TB, rows int, seed int64) *relation.FactTable {
	t.Helper()
	schema := &relation.Schema{DimNames: []string{"A", "B", "C"}, MeasureNames: []string{"M1", "M2"}}
	ft := relation.NewFactTable(schema, rows)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < rows; i++ {
		ft.Append(
			[]int32{int32(rng.Intn(12)), int32(rng.Intn(8)), int32(rng.Intn(4))},
			[]float64{float64(rng.Intn(20)), float64(rng.Intn(5))},
		)
	}
	return ft
}

func testSpecs() []relation.AggSpec {
	return []relation.AggSpec{
		{Func: relation.AggSum, Measure: 0},
		{Func: relation.AggCount},
	}
}

func TestBuildVariantsMatchReference(t *testing.T) {
	ft := randomFact(t, 600, 42)
	for _, v := range []struct {
		name string
		mod  func(*Options)
	}{
		{"plain", func(o *Options) {}},
		{"plus", func(o *Options) { o.Plus = true }},
		{"dr", func(o *Options) { o.DimsInline = true }},
		{"dr_plus", func(o *Options) { o.DimsInline = true; o.Plus = true }},
		{"no_pool", func(o *Options) { o.PoolCapacity = NoPool }},
		{"tiny_pool", func(o *Options) { o.PoolCapacity = 7 }},
		{"force_format_a", func(o *Options) { o.ForceFormat = signature.FormatA }},
		{"force_format_b", func(o *Options) { o.ForceFormat = signature.FormatB }},
		{"quicksort", func(o *Options) { o.ForceQuickSort = true }},
	} {
		t.Run(v.name, func(t *testing.T) {
			opts := Options{Hier: paperHier(t), AggSpecs: testSpecs()}
			v.mod(&opts)
			if buildChecked(t, ft, opts).Partitioned {
				t.Fatal("in-memory build partitioned")
			}
		})
	}
}

func TestBuildPartitionedMatchesReference(t *testing.T) {
	// Budget forces partitioning: the table is 800 × 28 = 22,400 bytes;
	// a 16,000-byte budget loads at most 8,000 bytes of partition at a
	// time (3 partitions on A1) with node N under 4,000 bytes.
	stats := buildChecked(t, randomFact(t, 800, 7), Options{Hier: paperHier(t), AggSpecs: testSpecs(), MemoryBudget: 16_000})
	if !stats.Partitioned || stats.NumPartitions < 2 {
		t.Fatalf("partitioned = %v, partitions = %d", stats.Partitioned, stats.NumPartitions)
	}
}

func TestBuildPartitionedVariants(t *testing.T) {
	ft := randomFact(t, 500, 99)
	for _, v := range []struct {
		name string
		mod  func(*Options)
	}{
		{"plus", func(o *Options) { o.Plus = true }},
		{"dr", func(o *Options) { o.DimsInline = true }},
	} {
		t.Run(v.name, func(t *testing.T) {
			opts := Options{Hier: paperHier(t), AggSpecs: testSpecs(), MemoryBudget: 10_000}
			v.mod(&opts)
			if !buildChecked(t, ft, opts).Partitioned {
				t.Fatal("expected partitioned build")
			}
		})
	}
}

func TestFlatBuildMatchesFlatReference(t *testing.T) {
	dir := t.TempDir()
	buildAt(t, dir, randomFact(t, 400, 3), Options{Hier: paperHier(t), AggSpecs: testSpecs(), Flat: true})
	checkCube(t, filepath.Join(dir, "cube"))
	// The flat cube is the cube of the flattened schema: 2^3 nodes.
	eng, err := query.OpenDefault(filepath.Join(dir, "cube"))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if n := eng.Enum().NumNodes(); n != 8 {
		t.Fatalf("flat cube has %d nodes, want 8", n)
	}
}

func TestIcebergBuild(t *testing.T) {
	stats := buildChecked(t, randomFact(t, 500, 11), Options{Hier: paperHier(t), AggSpecs: testSpecs(), Iceberg: 4})
	if stats.TTs != 0 {
		t.Errorf("iceberg cube stored %d TTs", stats.TTs)
	}
}

func TestComplexHierarchyBuild(t *testing.T) {
	// 2-dim cube where the first dimension is Figure 5a's complex time
	// hierarchy; verifies the modified rule 2 still yields a correct,
	// complete cube.
	hier, err := hierarchy.NewSchema(timeDim(t, "time"), hierarchy.NewFlatDim("store", 5))
	if err != nil {
		t.Fatal(err)
	}
	ft := relation.NewFactTable(&relation.Schema{DimNames: []string{"time", "store"}, MeasureNames: []string{"M"}}, 300)
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 300; i++ {
		ft.Append([]int32{int32(rng.Intn(60)), int32(rng.Intn(5))}, []float64{float64(rng.Intn(9))})
	}
	buildChecked(t, ft, Options{Hier: hier, AggSpecs: testSpecs()})
}

func TestBuildEmptyAndSingleRowTables(t *testing.T) {
	// Empty table: a valid cube with no tuples anywhere.
	empty := relation.NewFactTable(&relation.Schema{DimNames: []string{"A", "B", "C"}, MeasureNames: []string{"M1", "M2"}}, 0)
	if stats := buildChecked(t, empty, Options{Hier: paperHier(t), AggSpecs: testSpecs()}); stats.TTs != 0 || stats.Pool.Total != 0 {
		t.Errorf("empty build stats = %+v", stats)
	}
	// Single row: one TT at the root (∅) shared by the entire lattice.
	single := relation.NewFactTable(empty.Schema, 1)
	single.Append([]int32{3, 2, 1}, []float64{10, 20})
	if stats := buildChecked(t, single, Options{Hier: paperHier(t), AggSpecs: testSpecs()}); stats.TTs != 1 {
		t.Errorf("single-row build stored %d TTs, want 1 (shared from the root)", stats.TTs)
	}
}

func TestMinMaxAggregatesEndToEnd(t *testing.T) {
	buildChecked(t, randomFact(t, 300, 77), Options{Hier: paperHier(t), AggSpecs: []relation.AggSpec{
		{Func: relation.AggSum, Measure: 0},
		{Func: relation.AggCount},
		{Func: relation.AggMin, Measure: 1},
		{Func: relation.AggMax, Measure: 1},
	}})
}

func TestBuildWithSortedDimsHeuristic(t *testing.T) {
	// The BUC cardinality-ordering heuristic: building over a schema
	// whose dims are pre-sorted by decreasing cardinality must produce
	// the same query results as the natural order (contents are order-
	// independent; only performance differs).
	hier := paperHier(t)
	permHier, permFt := permuted(t, hier.Dims, randomFact(t, 300, 31), hier.SortByCardinality())
	buildChecked(t, permFt, Options{Hier: permHier, AggSpecs: testSpecs()})
}

func TestParallelPartitionedBuildMatchesReference(t *testing.T) {
	stats := buildChecked(t, randomFact(t, 1200, 19), Options{
		Hier: paperHier(t), AggSpecs: testSpecs(), MemoryBudget: 24_000, Parallelism: 4,
	})
	if !stats.Partitioned {
		t.Fatal("expected a partitioned build")
	}
	if stats.CatFormat != signature.FormatB {
		t.Errorf("parallel build format = %v, want pinned B", stats.CatFormat)
	}
}

// TestIcebergQueryOnCompleteCube: IcebergQuery over a complete cube
// answers exactly the node's rows whose COUNT is above the threshold.
func TestIcebergQueryOnCompleteCube(t *testing.T) {
	opts := Options{Dir: t.TempDir(), Hier: paperHier(t), AggSpecs: testSpecs()}
	if _, err := BuildFromTable(randomFact(t, 500, 13), opts); err != nil {
		t.Fatal(err)
	}
	eng, err := query.OpenDefault(opts.Dir)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	enum := eng.Enum()
	const minCount = 5.0
	render := func(row query.Row) string { return fmt.Sprint(row.Dims, row.Aggrs) }
	for _, id := range enum.AllNodes() {
		var want, got []string
		if err := eng.NodeQuery(id, func(row query.Row) error {
			if row.Aggrs[1] > minCount {
				want = append(want, render(row))
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if err := eng.IcebergQuery(id, 1, minCount, func(row query.Row) error {
			got = append(got, render(row))
			return nil
		}); err != nil {
			t.Fatalf("node %s: %v", enum.Name(id), err)
		}
		slices.Sort(want)
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Fatalf("node %s: iceberg returned %v, want %v", enum.Name(id), got, want)
		}
	}
	// Bad arguments are rejected.
	if err := eng.IcebergQuery(0, 0, 5, func(query.Row) error { return nil }); err == nil {
		t.Error("non-COUNT aggregate accepted")
	}
	if err := eng.IcebergQuery(0, 1, 0, func(query.Row) error { return nil }); err == nil {
		t.Error("threshold below 1 accepted")
	}
}

// relationalBytes is the paper's size unit: the cube's rows at their
// fixed relational widths, before block encoding.
func relationalBytes(t *testing.T, dir string) int64 {
	t.Helper()
	m, err := storage.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	add := func(c *storage.ExtentCodec) {
		if c != nil {
			total += c.RawBytes
		}
	}
	add(m.AggCodec)
	for _, nm := range m.Nodes {
		add(nm.NTCodec)
		add(nm.CATCodec)
		total += 8 * nm.TTRows // row-ids, however CURE+ stored them
	}
	return total
}

func TestPoolSizeAffectsCubeSizeMonotonically(t *testing.T) {
	// Figure 18's claim: cube size decreases (weakly) with pool size.
	hier := paperHier(t)
	ft := randomFact(t, 800, 55)
	specs := testSpecs()
	var sizes []int64
	for _, cap := range []int{NoPool, 16, 256, 0 /* default = unbounded here */} {
		opts := Options{Dir: t.TempDir(), Hier: hier, AggSpecs: specs, PoolCapacity: cap}
		if _, err := BuildFromTable(ft, opts); err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, relationalBytes(t, opts.Dir))
	}
	if !sort.SliceIsSorted(sizes, func(i, j int) bool { return sizes[i] >= sizes[j] }) {
		t.Errorf("cube sizes not non-increasing with pool size: %v", sizes)
	}
}

func TestBuildStatsAndValidation(t *testing.T) {
	hier := paperHier(t)
	ft := randomFact(t, 200, 1)
	specs := testSpecs()
	opts := Options{Dir: t.TempDir(), Hier: hier, AggSpecs: specs}
	stats, err := BuildFromTable(ft, opts)
	if err != nil {
		t.Fatal(err)
	}
	if stats.TTs == 0 || stats.Pool.Total == 0 {
		t.Errorf("suspicious stats: %+v", stats)
	}
	if stats.NodesMaterialized == 0 || stats.Relations < stats.NodesMaterialized {
		t.Errorf("relation accounting wrong: %+v", stats)
	}
	if stats.Elapsed <= 0 {
		t.Error("Elapsed not measured")
	}
	// Validation failures.
	if _, err := Build(Options{}); err == nil {
		t.Error("empty options accepted")
	}
	if _, err := Build(Options{Dir: t.TempDir(), FactPath: "nope.bin", Hier: hier, AggSpecs: specs}); err == nil {
		t.Error("missing fact file accepted")
	}
	if _, err := BuildFromTable(ft, Options{Dir: t.TempDir(), FactPath: "x", Hier: hier, AggSpecs: specs}); err == nil {
		t.Error("BuildFromTable with FactPath accepted")
	}
}

func TestRollUpDrillDown(t *testing.T) {
	hier := paperHier(t)
	ft := randomFact(t, 100, 17)
	opts := Options{Dir: t.TempDir(), Hier: hier, AggSpecs: testSpecs()}
	if _, err := BuildFromTable(ft, opts); err != nil {
		t.Fatal(err)
	}
	eng, err := query.OpenDefault(opts.Dir)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	enum := eng.Enum()
	base := enum.Encode([]int{0, 0, 0})
	up, ok := eng.RollUp(base, 0)
	if !ok || up != enum.Encode([]int{1, 0, 0}) {
		t.Errorf("RollUp = %d ok=%v", up, ok)
	}
	down, ok := eng.DrillDown(up, 0)
	if !ok || down != base {
		t.Errorf("DrillDown = %d ok=%v", down, ok)
	}
	root := enum.RootID()
	if _, ok := eng.DrillDown(base, 0); ok {
		t.Error("drill below base succeeded")
	}
	if _, ok := eng.RollUp(root, 0); ok {
		t.Error("roll above ALL succeeded")
	}
}

func TestConcurrentEngines(t *testing.T) {
	// Each query.Engine is single-goroutine, but independent engines over
	// one cube directory must be safe to use concurrently.
	hier := paperHier(t)
	ft := randomFact(t, 400, 12)
	specs := testSpecs()
	opts := Options{Dir: t.TempDir(), Hier: hier, AggSpecs: specs}
	if _, err := BuildFromTable(ft, opts); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			eng, err := query.Open(opts.Dir, query.Options{CacheFraction: 0.5, PinAggregates: true})
			if err != nil {
				errs <- err
				return
			}
			defer eng.Close()
			for _, id := range eng.Enum().AllNodes() {
				if err := eng.NodeQuery(id, func(query.Row) error { return nil }); err != nil {
					errs <- err
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestShortPlanRejectsPartitioned(t *testing.T) {
	hier := paperHier(t)
	ft := randomFact(t, 800, 3)
	dir := t.TempDir()
	factPath := filepath.Join(dir, "fact.bin")
	if err := relation.WriteFactFile(factPath, ft); err != nil {
		t.Fatal(err)
	}
	_, err := Build(Options{
		Dir:          filepath.Join(dir, "cube"),
		FactPath:     factPath,
		Hier:         hier,
		AggSpecs:     testSpecs(),
		MemoryBudget: 16_000,
		ShortPlan:    true,
	})
	if err == nil {
		t.Error("ShortPlan with partitioning accepted")
	}
}

// pairHier builds a schema that forces the pair-partitioning fallback
// with a 5,600-byte budget over 1,600 rows (R = 44,800 B, 16 partitions
// needed): dimension A's top level has only 4 values (too few partitions)
// while level 0 makes node N too big (R/16 > budget/4); the pair
// (A_1, B_1) offers 64 values with N1 = R/64 and N2 = R/256 both fitting.
func pairHier(t testing.TB) *hierarchy.Schema {
	t.Helper()
	a, err := hierarchy.NewLinearDim("A", []string{"A0", "A1"}, []int32{64, 4}, [][]int32{hierarchy.BuildContiguousMap(64, 4)})
	if err != nil {
		t.Fatal(err)
	}
	b, err := hierarchy.NewLinearDim("B", []string{"B0", "B1"}, []int32{256, 16}, [][]int32{hierarchy.BuildContiguousMap(256, 16)})
	if err != nil {
		t.Fatal(err)
	}
	s, err := hierarchy.NewSchema(a, b, hierarchy.NewFlatDim("C", 5))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// pairEquivFact draws 1,600 rows in pairHier's code space (A:64, B:256,
// C:5) with integer-valued measures, so aggregates stay exact across fold
// orders.
func pairEquivFact(t *testing.T, seed int64) *relation.FactTable {
	t.Helper()
	schema := &relation.Schema{DimNames: []string{"A", "B", "C"}, MeasureNames: []string{"M1", "M2"}}
	ft := relation.NewFactTable(schema, 1600)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 1600; i++ {
		ft.Append(
			[]int32{int32(rng.Intn(64)), int32(rng.Intn(256)), int32(rng.Intn(5))},
			[]float64{float64(rng.Intn(12)), float64(rng.Intn(3))},
		)
	}
	return ft
}

func TestPairPartitionedBuildMatchesReference(t *testing.T) {
	dir := t.TempDir()
	stats := buildAt(t, dir, pairEquivFact(t, 8), Options{Hier: pairHier(t), AggSpecs: testSpecs(), MemoryBudget: 5_600})
	if !stats.Partitioned {
		t.Fatal("expected a partitioned build")
	}
	m, err := storage.ReadManifest(filepath.Join(dir, "cube"))
	if err != nil {
		t.Fatal(err)
	}
	if m.PartitionLevelB < 0 {
		t.Fatal("expected pair partitioning (PartitionLevelB set)")
	}
	checkCube(t, filepath.Join(dir, "cube"))
}

func TestPairPartitionedVariantsAndSkew(t *testing.T) {
	for _, tc := range []struct {
		name string
		mod  func(*Options)
		seed int64
	}{
		{"plus", func(o *Options) { o.Plus = true }, 3},
		{"iceberg", func(o *Options) { o.Iceberg = 3 }, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := Options{Hier: pairHier(t), AggSpecs: testSpecs(), MemoryBudget: 5_600}
			tc.mod(&opts)
			if !buildChecked(t, pairEquivFact(t, tc.seed), opts).Partitioned {
				t.Fatal("expected partitioned build")
			}
		})
	}
}

// TestFailedPartitionedBuildLeavesNothing:a partitioning scan that fails
// midway (here a fact file whose body is shorter than its header says)
// must return the error and leave neither the partition files in Dir/tmp
// nor a directory that opens — on the single-dimension path and on the
// pair fallback.
func TestFailedPartitionedBuildLeavesNothing(t *testing.T) {
	cases := []struct {
		name   string
		hier   *hierarchy.Schema
		budget int64
		write  func(path string) error
	}{
		{"single", gen.APBSchema(), 200_000, func(path string) error {
			_, _, err := gen.APBToFile(path, 0.0008, 1)
			return err
		}},
		{"pair", pairHier(t), 5_600, func(path string) error {
			return relation.WriteFactFile(path, pairEquivFact(t, 8))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			factPath := filepath.Join(dir, "fact.bin")
			if err := tc.write(factPath); err != nil {
				t.Fatal(err)
			}
			opts := Options{
				Dir:          filepath.Join(dir, "cube"),
				FactPath:     factPath,
				Hier:         tc.hier,
				AggSpecs:     testSpecs(),
				MemoryBudget: tc.budget,
			}
			// The intact file takes the path under test.
			stats, err := Build(opts)
			if err != nil {
				t.Fatal(err)
			}
			m, err := storage.ReadManifest(opts.Dir)
			if err != nil {
				t.Fatal(err)
			}
			if !stats.Partitioned || (m.PartitionLevelB >= 0) != (tc.name == "pair") {
				t.Fatalf("fixture took the wrong path: partitioned=%v levelB=%d", stats.Partitioned, m.PartitionLevelB)
			}
			if err := os.RemoveAll(opts.Dir); err != nil {
				t.Fatal(err)
			}

			fi, err := os.Stat(factPath)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(factPath, fi.Size()/2); err != nil {
				t.Fatal(err)
			}
			if _, err := Build(opts); err == nil {
				t.Fatal("build over a truncated fact file succeeded")
			}
			if _, err := os.Stat(filepath.Join(opts.Dir, "tmp")); !os.IsNotExist(err) {
				left, _ := filepath.Glob(filepath.Join(opts.Dir, "tmp", "*"))
				t.Errorf("Dir/tmp survives the failed build (stat err %v): %v", err, left)
			}
			if r, err := storage.OpenReader(opts.Dir); err == nil {
				r.Close()
				t.Error("the failed build left a directory that opens")
			}
		})
	}
}
