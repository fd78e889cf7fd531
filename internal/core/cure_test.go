package core

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"cure/internal/cubetest"
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

// verifyCube checks every lattice node of the cube against the reference.
func verifyCube(t *testing.T, dir string, hier *hierarchy.Schema, ft *relation.FactTable, specs []relation.AggSpec, engOpts query.Options) {
	t.Helper()
	eng, err := query.Open(dir, engOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	enum := eng.Enum()
	for _, id := range enum.AllNodes() {
		want := cubetest.ReferenceNode(hier, enum, ft, specs, id)
		got := map[string][]float64{}
		err := eng.NodeQuery(id, func(row query.Row) error {
			k := cubetest.RowKey(row.Dims)
			if _, dup := got[k]; dup {
				return fmt.Errorf("duplicate tuple %q in node %s", k, enum.Name(id))
			}
			got[k] = append([]float64(nil), row.Aggrs...)
			return nil
		})
		if err != nil {
			t.Fatalf("node %s: %v", enum.Name(id), err)
		}
		if len(got) != len(want) {
			t.Fatalf("node %s: %d tuples, want %d", enum.Name(id), len(got), len(want))
		}
		for k, w := range want {
			g, ok := got[k]
			if !ok {
				t.Fatalf("node %s: missing tuple %q", enum.Name(id), k)
			}
			for i := range w {
				if g[i] != w[i] {
					t.Fatalf("node %s tuple %q: aggrs %v, want %v", enum.Name(id), k, g, w)
				}
			}
		}
		// NodeCount agrees with the enumerated result.
		n, err := eng.NodeCount(id)
		if err != nil {
			t.Fatal(err)
		}
		if n != int64(len(want)) {
			t.Fatalf("node %s: NodeCount = %d, want %d", enum.Name(id), n, len(want))
		}
	}
}

func TestBuildVariantsMatchReference(t *testing.T) {
	hier := paperHier(t)
	ft := randomFact(t, 600, 42)
	specs := testSpecs()
	variants := []struct {
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
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			opts := Options{Dir: t.TempDir(), Hier: hier, AggSpecs: specs}
			v.mod(&opts)
			stats, err := BuildFromTable(ft, opts)
			if err != nil {
				t.Fatal(err)
			}
			if stats.Partitioned {
				t.Fatal("in-memory build partitioned")
			}
			verifyCube(t, opts.Dir, hier, ft, specs, query.Options{CacheFraction: 1, PinAggregates: true})
		})
	}
}

func TestBuildPartitionedMatchesReference(t *testing.T) {
	hier := paperHier(t)
	ft := randomFact(t, 800, 7)
	specs := testSpecs()
	dir := t.TempDir()
	factPath := filepath.Join(dir, "fact.bin")
	if err := relation.WriteFactFile(factPath, ft); err != nil {
		t.Fatal(err)
	}
	// Budget forces partitioning: the table is 800 × 28 = 22,400 bytes;
	// a 16,000-byte budget loads at most 8,000 bytes of partition at a
	// time (3 partitions on A1) with node N under 4,000 bytes.
	opts := Options{
		Dir:          filepath.Join(dir, "cube"),
		FactPath:     factPath,
		Hier:         hier,
		AggSpecs:     specs,
		MemoryBudget: 16_000,
	}
	stats, err := Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Partitioned {
		t.Fatal("build did not partition")
	}
	if stats.NumPartitions < 2 {
		t.Fatalf("partitions = %d", stats.NumPartitions)
	}
	t.Logf("partitioned at level %d into %d partitions, N has %d rows", stats.PartitionLevel, stats.NumPartitions, stats.NRows)
	verifyCube(t, opts.Dir, hier, ft, specs, query.Options{CacheFraction: 1, PinAggregates: true})
}

func TestBuildPartitionedVariants(t *testing.T) {
	hier := paperHier(t)
	ft := randomFact(t, 500, 99)
	specs := testSpecs()
	for _, v := range []struct {
		name string
		mod  func(*Options)
	}{
		{"plus", func(o *Options) { o.Plus = true }},
		{"dr", func(o *Options) { o.DimsInline = true }},
	} {
		t.Run(v.name, func(t *testing.T) {
			dir := t.TempDir()
			factPath := filepath.Join(dir, "fact.bin")
			if err := relation.WriteFactFile(factPath, ft); err != nil {
				t.Fatal(err)
			}
			opts := Options{
				Dir:          filepath.Join(dir, "cube"),
				FactPath:     factPath,
				Hier:         hier,
				AggSpecs:     specs,
				MemoryBudget: 10_000,
			}
			v.mod(&opts)
			stats, err := Build(opts)
			if err != nil {
				t.Fatal(err)
			}
			if !stats.Partitioned {
				t.Fatal("expected partitioned build")
			}
			verifyCube(t, opts.Dir, hier, ft, specs, query.Options{CacheFraction: 0.5, PinAggregates: true})
		})
	}
}

func TestFlatBuildMatchesFlatReference(t *testing.T) {
	hier := paperHier(t)
	ft := randomFact(t, 400, 3)
	specs := testSpecs()
	opts := Options{Dir: t.TempDir(), Hier: hier, AggSpecs: specs, Flat: true}
	if _, err := BuildFromTable(ft, opts); err != nil {
		t.Fatal(err)
	}
	// The flat cube is the cube of the flattened schema: 2^3 nodes.
	flat := hier.Flatten()
	eng, err := query.OpenDefault(opts.Dir)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	enum := eng.Enum()
	if enum.NumNodes() != 8 {
		t.Fatalf("flat cube has %d nodes, want 8", enum.NumNodes())
	}
	for _, id := range enum.AllNodes() {
		want := cubetest.ReferenceNode(flat, enum, ft, specs, id)
		count := 0
		if err := eng.NodeQuery(id, func(row query.Row) error {
			w, ok := want[cubetest.RowKey(row.Dims)]
			if !ok {
				return fmt.Errorf("unexpected tuple %v", row.Dims)
			}
			if w[0] != row.Aggrs[0] || w[1] != row.Aggrs[1] {
				return fmt.Errorf("tuple %v: aggrs %v, want %v", row.Dims, row.Aggrs, w)
			}
			count++
			return nil
		}); err != nil {
			t.Fatalf("node %s: %v", enum.Name(id), err)
		}
		if count != len(want) {
			t.Fatalf("node %s: %d tuples, want %d", enum.Name(id), count, len(want))
		}
	}
}

func TestIcebergBuild(t *testing.T) {
	hier := paperHier(t)
	ft := randomFact(t, 500, 11)
	specs := testSpecs()
	const minCount = 4
	opts := Options{Dir: t.TempDir(), Hier: hier, AggSpecs: specs, Iceberg: minCount}
	stats, err := BuildFromTable(ft, opts)
	if err != nil {
		t.Fatal(err)
	}
	if stats.TTs != 0 {
		t.Errorf("iceberg cube stored %d TTs", stats.TTs)
	}
	eng, err := query.OpenDefault(opts.Dir)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	enum := eng.Enum()
	for _, id := range enum.AllNodes() {
		want := cubetest.ReferenceNode(hier, enum, ft, specs, id)
		// Keep only groups meeting the threshold.
		for k, v := range want {
			if v[1] < minCount {
				delete(want, k)
			}
		}
		got := map[string]bool{}
		if err := eng.NodeQuery(id, func(row query.Row) error {
			k := cubetest.RowKey(row.Dims)
			w, ok := want[k]
			if !ok {
				return fmt.Errorf("tuple %q below threshold or wrong (aggrs %v)", k, row.Aggrs)
			}
			if w[0] != row.Aggrs[0] || w[1] != row.Aggrs[1] {
				return fmt.Errorf("tuple %q: %v want %v", k, row.Aggrs, w)
			}
			got[k] = true
			return nil
		}); err != nil {
			t.Fatalf("node %s: %v", enum.Name(id), err)
		}
		if len(got) != len(want) {
			t.Fatalf("node %s: %d tuples, want %d", enum.Name(id), len(got), len(want))
		}
	}
}

func TestIcebergQueryOnCompleteCube(t *testing.T) {
	hier := paperHier(t)
	ft := randomFact(t, 500, 13)
	specs := testSpecs()
	opts := Options{Dir: t.TempDir(), Hier: hier, AggSpecs: specs}
	if _, err := BuildFromTable(ft, opts); err != nil {
		t.Fatal(err)
	}
	eng, err := query.OpenDefault(opts.Dir)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	enum := eng.Enum()
	const minCount = 5.0
	for _, id := range enum.AllNodes() {
		want := cubetest.ReferenceNode(hier, enum, ft, specs, id)
		for k, v := range want {
			if v[1] <= minCount {
				delete(want, k)
			}
		}
		got := 0
		if err := eng.IcebergQuery(id, 1, minCount, func(row query.Row) error {
			w, ok := want[cubetest.RowKey(row.Dims)]
			if !ok || w[0] != row.Aggrs[0] {
				return fmt.Errorf("unexpected iceberg tuple %v %v", row.Dims, row.Aggrs)
			}
			got++
			return nil
		}); err != nil {
			t.Fatalf("node %s: %v", enum.Name(id), err)
		}
		if got != len(want) {
			t.Fatalf("node %s: iceberg returned %d, want %d", enum.Name(id), got, len(want))
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

func TestComplexHierarchyBuild(t *testing.T) {
	// 2-dim cube where the first dimension is Figure 5a's complex time
	// hierarchy; verifies the modified rule 2 still yields a correct,
	// complete cube.
	const days = 60
	timeDim := &hierarchy.Dim{
		Name: "time",
		Levels: []hierarchy.Level{
			{Name: "day", Card: days, RollsUpTo: []int{1, 2}},
			{Name: "week", Card: 9, Map: hierarchy.BuildContiguousMap(days, 9), RollsUpTo: []int{3}},
			{Name: "month", Card: 3, Map: hierarchy.BuildContiguousMap(days, 3), RollsUpTo: []int{3}},
			{Name: "year", Card: 1, Map: make([]int32, days)},
		},
	}
	if err := timeDim.Finalize(); err != nil {
		t.Fatal(err)
	}
	hier, err := hierarchy.NewSchema(timeDim, hierarchy.NewFlatDim("store", 5))
	if err != nil {
		t.Fatal(err)
	}
	schema := &relation.Schema{DimNames: []string{"time", "store"}, MeasureNames: []string{"M"}}
	ft := relation.NewFactTable(schema, 300)
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 300; i++ {
		ft.Append([]int32{int32(rng.Intn(days)), int32(rng.Intn(5))}, []float64{float64(rng.Intn(9))})
	}
	specs := testSpecs()
	opts := Options{Dir: t.TempDir(), Hier: hier, AggSpecs: specs}
	if _, err := BuildFromTable(ft, opts); err != nil {
		t.Fatal(err)
	}
	verifyCube(t, opts.Dir, hier, ft, specs, query.Options{CacheFraction: 1, PinAggregates: true})
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

func TestBuildEmptyAndSingleRowTables(t *testing.T) {
	hier := paperHier(t)
	specs := testSpecs()
	// Empty table: a valid cube with no tuples anywhere.
	empty := relation.NewFactTable(&relation.Schema{DimNames: []string{"A", "B", "C"}, MeasureNames: []string{"M1", "M2"}}, 0)
	opts := Options{Dir: t.TempDir(), Hier: hier, AggSpecs: specs}
	stats, err := BuildFromTable(empty, opts)
	if err != nil {
		t.Fatal(err)
	}
	if stats.TTs != 0 || stats.Pool.Total != 0 {
		t.Errorf("empty build stats = %+v", stats)
	}
	eng, err := query.OpenDefault(opts.Dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range eng.Enum().AllNodes() {
		if err := eng.NodeQuery(id, func(query.Row) error {
			return fmt.Errorf("tuple in empty cube")
		}); err != nil {
			t.Fatal(err)
		}
	}
	eng.Close()

	// Single row: one TT at the root (∅) shared by the entire lattice.
	single := relation.NewFactTable(empty.Schema, 1)
	single.Append([]int32{3, 2, 1}, []float64{10, 20})
	opts2 := Options{Dir: t.TempDir(), Hier: hier, AggSpecs: specs}
	stats2, err := BuildFromTable(single, opts2)
	if err != nil {
		t.Fatal(err)
	}
	if stats2.TTs != 1 {
		t.Errorf("single-row build stored %d TTs, want 1 (shared from the root)", stats2.TTs)
	}
	verifyCube(t, opts2.Dir, hier, single, specs, query.Options{CacheFraction: 1, PinAggregates: true})
}

func TestMinMaxAggregatesEndToEnd(t *testing.T) {
	hier := paperHier(t)
	ft := randomFact(t, 300, 77)
	specs := []relation.AggSpec{
		{Func: relation.AggSum, Measure: 0},
		{Func: relation.AggCount},
		{Func: relation.AggMin, Measure: 1},
		{Func: relation.AggMax, Measure: 1},
	}
	opts := Options{Dir: t.TempDir(), Hier: hier, AggSpecs: specs}
	if _, err := BuildFromTable(ft, opts); err != nil {
		t.Fatal(err)
	}
	verifyCube(t, opts.Dir, hier, ft, specs, query.Options{CacheFraction: 1, PinAggregates: true})
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

func TestBuildWithSortedDimsHeuristic(t *testing.T) {
	// The BUC cardinality-ordering heuristic: building over a schema
	// whose dims are pre-sorted by decreasing cardinality must produce
	// the same query results as the natural order (contents are order-
	// independent; only performance differs).
	hier := paperHier(t)
	ft := randomFact(t, 300, 31)
	specs := testSpecs()
	perm := hier.SortByCardinality()
	permDims := make([]*hierarchy.Dim, len(perm))
	names := make([]string, len(perm))
	for i, p := range perm {
		permDims[i] = hier.Dims[p]
		names[i] = hier.Dims[p].Name
	}
	permHier, err := hierarchy.NewSchema(permDims...)
	if err != nil {
		t.Fatal(err)
	}
	permFt := relation.NewFactTable(&relation.Schema{DimNames: names, MeasureNames: ft.Schema.MeasureNames}, ft.Len())
	dims := make([]int32, len(perm))
	meas := make([]float64, ft.Schema.NumMeasures())
	for r := 0; r < ft.Len(); r++ {
		for i, p := range perm {
			dims[i] = ft.Dims[p][r]
		}
		meas = ft.MeasureRow(r, meas)
		permFt.Append(dims, meas)
	}
	opts := Options{Dir: t.TempDir(), Hier: permHier, AggSpecs: specs}
	if _, err := BuildFromTable(permFt, opts); err != nil {
		t.Fatal(err)
	}
	verifyCube(t, opts.Dir, permHier, permFt, specs, query.Options{CacheFraction: 1, PinAggregates: true})
}

func TestShortPlanBuildMatchesReference(t *testing.T) {
	// The P2 (shortest-plan) ablation variant must still produce a fully
	// correct cube; only its construction cost differs.
	hier := paperHier(t)
	ft := randomFact(t, 500, 61)
	specs := testSpecs()
	opts := Options{Dir: t.TempDir(), Hier: hier, AggSpecs: specs, ShortPlan: true}
	if _, err := BuildFromTable(ft, opts); err != nil {
		t.Fatal(err)
	}
	verifyCube(t, opts.Dir, hier, ft, specs, query.Options{CacheFraction: 1, PinAggregates: true})
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

func TestParallelPartitionedBuildMatchesReference(t *testing.T) {
	hier := paperHier(t)
	ft := randomFact(t, 1200, 19)
	specs := testSpecs()
	dir := t.TempDir()
	factPath := filepath.Join(dir, "fact.bin")
	if err := relation.WriteFactFile(factPath, ft); err != nil {
		t.Fatal(err)
	}
	opts := Options{
		Dir:          filepath.Join(dir, "cube"),
		FactPath:     factPath,
		Hier:         hier,
		AggSpecs:     specs,
		MemoryBudget: 24_000,
		Parallelism:  4,
	}
	stats, err := Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Partitioned {
		t.Fatal("expected a partitioned build")
	}
	if stats.CatFormat != signature.FormatB {
		t.Errorf("parallel build format = %v, want pinned B", stats.CatFormat)
	}
	verifyCube(t, opts.Dir, hier, ft, specs, query.Options{CacheFraction: 1, PinAggregates: true})
}

func TestParallelBuildRandomized(t *testing.T) {
	// Chaos test: random schemas, data, budgets, and worker counts must
	// all verify against the fact table.
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 4; trial++ {
		cards := []int32{int32(6 + rng.Intn(20)), int32(4 + rng.Intn(10)), int32(2 + rng.Intn(6))}
		m := hierarchy.BuildContiguousMap(cards[0], cards[0]/2+1)
		a, err := hierarchy.NewLinearDim("A", []string{"a0", "a1"}, []int32{cards[0], cards[0]/2 + 1}, [][]int32{m})
		if err != nil {
			t.Fatal(err)
		}
		hier, err := hierarchy.NewSchema(a, hierarchy.NewFlatDim("B", cards[1]), hierarchy.NewFlatDim("C", cards[2]))
		if err != nil {
			t.Fatal(err)
		}
		schema := &relation.Schema{DimNames: []string{"A", "B", "C"}, MeasureNames: []string{"M"}}
		rows := 300 + rng.Intn(900)
		ft := relation.NewFactTable(schema, rows)
		for i := 0; i < rows; i++ {
			ft.Append(
				[]int32{rng.Int31n(cards[0]), rng.Int31n(cards[1]), rng.Int31n(cards[2])},
				[]float64{float64(rng.Intn(11))},
			)
		}
		dir := t.TempDir()
		factPath := filepath.Join(dir, "fact.bin")
		if err := relation.WriteFactFile(factPath, ft); err != nil {
			t.Fatal(err)
		}
		specs := []relation.AggSpec{{Func: relation.AggSum, Measure: 0}, {Func: relation.AggCount}}
		stats, err := Build(Options{
			Dir:          filepath.Join(dir, "cube"),
			FactPath:     factPath,
			Hier:         hier,
			AggSpecs:     specs,
			MemoryBudget: int64(rows) * 20 / 2, // forces partitioning more often than not
			Parallelism:  1 + rng.Intn(4),
			PoolCapacity: 1 << (4 + rng.Intn(10)),
		})
		if err != nil {
			// Some random budgets make partitioning infeasible; that is a
			// legitimate, documented failure mode.
			t.Logf("trial %d: build infeasible: %v", trial, err)
			continue
		}
		eng, err := query.OpenDefault(filepath.Join(dir, "cube"))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := eng.Verify(0, 1)
		eng.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK() {
			t.Fatalf("trial %d (partitioned=%v): %v", trial, stats.Partitioned, rep.Errors)
		}
	}
}

func TestPartitionedBuildWithSkewedFirstDim(t *testing.T) {
	// Heavily skewed dimension 0: modulo routing piles most rows into
	// one partition (exceeding its size estimate), which must degrade
	// gracefully, not break soundness or results.
	hier := paperHier(t)
	schema := &relation.Schema{DimNames: []string{"A", "B", "C"}, MeasureNames: []string{"M1", "M2"}}
	ft := relation.NewFactTable(schema, 900)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 900; i++ {
		a := int32(0) // 80% of rows share one A value
		if rng.Intn(5) == 0 {
			a = int32(rng.Intn(12))
		}
		ft.Append([]int32{a, int32(rng.Intn(8)), int32(rng.Intn(4))}, []float64{float64(rng.Intn(9)), 1})
	}
	dir := t.TempDir()
	factPath := filepath.Join(dir, "fact.bin")
	if err := relation.WriteFactFile(factPath, ft); err != nil {
		t.Fatal(err)
	}
	specs := testSpecs()
	stats, err := Build(Options{
		Dir:          filepath.Join(dir, "cube"),
		FactPath:     factPath,
		Hier:         hier,
		AggSpecs:     specs,
		MemoryBudget: 20_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Partitioned {
		t.Fatal("expected partitioned build")
	}
	verifyCube(t, filepath.Join(dir, "cube"), hier, ft, specs, query.Options{CacheFraction: 1, PinAggregates: true})
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

func TestPairPartitionedBuildMatchesReference(t *testing.T) {
	hier := pairHier(t)
	schema := &relation.Schema{DimNames: []string{"A", "B", "C"}, MeasureNames: []string{"M1", "M2"}}
	ft := relation.NewFactTable(schema, 1600)
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 1600; i++ {
		ft.Append(
			[]int32{int32(rng.Intn(64)), int32(rng.Intn(256)), int32(rng.Intn(5))},
			[]float64{float64(rng.Intn(12)), float64(rng.Intn(3))},
		)
	}
	dir := t.TempDir()
	factPath := filepath.Join(dir, "fact.bin")
	if err := relation.WriteFactFile(factPath, ft); err != nil {
		t.Fatal(err)
	}
	specs := testSpecs()
	stats, err := Build(Options{
		Dir:          filepath.Join(dir, "cube"),
		FactPath:     factPath,
		Hier:         hier,
		AggSpecs:     specs,
		MemoryBudget: 5_600,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Partitioned {
		t.Fatal("expected a partitioned build")
	}
	eng, err := query.OpenDefault(filepath.Join(dir, "cube"))
	if err != nil {
		t.Fatal(err)
	}
	if eng.Manifest().PartitionLevelB < 0 {
		eng.Close()
		t.Fatal("expected pair partitioning (PartitionLevelB set)")
	}
	eng.Close()
	verifyCube(t, filepath.Join(dir, "cube"), hier, ft, specs, query.Options{CacheFraction: 1, PinAggregates: true})
}

func TestPairPartitionedVariantsAndSkew(t *testing.T) {
	hier := pairHier(t)
	schema := &relation.Schema{DimNames: []string{"A", "B", "C"}, MeasureNames: []string{"M1", "M2"}}
	for _, tc := range []struct {
		name string
		mod  func(*Options)
		seed int64
	}{
		{"plus", func(o *Options) { o.Plus = true }, 3},
		{"iceberg", func(o *Options) { o.Iceberg = 3 }, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ft := relation.NewFactTable(schema, 1600)
			rng := rand.New(rand.NewSource(tc.seed))
			for i := 0; i < 1600; i++ {
				ft.Append(
					[]int32{int32(rng.Intn(64)), int32(rng.Intn(256)), int32(rng.Intn(5))},
					[]float64{float64(rng.Intn(12)), float64(rng.Intn(3))},
				)
			}
			dir := t.TempDir()
			factPath := filepath.Join(dir, "fact.bin")
			if err := relation.WriteFactFile(factPath, ft); err != nil {
				t.Fatal(err)
			}
			specs := testSpecs()
			opts := Options{
				Dir:          filepath.Join(dir, "cube"),
				FactPath:     factPath,
				Hier:         hier,
				AggSpecs:     specs,
				MemoryBudget: 5_600,
			}
			tc.mod(&opts)
			stats, err := Build(opts)
			if err != nil {
				t.Fatal(err)
			}
			if !stats.Partitioned {
				t.Fatal("expected partitioned build")
			}
			if opts.Iceberg > 1 {
				// Iceberg cubes: spot-check against thresholded reference.
				eng, err := query.OpenDefault(opts.Dir)
				if err != nil {
					t.Fatal(err)
				}
				defer eng.Close()
				enum := eng.Enum()
				for _, id := range enum.AllNodes() {
					want := cubetest.ReferenceNode(hier, enum, ft, specs, id)
					for k, v := range want {
						if v[1] < float64(opts.Iceberg) {
							delete(want, k)
						}
					}
					got := 0
					if err := eng.NodeQuery(id, func(row query.Row) error {
						if _, ok := want[cubetest.RowKey(row.Dims)]; !ok {
							return fmt.Errorf("unexpected tuple %v", row.Dims)
						}
						got++
						return nil
					}); err != nil {
						t.Fatalf("node %s: %v", enum.Name(id), err)
					}
					if got != len(want) {
						t.Fatalf("node %s: %d tuples, want %d", enum.Name(id), got, len(want))
					}
				}
				return
			}
			verifyCube(t, opts.Dir, hier, ft, specs, query.Options{CacheFraction: 1, PinAggregates: true})
		})
	}
}

// TestFailedPartitionedBuildLeavesNothing: a partitioning scan that fails
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
