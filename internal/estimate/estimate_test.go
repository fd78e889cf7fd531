package estimate

import (
	"math"
	"math/rand"
	"path/filepath"
	"testing"
	"testing/quick"

	"cure/internal/core"
	"cure/internal/gen"
	"cure/internal/hierarchy"
	"cure/internal/query"
	"cure/internal/relation"
)

func TestGroupsBasics(t *testing.T) {
	if Groups(0, 10) != 0 || Groups(10, 0) != 0 {
		t.Error("degenerate inputs must give 0")
	}
	if Groups(1, 100) != 1 {
		t.Error("one cell holds one group")
	}
	// t ≪ g: nearly every tuple lands alone → groups ≈ t.
	if g := Groups(1e9, 1000); math.Abs(g-1000) > 1 {
		t.Errorf("sparse Groups = %v, want ≈1000", g)
	}
	// t ≫ g: every cell hit → groups ≈ g.
	if g := Groups(10, 100000); math.Abs(g-10) > 0.01 {
		t.Errorf("dense Groups = %v, want ≈10", g)
	}
}

func TestSingletonsBasics(t *testing.T) {
	if Singletons(0, 5) != 0 || Singletons(5, 0) != 0 {
		t.Error("degenerate inputs must give 0")
	}
	if Singletons(1, 1) != 1 || Singletons(1, 5) != 0 {
		t.Error("single-cell cases wrong")
	}
	// Sparse: nearly all groups are singletons.
	if s := Singletons(1e9, 1000); math.Abs(s-1000) > 1 {
		t.Errorf("sparse Singletons = %v", s)
	}
	// Dense: singletons vanish.
	if s := Singletons(10, 100000); s > 1e-3 {
		t.Errorf("dense Singletons = %v", s)
	}
}

func TestGroupsMonotoneProperties(t *testing.T) {
	// Groups grows with t, is bounded by min(g, t), and singletons never
	// exceed groups.
	f := func(gRaw, tRaw uint16) bool {
		g := float64(gRaw%5000) + 1
		n := int64(tRaw%5000) + 1
		gr := Groups(g, n)
		if gr > g+1e-9 || gr > float64(n)+1e-9 || gr <= 0 {
			return false
		}
		if Groups(g, n+100) < gr {
			return false
		}
		return Singletons(g, n) <= gr+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestGroupsMatchesSimulation(t *testing.T) {
	// Monte-Carlo check of Cardenas' formula.
	rng := rand.New(rand.NewSource(8))
	const g, n, trials = 50, 120, 200
	var sumGroups, sumSingles float64
	for tr := 0; tr < trials; tr++ {
		counts := make([]int, g)
		for i := 0; i < n; i++ {
			counts[rng.Intn(g)]++
		}
		for _, c := range counts {
			if c > 0 {
				sumGroups++
			}
			if c == 1 {
				sumSingles++
			}
		}
	}
	gotGroups := sumGroups / trials
	gotSingles := sumSingles / trials
	if math.Abs(gotGroups-Groups(g, n)) > 1.5 {
		t.Errorf("simulated groups %.2f vs formula %.2f", gotGroups, Groups(g, n))
	}
	if math.Abs(gotSingles-Singletons(g, n)) > 1.5 {
		t.Errorf("simulated singletons %.2f vs formula %.2f", gotSingles, Singletons(g, n))
	}
}

func TestCubeEstimateAgainstRealBuild(t *testing.T) {
	// Build a uniform synthetic cube and check the estimator's totals
	// land within a reasonable factor.
	ft, hier, err := gen.Synthetic(gen.SyntheticSpec{Dims: 4, Tuples: 2000, Zipf: 0, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	est, err := Cube(hier, int64(ft.Len()), 2)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	stats, err := core.BuildFromTable(ft, core.Options{
		Dir: dir, Hier: hier,
		AggSpecs: []relation.AggSpec{{Func: relation.AggSum, Measure: 0}, {Func: relation.AggCount}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Count true cube tuples.
	eng, err := query.OpenDefault(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	var trueTuples int64
	for _, id := range eng.Enum().AllNodes() {
		n, err := eng.NodeCount(id)
		if err != nil {
			t.Fatal(err)
		}
		trueTuples += n
	}
	ratio := est.FullTuples / float64(trueTuples)
	if ratio < 0.8 || ratio > 1.25 {
		t.Errorf("FullTuples estimate %.0f vs measured %d (ratio %.2f)", est.FullTuples, trueTuples, ratio)
	}
	// Non-trivial tuples ≈ signature-pool traffic.
	aggRatio := est.AggregatedTuples / float64(stats.Pool.Total)
	if aggRatio < 0.5 || aggRatio > 2 {
		t.Errorf("AggregatedTuples estimate %.0f vs pool %d (ratio %.2f)", est.AggregatedTuples, stats.Pool.Total, aggRatio)
	}
	// Nodes are sorted by size, largest first.
	for i := 1; i < len(est.Nodes); i++ {
		if est.Nodes[i].Tuples > est.Nodes[i-1].Tuples {
			t.Fatal("node estimates not sorted")
		}
	}
}

func TestCubeValidation(t *testing.T) {
	hier, err := hierarchy.NewSchema(hierarchy.NewFlatDim("A", 4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Cube(hier, -1, 1); err == nil {
		t.Error("negative rows accepted")
	}
	if _, err := Cube(hier, 10, 0); err == nil {
		t.Error("zero aggregates accepted")
	}
}

func TestBuildPlan(t *testing.T) {
	hier := gen.APBSchema()
	schema := gen.APBSchemaRelation()
	// Small table, unlimited memory: in-memory.
	p, err := BuildPlan(hier, schema, 10_000, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !p.InMemory {
		t.Error("unlimited memory should plan in-memory")
	}
	// Large table, small budget: the partitioned path with a concrete
	// level choice.
	p2, err := BuildPlan(hier, schema, 5_000_000, 8<<20, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p2.InMemory {
		t.Error("160 MB table with 8 MiB budget planned in-memory")
	}
	if p2.ChoiceErr != "" {
		t.Fatalf("level selection failed: %s", p2.ChoiceErr)
	}
	if p2.Choice.NumPartitions < 2 {
		t.Errorf("choice = %+v", p2.Choice)
	}
	// An unpartitionable first dimension reports the error, not a panic.
	tiny, err := hierarchy.NewSchema(hierarchy.NewFlatDim("A", 2), hierarchy.NewFlatDim("B", 2))
	if err != nil {
		t.Fatal(err)
	}
	p3, err := BuildPlan(tiny, &relation.Schema{DimNames: []string{"A", "B"}}, 1_000_000, 1024, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p3.InMemory || p3.ChoiceErr == "" {
		t.Errorf("expected infeasible plan, got %+v", p3)
	}
}

// TestBuildPlanNamesThePairTheBuildTakes: on a schema where no single
// level of dimension 0 is feasible (A's top level has too few values,
// its base level makes node N too big) the plan must name the same
// dimension pair core.Build partitions on, not call it infeasible.
func TestBuildPlanNamesThePairTheBuildTakes(t *testing.T) {
	a, err := hierarchy.NewLinearDim("A", []string{"A0", "A1"}, []int32{64, 4}, [][]int32{hierarchy.BuildContiguousMap(64, 4)})
	if err != nil {
		t.Fatal(err)
	}
	b, err := hierarchy.NewLinearDim("B", []string{"B0", "B1"}, []int32{256, 16}, [][]int32{hierarchy.BuildContiguousMap(256, 16)})
	if err != nil {
		t.Fatal(err)
	}
	hier, err := hierarchy.NewSchema(a, b, hierarchy.NewFlatDim("C", 5))
	if err != nil {
		t.Fatal(err)
	}
	schema := &relation.Schema{DimNames: []string{"A", "B", "C"}, MeasureNames: []string{"M1", "M2"}}
	ft := relation.NewFactTable(schema, 1600)
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 1600; i++ {
		ft.Append([]int32{int32(rng.Intn(64)), int32(rng.Intn(256)), int32(rng.Intn(5))}, []float64{1, 2})
	}
	dir := t.TempDir()
	factPath := filepath.Join(dir, "fact.bin")
	if err := relation.WriteFactFile(factPath, ft); err != nil {
		t.Fatal(err)
	}
	const budget = 5_600
	specs := []relation.AggSpec{{Func: relation.AggSum, Measure: 0}, {Func: relation.AggCount}}
	stats, err := core.Build(core.Options{Dir: filepath.Join(dir, "cube"), FactPath: factPath, Hier: hier, AggSpecs: specs, MemoryBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	if stats.PartitionLevelB < 0 {
		t.Fatalf("fixture did not take the pair path: %+v", stats)
	}
	plan, err := BuildPlan(hier, schema, 1600, budget, len(specs))
	if err != nil {
		t.Fatal(err)
	}
	if plan.ChoiceErr != "" || len(plan.Choice.Levels) != 2 {
		t.Fatalf("plan names no pair (levels %v, err %q)", plan.Choice.Levels, plan.ChoiceErr)
	}
	if p := plan.Choice; p.Levels[0] != stats.PartitionLevel || p.Levels[1] != stats.PartitionLevelB || p.NumPartitions != stats.NumPartitions {
		t.Fatalf("plan pair (%d, %d) × %d partitions, build took (%d, %d) × %d",
			p.Levels[0], p.Levels[1], p.NumPartitions, stats.PartitionLevel, stats.PartitionLevelB, stats.NumPartitions)
	}
}
