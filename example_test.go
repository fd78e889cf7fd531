package cure_test

// Runnable godoc examples for the public facade; `go test -run Example .`
// runs them and checks what they print. The data is the fact table of
// the paper's Figure 9, and for the out-of-core example an APB-1 table.

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"

	cure "cure"
	"cure/internal/core"
	"cure/internal/gen"
	"cure/internal/hierarchy"
	"cure/internal/relation"
)

// fig9Table builds the paper's Figure 9a fact table (0-based codes).
func fig9Table() *relation.FactTable {
	schema := &relation.Schema{DimNames: []string{"A", "B", "C"}, MeasureNames: []string{"M"}}
	ft := relation.NewFactTable(schema, 5)
	for _, row := range [][4]int32{
		{0, 0, 0, 10}, {0, 0, 1, 20}, {1, 1, 2, 40}, {2, 1, 0, 45}, {2, 2, 2, 45},
	} {
		ft.Append([]int32{row[0], row[1], row[2]}, []float64{float64(row[3])})
	}
	return ft
}

func ExampleBuildFromTable() {
	hier, err := hierarchy.NewSchema(
		hierarchy.NewFlatDim("A", 3),
		hierarchy.NewFlatDim("B", 3),
		hierarchy.NewFlatDim("C", 3),
	)
	if err != nil {
		log.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	stats, err := cure.BuildFromTable(fig9Table(), cure.BuildOptions{
		Dir:      filepath.Join(dir, "cube"),
		Hier:     hier,
		AggSpecs: []cure.AggSpec{{Func: cure.AggSum, Measure: 0}},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("nodes materialized:", stats.NodesMaterialized)

	eng, err := cure.OpenCube(filepath.Join(dir, "cube"))
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	// Node A: SUM(M) grouped by dimension A alone — compare Figure 9b.
	nodeA := eng.Enum().Encode([]int{0, 1, 1})
	type pair struct {
		a   int32
		sum float64
	}
	var rows []pair
	if err := eng.Query(cure.Spec{Node: nodeA}, func(row cure.Row) error {
		rows = append(rows, pair{row.Dims[0], row.Aggrs[0]})
		return nil
	}); err != nil {
		log.Fatal(err)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].a < rows[j].a })
	for _, r := range rows {
		fmt.Printf("A=%d SUM(M)=%g\n", r.a, r.sum)
	}
	// Output:
	// nodes materialized: 8
	// A=0 SUM(M)=30
	// A=1 SUM(M)=40
	// A=2 SUM(M)=90
}

func ExampleEngine_Query() {
	hier, err := hierarchy.NewSchema(
		hierarchy.NewFlatDim("A", 3),
		hierarchy.NewFlatDim("B", 3),
		hierarchy.NewFlatDim("C", 3),
	)
	if err != nil {
		log.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	if _, err := cure.BuildFromTable(fig9Table(), cure.BuildOptions{
		Dir:  filepath.Join(dir, "cube"),
		Hier: hier,
		AggSpecs: []cure.AggSpec{
			{Func: cure.AggSum, Measure: 0},
			{Func: cure.AggCount},
		},
	}); err != nil {
		log.Fatal(err)
	}
	eng, err := cure.OpenCube(filepath.Join(dir, "cube"))
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()
	// Groups of node A with count(*) > 1 — an iceberg query: trivial
	// tuples are skipped without ever being read.
	nodeA := eng.Enum().Encode([]int{0, 1, 1})
	var lines []string
	if err := eng.Query(cure.Spec{Node: nodeA, MinCount: 1}, func(row cure.Row) error {
		lines = append(lines, fmt.Sprintf("A=%d count=%g sum=%g", row.Dims[0], row.Aggrs[1], row.Aggrs[0]))
		return nil
	}); err != nil {
		log.Fatal(err)
	}
	sort.Strings(lines)
	for _, l := range lines {
		fmt.Println(l)
	}
	// Output:
	// A=0 count=2 sum=30
	// A=2 count=2 sum=90
}

// Example_quickstart builds the cube of the paper's running example and
// reads every node back — compare Figure 9b (codes here are 0-based).
// Rows are sorted per node: the engine returns them in storage order.
func Example_quickstart() {
	hier, err := hierarchy.NewSchema(
		hierarchy.NewFlatDim("A", 3),
		hierarchy.NewFlatDim("B", 3),
		hierarchy.NewFlatDim("C", 3),
	)
	if err != nil {
		log.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "quickstart")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	stats, err := cure.BuildFromTable(fig9Table(), cure.BuildOptions{
		Dir:      dir,
		Hier:     hier,
		AggSpecs: []cure.AggSpec{{Func: cure.AggSum, Measure: 0}},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trivial tuples stored: %d\n", stats.TTs)
	fmt.Printf("CAT storage format: %v\n", stats.CatFormat)

	eng, err := cure.OpenCube(dir)
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()
	for _, id := range eng.Enum().AllNodes() {
		var rows []string
		if err := eng.Query(cure.Spec{Node: id}, func(row cure.Row) error {
			rows = append(rows, fmt.Sprintf("  dims=%v SUM(M)=%g", row.Dims, row.Aggrs[0]))
			return nil
		}); err != nil {
			log.Fatal(err)
		}
		sort.Strings(rows)
		fmt.Printf("node %s:\n", eng.Enum().Name(id))
		for _, r := range rows {
			fmt.Println(r)
		}
	}
	// Output:
	// trivial tuples stored: 15
	// CAT storage format: A(common-source)
	// node A[A]B[B]C[C]:
	//   dims=[0 0 0] SUM(M)=10
	//   dims=[0 0 1] SUM(M)=20
	//   dims=[1 1 2] SUM(M)=40
	//   dims=[2 1 0] SUM(M)=45
	//   dims=[2 2 2] SUM(M)=45
	// node B[B]C[C]:
	//   dims=[0 0] SUM(M)=10
	//   dims=[0 1] SUM(M)=20
	//   dims=[1 0] SUM(M)=45
	//   dims=[1 2] SUM(M)=40
	//   dims=[2 2] SUM(M)=45
	// node A[A]C[C]:
	//   dims=[0 0] SUM(M)=10
	//   dims=[0 1] SUM(M)=20
	//   dims=[1 2] SUM(M)=40
	//   dims=[2 0] SUM(M)=45
	//   dims=[2 2] SUM(M)=45
	// node C[C]:
	//   dims=[0] SUM(M)=55
	//   dims=[1] SUM(M)=20
	//   dims=[2] SUM(M)=85
	// node A[A]B[B]:
	//   dims=[0 0] SUM(M)=30
	//   dims=[1 1] SUM(M)=40
	//   dims=[2 1] SUM(M)=45
	//   dims=[2 2] SUM(M)=45
	// node B[B]:
	//   dims=[0] SUM(M)=30
	//   dims=[1] SUM(M)=85
	//   dims=[2] SUM(M)=45
	// node A[A]:
	//   dims=[0] SUM(M)=30
	//   dims=[1] SUM(M)=40
	//   dims=[2] SUM(M)=90
	// node ∅:
	//   dims=[] SUM(M)=160
}

// Example_outofcore cubes a fact table larger than its memory budget.
// The strategy Build takes is printed first: §4's partitioning level L
// on the first dimension (the arithmetic of Table 1). The build splits
// the table into partitions sound on A_L while hash-building the small
// node N in the same pass, cubes both, and is checked node by node
// against an unconstrained in-memory build.
func Example_outofcore() {
	root, err := os.MkdirTemp("", "outofcore")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(root)

	// ~50K APB-1 rows ≈ 1.4 MB on disk; a 512 KiB budget forces the
	// external path.
	factPath := filepath.Join(root, "apb.bin")
	rows, hier, err := gen.APBToFile(factPath, 0.004, 11)
	if err != nil {
		log.Fatal(err)
	}
	const budget = 512 << 10
	rBytes := rows * int64(gen.APBSchemaRelation().RowWidth())
	strategy, err := core.ChooseStrategy(hier, rBytes, budget, nil)
	if err != nil {
		log.Fatal(err)
	}
	c, dim0 := strategy.Choice, hier.Dims[0]
	L := c.Levels[0]
	fmt.Printf("partition plan: L = %s (level %d), %d partitions of ≤%d KB, |A0|/|A(L+1)| = %.0f, |N| ≈ %d KB\n",
		dim0.LevelName(L), L, c.NumPartitions, c.PartitionBytes>>10, float64(dim0.Card(0))/float64(dim0.Card(L+1)), c.NBytes[0]>>10)

	specs := []cure.AggSpec{{Func: cure.AggSum, Measure: 0}, {Func: cure.AggCount}}
	outDir, refDir := filepath.Join(root, "cube"), filepath.Join(root, "ref")
	stats, err := cure.Build(cure.BuildOptions{Dir: outDir, FactPath: factPath, Hier: hier, AggSpecs: specs, MemoryBudget: budget})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("partitions: level %d, %d partitions, N holds %d rows\n", stats.PartitionLevel, stats.NumPartitions, stats.NRows)
	if _, err := cure.Build(cure.BuildOptions{Dir: refDir, FactPath: factPath, Hier: hier, AggSpecs: specs}); err != nil {
		log.Fatal(err)
	}

	// Every node of both cubes returns the same aggregate total and
	// tuple count.
	a, err := cure.OpenCube(outDir)
	if err != nil {
		log.Fatal(err)
	}
	defer a.Close()
	b, err := cure.OpenCube(refDir)
	if err != nil {
		log.Fatal(err)
	}
	defer b.Close()
	total := func(e *cure.Engine, id cure.NodeID) (sum float64, n int) {
		if err := e.Query(cure.Spec{Node: id}, func(row cure.Row) error {
			sum += row.Aggrs[0]
			n++
			return nil
		}); err != nil {
			log.Fatal(err)
		}
		return sum, n
	}
	nodes := a.Enum().AllNodes()
	for _, id := range nodes {
		sumA, nA := total(a, id)
		if sumB, nB := total(b, id); sumA != sumB || nA != nB {
			log.Fatalf("node %s diverges: out-of-core (%g, %d) vs in-memory (%g, %d)", a.Enum().Name(id), sumA, nA, sumB, nB)
		}
	}
	fmt.Printf("verified: all %d nodes identical between the two builds\n", len(nodes))
	// Output:
	// partition plan: L = Line (level 4), 7 partitions of ≤221 KB, |A0|/|A(L+1)| = 2167, |N| ≈ 0 KB
	// partitions: level 4, 7 partitions, N holds 44038 rows
	// verified: all 168 nodes identical between the two builds
}
