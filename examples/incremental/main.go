// Incremental: keep a cube fresh as new fact batches arrive — the §8
// future-work direction of the paper. Builds a retail cube, applies two
// delta batches with update.Apply (each re-cubes the extended fact table
// beside the cube it refreshes, which stays queryable until the swap), and
// verifies the refreshed cube against its fact table.
//
//	go run ./examples/incremental
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"

	"cure/internal/core"
	"cure/internal/gen"
	"cure/internal/query"
	"cure/internal/relation"
	"cure/internal/update"
)

func main() {
	root, err := os.MkdirTemp("", "incremental")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(root)

	base, hier, err := gen.APB(0.0008, 3)
	if err != nil {
		log.Fatal(err)
	}
	specs := []relation.AggSpec{{Func: relation.AggSum, Measure: 1}, {Func: relation.AggCount}}
	cur := filepath.Join(root, "cube_v0")
	stats, err := core.BuildFromTable(base, core.Options{Dir: cur, Hier: hier, AggSpecs: specs})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("initial cube: %d rows cubed in %v (%d TTs)\n", base.Len(), stats.Elapsed, stats.TTs)

	// Two days of new sales arrive.
	rng := rand.New(rand.NewSource(99))
	for day := 1; day <= 2; day++ {
		delta := relation.NewFactTable(base.Schema, 500)
		dims := make([]int32, 4)
		for i := 0; i < 500; i++ {
			for d, dim := range hier.Dims {
				dims[d] = rng.Int31n(dim.Card(0))
			}
			unit := float64(1 + rng.Intn(9))
			delta.Append(dims, []float64{unit, unit * float64(1+rng.Intn(50))})
		}
		next := filepath.Join(root, fmt.Sprintf("cube_v%d", day))
		us, err := update.Apply(update.Options{OldDir: cur, NewDir: next, Delta: delta})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("day %d: applied %d rows in %v — refreshed cube has %d TTs in %d bytes\n",
			day, us.DeltaRows, us.Elapsed, us.TTs, us.Sizes.Total())
		cur = next
	}

	// The refreshed cube verifies against its (extended) fact table.
	eng, err := query.OpenDefault(cur)
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()
	rep, err := eng.Verify(25, 7)
	if err != nil {
		log.Fatal(err)
	}
	if !rep.OK() {
		log.Fatalf("verification failed: %v", rep.Errors)
	}
	fmt.Printf("verified %d sampled nodes (%d tuples): refreshed cube is consistent\n",
		rep.NodesChecked, rep.TuplesChecked)

	// Revenue by Division straight off the freshest cube.
	node := eng.Enum().Encode([]int{5, 2, 3, 1})
	fmt.Println("revenue by product division after both batches:")
	if err := eng.NodeQuery(node, func(row query.Row) error {
		fmt.Printf("  division %d: $%.0f over %.0f sales\n", row.Dims[0], row.Aggrs[0], row.Aggrs[1])
		return nil
	}); err != nil {
		log.Fatal(err)
	}
}
