package main

import (
	"fmt"
	"math/rand"

	"cure/internal/core"
	"cure/internal/gen"
	"cure/internal/hierarchy"
	"cure/internal/query"
	"cure/internal/relation"
)

// spec is one workload: the data it generates, how the cube is built,
// how it is served, and how many operations each serve phase replays.
// Op counts are fixed per workload so a phase is the same work in every
// run; only the number of rounds depends on -seconds.
type spec struct {
	name string
	why  string

	apbDensity   float64 // > 0: APB-1 data at this density
	flatTuples   int     // > 0: uniform data over flat dimensions
	flatCards    []int32
	deltaDensity float64 // > 0: the build phase is update.Apply of this delta

	aggs         []relation.AggSpec
	memoryBudget int64 // core.Options.MemoryBudget (0 = in-memory)
	flat         bool  // core.Options.Flat
	reps         int   // builds per run; build_s is the fastest
	serve        query.Options

	// APB workloads: the Product levels point ops pick their member from.
	pointLevels []int
	// Roll-up ops scan every node with at most rollupArity grouped
	// dimensions whose dimension 0 is no finer than rollupLevel0.
	rollupArity, rollupLevel0 int
	// Op counts: point and range ops per phase, passes over the roll-up
	// nodes in the roll-up phase and in the mix (whose point and range
	// ops follow from the 40/30/30 shares).
	nPoint, nRange, rollupPasses, mixedRollups int
}

// classAndGroup are APB Product's mid levels (435 and 215 members).
var classAndGroup = []int{1, 2}

var (
	sumSum   = []relation.AggSpec{{Func: relation.AggSum, Measure: 0}, {Func: relation.AggSum, Measure: 1}}
	sumCount = []relation.AggSpec{{Func: relation.AggSum, Measure: 0}, {Func: relation.AggCount}}
)

// workloadNames is the order -workload all runs them in.
var workloadNames = []string{"apb-inmem", "apb-outofcore", "dense-flat", "apb-update"}

// specFor returns the workload at the given scale. "full" is what
// BENCHMARK.json measures; "smoke" is the same shape at a size the test
// suite can afford.
func specFor(name, scale string) (*spec, error) {
	if scale != "full" && scale != "smoke" {
		return nil, fmt.Errorf("unknown scale %q (want full or smoke)", scale)
	}
	smoke := scale == "smoke"
	pick := func(full, small float64) float64 {
		if smoke {
			return small
		}
		return full
	}
	n := func(full, small int) int {
		if smoke {
			return small
		}
		return full
	}
	var s *spec
	switch name {
	case "apb-inmem":
		s = &spec{
			why:        "in-memory build (sort, signature pool, finalize) served from a pinned fact cache with a block cache smaller than the blocks the ops touch; the partitioner is bypassed",
			apbDensity: pick(0.01, 0.0005), aggs: sumSum, reps: n(4, 2),
			// The cube holds 47.8 MB of raw extents, but the ops touch only
			// the coarse nodes: the block cache hits always at 8 MiB, 77% of
			// the time at 4 MiB and 67% at 2 MiB, which is the regime wanted.
			serve:       query.Options{CacheFraction: 1, PinAggregates: true, DecodedCacheBytes: 2 << 20},
			pointLevels: classAndGroup,
			rollupArity: 2, nPoint: n(650, 130), nRange: n(490, 49), rollupPasses: n(2, 1), mixedRollups: n(5, 1),
		}
	case "apb-outofcore":
		s = &spec{
			why:        "partitioned build whose fact rows exceed the resolver's 131k-row page pool, served with a 10% fact cache and a 1 MiB block cache, so paging dominates build and serving",
			apbDensity: pick(0.011, 0.0005), aggs: sumSum, reps: n(3, 2),
			memoryBudget: int64(pick(2_000_000, 100_000)),
			serve:        query.Options{CacheFraction: pick(0.1, 0.5), PinAggregates: true, DecodedCacheBytes: 1 << 20},
			// Every row a paged scan touches costs a fact-page fault: a point
			// on Product.Class takes 7 ms and one on Group 1 ms, so points
			// pick from Group's 215 members (one full cycle), and roll-ups
			// stop at Family, a pass being ~80k rows instead of 700k.
			pointLevels: []int{2},
			rollupArity: n(2, 1), rollupLevel0: 3, nPoint: n(215, 5), nRange: n(49, 3), rollupPasses: 1, mixedRollups: 1,
		}
	case "dense-flat":
		s = &spec{
			why:        "dense uniform flat data (Fig 14 regime): signature sorting and NT/CAT traffic dominate, trivial tuples and zone pruning do little, so a TT- or deref-only change must show no change here",
			flatTuples: int(pick(250_000, 5_000)), aggs: sumCount, reps: n(5, 2), flat: true,
			flatCards:   []int32{10, 8, 6, 6, 4, 4, 4},
			serve:       query.Options{CacheFraction: 1, PinAggregates: true},
			rollupArity: 3, nPoint: n(1500, 100), nRange: n(1500, 100), rollupPasses: n(300, 2), mixedRollups: n(15, 1),
		}
	case "apb-update":
		s = &spec{
			why:        "update.Apply merges a delta into an existing cube: the query-scan, signature and storage-writer layers as read-merge-write, so a serving gain that costs maintenance shows",
			apbDensity: pick(0.003, 0.0003), deltaDensity: pick(0.0003, 0.00003), aggs: sumCount, reps: n(3, 2),
			serve:       query.Options{CacheFraction: 1, PinAggregates: true},
			pointLevels: classAndGroup,
			rollupArity: 2, nPoint: n(1300, 130), nRange: n(490, 49), rollupPasses: n(4, 1), mixedRollups: n(5, 1),
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v or all)", name, workloadNames)
	}
	s.name = name
	return s, nil
}

// hier returns the workload's hierarchy schema; children rebuild it from
// the spec instead of reading it back from disk.
func (s *spec) hier() (*hierarchy.Schema, error) {
	if s.flatTuples == 0 {
		return gen.APBSchema(), nil
	}
	dims := make([]*hierarchy.Dim, len(s.flatCards))
	for i, c := range s.flatCards {
		dims[i] = hierarchy.NewFlatDim(fmt.Sprintf("D%d", i), c)
	}
	return hierarchy.NewSchema(dims...)
}

// generate produces the fact table (and the delta of apb-update) from
// the seed alone.
func (s *spec) generate(seed int64) (fact, delta *relation.FactTable, err error) {
	if s.flatTuples == 0 {
		if fact, _, err = gen.APB(s.apbDensity, seed); err != nil {
			return nil, nil, err
		}
		if s.deltaDensity > 0 {
			delta, _, err = gen.APB(s.deltaDensity, seed+7)
		}
		return fact, delta, err
	}
	names := make([]string, len(s.flatCards))
	for i := range names {
		names[i] = fmt.Sprintf("D%d", i)
	}
	fact = relation.NewFactTable(&relation.Schema{DimNames: names, MeasureNames: []string{"M"}}, s.flatTuples)
	rng := rand.New(rand.NewSource(seed))
	row := make([]int32, len(s.flatCards))
	meas := make([]float64, 1)
	for t := 0; t < s.flatTuples; t++ {
		for d, c := range s.flatCards {
			row[d] = rng.Int31n(c)
		}
		meas[0] = float64(rng.Intn(100))
		fact.Append(row, meas)
	}
	return fact, nil, nil
}

// buildOptions is the configuration of every timed (and set-up) build:
// sequential, because a 2-core host cannot repeat a parallel one.
func (s *spec) buildOptions(dir, factPath string, h *hierarchy.Schema) core.Options {
	return core.Options{
		Dir: dir, FactPath: factPath, Hier: h, AggSpecs: s.aggs,
		MemoryBudget: s.memoryBudget, Flat: s.flat, Compression: "auto",
		Parallelism: 1, FinalizeParallelism: 1,
	}
}
