package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"cure/internal/factstore"
	"cure/internal/hierarchy"
	"cure/internal/lattice"
	"cure/internal/query"
	"cure/internal/relation"
	"cure/internal/signature"
	"cure/internal/storage"
)

// This file is the equivalence harness. Every cube the table below builds
// — each variant, build path and worker count — must answer every node
// exactly as query.Verify's brute-force CUBE of its fact file does, and
// every cube but the plain-layout rows' must have §5.3's sorted row-ids.
// Adding a variant is adding one row to oracleVariants.

// checkCube is the harness's one oracle: query.Verify recomputes every node
// of the cube in dir from its fact file and compares tuples, aggregates
// and NodeCount, iceberg threshold included, for the whole node and for
// one Spec it draws per node. The engine it verifies through is drawn
// from seed: a fact cache of nothing, two pages or everything, the
// decoded block cache off, at 64 KiB or at its default, AGGREGATES pinned
// or not, zone pruning on or off; and C ∈ {1, 4} goroutines verify on it
// at once, each from its own seed, the first every node and the others a
// sample.
func checkCube(t *testing.T, dir string, seed int64) {
	t.Helper()
	m, err := storage.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	opts := query.Options{
		CacheFraction:     []float64{0, 2 * factstore.PageRows / max(float64(m.FactRows), 1), 1}[rng.Intn(3)],
		DecodedCacheBytes: []int64{-1, 64 << 10, 0}[rng.Intn(3)],
		PinAggregates:     rng.Intn(2) == 0,
		NoIndex:           rng.Intn(2) == 0,
	}
	eng, err := query.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	clients := []int{1, 4}[rng.Intn(2)]
	reps := make([]*query.VerifyReport, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Client 0 verifies every node; the others a quarter each.
			sample := 0
			if c > 0 {
				sample = max(int(eng.Enum().NumNodes())/4, 1)
			}
			reps[c], errs[c] = eng.Verify(sample, seed+int64(c))
		}()
	}
	wg.Wait()
	enum := eng.Enum()
	for c, rep := range reps {
		if errs[c] != nil {
			t.Fatal(errs[c])
		}
		if !rep.OK() {
			t.Fatalf("engine %+v, client %d of %d: cube disagrees with its fact table: %v", opts, c, clients, rep.Errors)
		}
		if c == 0 && int64(rep.NodesChecked) != enum.NumNodes() {
			t.Fatalf("verified %d of %d nodes", rep.NodesChecked, enum.NumNodes())
		}
	}
}

// buildAt writes ft to dir/fact.bin and builds its cube into dir/cube.
func buildAt(t *testing.T, dir string, ft *relation.FactTable, opts Options) *BuildStats {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	factPath := filepath.Join(dir, "fact.bin")
	if err := relation.WriteFactFile(factPath, ft); err != nil {
		t.Fatal(err)
	}
	return buildFrom(t, factPath, filepath.Join(dir, "cube"), opts)
}

// buildFrom builds the cube of the fact file at factPath into dir. Cubes
// built from one fact file record the same fact reference, so their
// manifests can be compared byte for byte.
func buildFrom(t *testing.T, factPath, dir string, opts Options) *BuildStats {
	t.Helper()
	opts.Dir, opts.FactPath = dir, factPath
	stats, err := Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	return stats
}

// sameCubeFiles fails unless the cubes in dirA and dirB hold the same
// bytes in every format file (goldenFiles).
func sameCubeFiles(t *testing.T, dirA, dirB string) {
	t.Helper()
	for _, name := range goldenFiles {
		a, errA := os.ReadFile(filepath.Join(dirA, name))
		b, errB := os.ReadFile(filepath.Join(dirB, name))
		if errA != nil || errB != nil {
			t.Fatalf("%s: %v / %v", name, errA, errB)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s differs: %s has %d bytes, %s %d", name, dirA, len(a), dirB, len(b))
		}
	}
}

// buildChecked builds ft's cube under opts in a fresh directory and holds
// it to the oracle.
func buildChecked(t *testing.T, ft *relation.FactTable, opts Options) *BuildStats {
	t.Helper()
	dir := t.TempDir()
	stats := buildAt(t, dir, ft, opts)
	checkCube(t, filepath.Join(dir, "cube"), int64(ft.Len()))
	checkLayout(t, filepath.Join(dir, "cube"), opts)
	return stats
}

// checkLayout holds the cube built into dir under opts to §5.3's layout,
// which every build but the exhibits' plain arm writes: each TT extent,
// and each CAT extent under format (a), decodes to strictly ascending
// row-ids.
func checkLayout(t *testing.T, dir string, opts Options) {
	t.Helper()
	if opts.plainLayout {
		return
	}
	r, err := storage.OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	check := func(id lattice.NodeID, rel string, ids []int64) {
		for i := 1; i < len(ids); i++ {
			if ids[i] <= ids[i-1] {
				t.Fatalf("node %s: %s row-id %d follows %d", r.Enum().Name(id), rel, ids[i], ids[i-1])
			}
		}
	}
	formatA := r.Manifest().CatFormat == signature.FormatA
	var ids []int64
	for _, id := range r.Enum().AllNodes() {
		if ids, err = r.TTRowIDs(id, ids); err != nil {
			t.Fatal(err)
		}
		check(id, "TT", ids)
		if !formatA {
			continue
		}
		ids = ids[:0]
		if err := r.CATRows(id, func(row storage.CATRow) error {
			ids = append(ids, row.ARowid)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		check(id, "CAT", ids)
	}
}

func diffCubes(t *testing.T, dirA, dirB string) {
	t.Helper()
	a, err := query.OpenDefault(dirA)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := query.OpenDefault(dirB)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	rep, err := query.Diff(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Equal() {
		t.Fatalf("cubes differ: %v", rep.Differences)
	}
}

// oraclePath is a build path, named by the number of prefix dimensions
// the build partitions on.
type oraclePath int

const (
	inMemory oraclePath = iota
	partitioned
	pairPartitioned
)

func (p oraclePath) String() string {
	return [...]string{"in-memory", "partitioned", "pair-partitioned"}[p]
}

// oracleCase is one input of the harness.
type oracleCase struct {
	hier  *hierarchy.Schema
	ft    *relation.FactTable
	specs []relation.AggSpec
	// groupSize is the size of one group of the cube (a group of the
	// partitioning dimension's base codes), the iceberg variants'
	// boundary.
	groupSize int64
}

// maxCodes are the codes of a MaxInt32-cardinality dimension, spread
// over the whole code space up to its last code.
var maxCodes = []int32{0, 1, 1 << 20, 1 << 30, math.MaxInt32 - 2, math.MaxInt32 - 1}

// genCase draws the harness input of seed: 2–4 dimensions, a table of 0,
// 1 or 50–1,500 rows (uniform, or 80% on one code of the partitioning
// dimension), integer-valued measures with NaN and −0 in measure 0 half
// the time, and SUM+COUNT or SUM/COUNT/MIN/MAX. Every schema holds a
// partitioning dimension — a linear hierarchy whose top level is small
// beside its base, which one-level and pair partitioning both need — and a
// wide one, which the pair needs beside it; the others are linear, flat
// (cardinality 1 and MaxInt32 included) or Figure 5a's complex time
// hierarchy. The data are the same on every path; p decides the column
// order: random in memory, the partitioning prefix first otherwise.
func genCase(t testing.TB, seed int64, p oraclePath) *oracleCase {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var partDim *hierarchy.Dim
	if base, top := int32(32+rng.Intn(33)), int32(2+rng.Intn(3)); rng.Intn(2) == 0 {
		partDim = linearDim(t, "D0", base, top)
	} else {
		partDim = linearDim(t, "D0", base, int32(8+rng.Intn(9)), top)
	}
	dims := []*hierarchy.Dim{partDim}
	switch base := int32(64 + rng.Intn(193)); rng.Intn(3) {
	case 0:
		dims = append(dims, hierarchy.NewFlatDim("D1", base))
	case 1:
		dims = append(dims, hierarchy.NewFlatDim("D1", math.MaxInt32))
	default:
		dims = append(dims, linearDim(t, "D1", base, int32(8+rng.Intn(9))))
	}
	for d, extra := 2, rng.Intn(3); d < 2+extra; d++ {
		name := fmt.Sprintf("D%d", d)
		switch rng.Intn(5) {
		case 0:
			dims = append(dims, timeDim(t, name))
		case 1:
			dims = append(dims, hierarchy.NewFlatDim(name, 1))
		case 2:
			dims = append(dims, hierarchy.NewFlatDim(name, math.MaxInt32))
		default:
			cards := []int32{int32(2 + rng.Intn(11))}
			for l := rng.Intn(3); l > 0 && cards[len(cards)-1] > 1; l-- {
				cards = append(cards, 1+rng.Int31n(cards[len(cards)-1]-1))
			}
			dims = append(dims, linearDim(t, name, cards...))
		}
	}

	var rows int
	switch r := rng.Intn(10); r {
	case 0, 1:
		rows = r
	default:
		rows = 50 + rng.Intn(1451)
	}
	skew, nan := rng.Intn(2) == 0, rng.Intn(2) == 0
	specs := []relation.AggSpec{{Func: relation.AggSum, Measure: 0}, {Func: relation.AggCount}}
	if rng.Intn(2) == 0 {
		specs = []relation.AggSpec{
			{Func: relation.AggSum, Measure: 1}, {Func: relation.AggCount},
			{Func: relation.AggMin, Measure: 0}, {Func: relation.AggMax, Measure: 0},
		}
	}
	schema := &relation.Schema{MeasureNames: []string{"M0", "M1"}}
	for _, dim := range dims {
		schema.DimNames = append(schema.DimNames, dim.Name)
	}
	natural := relation.NewFactTable(schema, rows)
	sizes := map[int32]int64{}
	row := make([]int32, len(dims))
	for range rows {
		for d, dim := range dims {
			switch card := dim.Levels[0].Card; {
			case d == 0 && skew && rng.Intn(5) != 0:
				row[d] = 0 // 80% of the rows share code 0.
			case card == math.MaxInt32:
				row[d] = maxCodes[rng.Intn(len(maxCodes))]
			default:
				row[d] = rng.Int31n(card)
			}
		}
		sizes[row[0]]++
		m0 := float64(rng.Intn(21) - 10)
		if nan {
			switch rng.Intn(20) {
			case 0:
				m0 = math.NaN()
			case 1, 2:
				m0 = math.Copysign(0, -1)
			}
		}
		natural.Append(row, []float64{m0, float64(rng.Intn(5))})
	}

	order := rng.Perm(len(dims))
	if p != inMemory {
		// The partitioning prefix leads; the rest follow in random order.
		order = []int{0, 1}[:p]
		for _, d := range rng.Perm(len(dims) - int(p)) {
			order = append(order, int(p)+d)
		}
	}
	hier, ft := permuted(t, dims, natural, order)
	c := &oracleCase{hier: hier, ft: ft, specs: specs, groupSize: 2}
	var groups []int64
	for _, n := range sizes {
		if n >= 2 {
			groups = append(groups, n)
		}
	}
	if len(groups) > 0 {
		slices.Sort(groups)
		c.groupSize = groups[len(groups)/2]
	}
	return c
}

// permuted returns the schema of dims and a copy of ft, both with their
// dimensions in order: column i is dimension order[i].
func permuted(t testing.TB, dims []*hierarchy.Dim, ft *relation.FactTable, order []int) (*hierarchy.Schema, *relation.FactTable) {
	t.Helper()
	ordered := make([]*hierarchy.Dim, len(order))
	names := make([]string, len(order))
	for i, d := range order {
		ordered[i], names[i] = dims[d], dims[d].Name
	}
	hier, err := hierarchy.NewSchema(ordered...)
	if err != nil {
		t.Fatal(err)
	}
	out := relation.NewFactTable(&relation.Schema{DimNames: names, MeasureNames: ft.Schema.MeasureNames}, ft.Len())
	row := make([]int32, len(order))
	var meas []float64
	for r := range ft.Len() {
		for i, d := range order {
			row[i] = ft.Dims[d][r]
		}
		meas = ft.MeasureRow(r, meas)
		out.Append(row, meas)
	}
	return hier, out
}

// linearDim is a linear hierarchy with the given level cardinalities,
// each level a contiguous roll-up of the one below.
func linearDim(t testing.TB, name string, cards ...int32) *hierarchy.Dim {
	t.Helper()
	names := []string{name + "_0"}
	var maps [][]int32
	for l := 1; l < len(cards); l++ {
		names = append(names, fmt.Sprintf("%s_%d", name, l))
		step := hierarchy.BuildContiguousMap(cards[l-1], cards[l])
		if l > 1 {
			step = hierarchy.ComposeMaps(maps[l-2], step)
		}
		maps = append(maps, step)
	}
	d, err := hierarchy.NewLinearDim(name, names, cards, maps)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// timeDim is Figure 5a's complex hierarchy: day rolls up to week and to
// month, both to year.
func timeDim(t testing.TB, name string) *hierarchy.Dim {
	t.Helper()
	const days = 60
	d := &hierarchy.Dim{Name: name, Levels: []hierarchy.Level{
		{Name: name + "_day", Card: days, RollsUpTo: []int{1, 2}},
		{Name: name + "_week", Card: 9, Map: hierarchy.BuildContiguousMap(days, 9), RollsUpTo: []int{3}},
		{Name: name + "_month", Card: 3, Map: hierarchy.BuildContiguousMap(days, 3), RollsUpTo: []int{3}},
		{Name: name + "_year", Card: 1, Map: make([]int32, days)},
	}}
	if err := d.Finalize(); err != nil {
		t.Fatal(err)
	}
	return d
}

// budgetFor returns a MemoryBudget under which Build takes path p, asking
// ChooseStrategy — the decision Build itself makes — over the partition
// counts 2…64. A case no budget fits fails.
func budgetFor(t *testing.T, hier *hierarchy.Schema, ft *relation.FactTable, p oraclePath) int64 {
	t.Helper()
	if p == inMemory {
		return 0
	}
	rBytes := int64(ft.Len()) * int64(ft.Schema.RowWidth())
	for n := int64(2); n <= 64; n++ {
		budget := 2 * ((rBytes + n - 1) / n)
		s, err := ChooseStrategy(hier, rBytes, budget, nil)
		if err == nil && !s.InMemory && len(s.Choice.Levels) == int(p) {
			return budget
		}
	}
	t.Fatalf("no memory budget takes the %s path over %d bytes", p, rBytes)
	return 0
}

// oracleVariant is one row of the harness table.
type oracleVariant struct {
	name string
	// seed draws the row's case; the seeds are chosen so that the table
	// covers the generator's adversarial inputs (TestCubeMatchesOracle
	// checks that it does).
	seed int64
	mod  func(*Options, *oracleCase)
}

var oracleVariants = []oracleVariant{
	{"plain", 53, func(*Options, *oracleCase) {}},
	{"plain-layout", 5, func(o *Options, _ *oracleCase) { PlainLayout(o) }},
	{"dr", 8, func(o *Options, _ *oracleCase) { o.DimsInline = true }},
	{"dr+plain-layout", 10, func(o *Options, _ *oracleCase) { o.DimsInline = true; PlainLayout(o) }},
	{"flat", 24, func(o *Options, _ *oracleCase) { o.Flat = true }},
	{"shortplan", 55, func(o *Options, _ *oracleCase) { ShortestPlan(o) }},
	{"no-pool", 44, func(o *Options, _ *oracleCase) { o.PoolCapacity = NoPool }},
	{"pool-1", 13, func(o *Options, _ *oracleCase) { o.PoolCapacity = 1 }},
	{"pool-2", 60, func(o *Options, _ *oracleCase) { o.PoolCapacity = 2 }},
	{"pool-7", 9, func(o *Options, _ *oracleCase) { o.PoolCapacity = 7 }},
	{"format-a", 29, func(o *Options, _ *oracleCase) { o.forceFormat = signature.FormatA }},
	{"format-b", 23, func(o *Options, _ *oracleCase) { o.forceFormat = signature.FormatB }},
	{"quicksort", 1, func(o *Options, _ *oracleCase) { QuickSortOnly(o) }},
	{"zone-32", 7, func(o *Options, _ *oracleCase) { o.ZoneBlockRows = 32 }},
	{"iceberg-k", 40, func(o *Options, c *oracleCase) { o.Iceberg = c.groupSize }},
	{"iceberg-k+1", 40, func(o *Options, c *oracleCase) { o.Iceberg = c.groupSize + 1 }},
}

// paths lists the build paths a variant takes over a table of rows rows.
// The shortest plan is an in-memory ablation; a flat cube has no
// hierarchy for a pair to partition on; an empty table has no bytes to
// partition, and a single row's bytes cannot be split into a pair's
// partitions with every node N under budget.
func paths(opts Options, rows int) []oraclePath {
	switch {
	case opts.shortPlan || rows == 0:
		return []oraclePath{inMemory}
	case opts.Flat || rows == 1:
		return []oraclePath{inMemory, partitioned}
	}
	return []oraclePath{inMemory, partitioned, pairPartitioned}
}

// checkVariant builds variant v over the case of seed on every path it
// takes, at one worker and at four, and holds each cube to the oracle, the
// path and the stats the variant pins; the P = 4 build must also answer
// and classify like the P = 1 one. In memory it must write the same bytes;
// partitioned, it must pin its CAT format.
func checkVariant(t *testing.T, v oracleVariant, seed int64) {
	c := genCase(t, seed, inMemory)
	var variant Options
	v.mod(&variant, c)
	rows := c.ft.Len()
	for _, p := range paths(variant, rows) {
		t.Run(p.String(), func(t *testing.T) {
			c := genCase(t, seed, p)
			opts := Options{Hier: c.hier, AggSpecs: c.specs}
			v.mod(&opts, c)
			effHier := c.hier
			if opts.Flat {
				effHier = c.hier.Flatten()
			}
			opts.MemoryBudget = budgetFor(t, effHier, c.ft, p)
			base := t.TempDir()
			factPath := filepath.Join(base, "fact.bin")
			if err := relation.WriteFactFile(factPath, c.ft); err != nil {
				t.Fatal(err)
			}
			var seq *BuildStats
			for _, par := range []int{1, 4} {
				opts.Parallelism = par
				dir := filepath.Join(base, fmt.Sprintf("P%d", par))
				stats := buildFrom(t, factPath, dir, opts)
				if stats.Partitioned != (p != inMemory) || (stats.PartitionLevelB >= 0) != (p == pairPartitioned) ||
					(p != inMemory && stats.NumPartitions < 2) {
					t.Fatalf("P=%d took another path: partitioned=%v level_b=%d partitions=%d",
						par, stats.Partitioned, stats.PartitionLevelB, stats.NumPartitions)
				}
				checkCube(t, dir, seed+int64(par))
				checkLayout(t, dir, opts)
				switch {
				case opts.Iceberg > 1 && stats.TTs != 0:
					t.Errorf("P=%d: iceberg cube stored %d TTs", par, stats.TTs)
				case opts.PoolCapacity == NoPool && stats.Pool.CatGroups != 0:
					t.Errorf("P=%d: %d CAT groups without a pool", par, stats.Pool.CatGroups)
				case rows == 0 && (stats.TTs != 0 || stats.Pool.Total != 0):
					t.Errorf("P=%d: empty table stored %d TTs, classified %d signatures", par, stats.TTs, stats.Pool.Total)
				case rows == 1 && opts.Iceberg <= 1 && stats.TTs != int64(1+p):
					// One TT per traversal that meets the row: the root's in
					// memory, the partition's and node N's when partitioned.
					t.Errorf("P=%d: single row stored %d TTs, want %d", par, stats.TTs, 1+p)
				}
				if par == 1 {
					seq = stats
					continue
				}
				diffCubes(t, filepath.Join(base, "P1"), dir)
				if stats.TTs != seq.TTs || stats.Pool.Total != seq.Pool.Total {
					t.Errorf("P=%d wrote %d TTs from %d signatures, P=1 %d from %d",
						par, stats.TTs, stats.Pool.Total, seq.TTs, seq.Pool.Total)
				}
				if opts.PoolCapacity == NoPool && stats.Pool.NTs != seq.Pool.NTs {
					t.Errorf("P=%d without a pool wrote %d NTs, P=1 %d", par, stats.Pool.NTs, seq.Pool.NTs)
				}
				if p == inMemory {
					// An in-memory build cubes sequentially at every P.
					sameCubeFiles(t, filepath.Join(base, "P1"), dir)
					continue
				}
				// Concurrent cube tasks fix the CAT format up front; a cube
				// shows it once it holds CATs.
				if want := opts.forceFormat; stats.Pool.CatGroups > 0 {
					if want == signature.FormatUndecided {
						want = signature.FormatB
						if len(c.specs) == 1 {
							want = signature.FormatNT
						}
					}
					if stats.CatFormat != want {
						t.Errorf("P=%d CAT format %v, want pinned %v", par, stats.CatFormat, want)
					}
				}
			}
		})
	}
}

// TestCubeMatchesOracle is the harness: oracleVariants × the build paths
// × P ∈ {1, 4}. Under -race it is also the data-race test of the
// parallel build paths.
func TestCubeMatchesOracle(t *testing.T) {
	// The table's seeds must reach every adversarial input the generator
	// draws.
	covered := map[string]bool{}
	for _, v := range oracleVariants {
		c := genCase(t, v.seed, inMemory)
		for feature, ok := range caseFeatures(c) {
			covered[feature] = covered[feature] || ok
		}
	}
	for feature, ok := range covered {
		if !ok {
			t.Errorf("no table row draws %s", feature)
		}
	}
	for _, v := range oracleVariants {
		t.Run(v.name, func(t *testing.T) {
			t.Parallel()
			checkVariant(t, v, v.seed)
		})
	}
}

// caseFeatures reports which adversarial inputs a case holds.
func caseFeatures(c *oracleCase) map[string]bool {
	f := map[string]bool{
		"an empty table": c.ft.Len() == 0,
		"a single row":   c.ft.Len() == 1,
	}
	var nan, negZero, minMax bool
	for _, m := range c.ft.Measures[0] {
		nan = nan || math.IsNaN(m)
		negZero = negZero || m == 0 && math.Signbit(m)
	}
	for _, s := range c.specs {
		minMax = minMax || s.Func == relation.AggMin || s.Func == relation.AggMax
	}
	f["NaN"], f["−0"], f["MIN/MAX over NaN"] = nan, negZero, nan && minMax
	for d, dim := range c.hier.Dims {
		if dim.Name == "D0" && c.ft.Len() >= 50 {
			counts := map[int32]int{}
			for _, code := range c.ft.Dims[d] {
				if counts[code]++; counts[code]*2 > c.ft.Len() {
					f["a skewed partitioning dimension"] = true
				}
			}
		}
		f["a cardinality-1 dimension"] = f["a cardinality-1 dimension"] || dim.Levels[0].Card == 1
		f["a complex hierarchy"] = f["a complex hierarchy"] || slices.ContainsFunc(dim.Levels, func(l hierarchy.Level) bool { return len(l.RollsUpTo) > 1 })
		f["code MaxInt32−1"] = f["code MaxInt32−1"] || slices.Contains(c.ft.Dims[d], math.MaxInt32-1)
	}
	return f
}

// FuzzCubeMatchesOracle drives the harness's generator from arbitrary
// seeds; its seed corpus is the table's rows.
func FuzzCubeMatchesOracle(f *testing.F) {
	for i, v := range oracleVariants {
		f.Add(v.seed, uint8(i))
	}
	f.Fuzz(func(t *testing.T, seed int64, variant uint8) {
		t.Parallel()
		checkVariant(t, oracleVariants[int(variant)%len(oracleVariants)], seed)
	})
}

// TestVerifyCatchesWrongAnswers shows the oracle is not vacuous: after a
// clean build, the fact file is rewritten with one measure of one row
// changed, then with one dimension code of another row changed, and Verify
// reports each.
func TestVerifyCatchesWrongAnswers(t *testing.T) {
	dir := t.TempDir()
	buildAt(t, dir, randomFact(t, 600, 42), Options{Hier: paperHier(t), AggSpecs: testSpecs()})
	checkCube(t, filepath.Join(dir, "cube"), 42)
	for name, edit := range map[string]func(*relation.FactTable){
		"measure":   func(ft *relation.FactTable) { ft.Measures[0][10]++ },
		"dimension": func(ft *relation.FactTable) { ft.Dims[2][20] = (ft.Dims[2][20] + 1) % 4 },
	} {
		ft := randomFact(t, 600, 42)
		edit(ft)
		if err := relation.WriteFactFile(filepath.Join(dir, "fact.bin"), ft); err != nil {
			t.Fatal(err)
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
		if rep.OK() {
			t.Errorf("Verify missed a changed %s", name)
		}
	}
}
