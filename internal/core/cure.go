// Package core implements the CURE algorithm itself (§6, Figure 13): the
// bottom-up depth-first traversal of the hierarchical execution plan
// (ExecutePlan / FollowEdge), trivial-tuple pruning, signature collection,
// the in-memory and externally partitioned build paths, iceberg cubes,
// and the paper's variants — CURE_DR (NTs with inline dimension values)
// and FCURE (flat cubes over hierarchical data). Every build writes §5.3's
// CURE+ layout: sorted row-ids, and bitmaps where they are shorter. The
// plain CURE layout is only the baseline arm of the paper's exhibits,
// reached through PlainLayout.
package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"cure/internal/factstore"
	"cure/internal/hierarchy"
	"cure/internal/lattice"
	"cure/internal/obsv"
	"cure/internal/par"
	"cure/internal/partition"
	"cure/internal/relation"
	"cure/internal/signature"
	"cure/internal/storage"
)

// DefaultPoolCapacity matches the paper's experimental setting of a
// 1,000,000-signature pool.
const DefaultPoolCapacity = 1_000_000

// Options configures a cube build.
type Options struct {
	// Dir is the output cube directory.
	Dir string
	// FactPath is the fact table on disk. Leave empty when building with
	// BuildFromTable, which persists the table into the cube directory.
	FactPath string
	// Hier is the hierarchical schema (one Dim per fact-table dimension,
	// in column order).
	Hier *hierarchy.Schema
	// AggSpecs defines the cube's aggregates.
	AggSpecs []relation.AggSpec
	// MemoryBudget in bytes decides between the in-memory and the
	// externally partitioned path and sizes the partitions. Zero means
	// unlimited (always in-memory).
	MemoryBudget int64
	// PoolCapacity is the signature-pool size in signatures
	// (DefaultPoolCapacity if zero; use NoPool for a zero-length pool).
	PoolCapacity int
	// DimsInline selects CURE_DR (NTs store projected dimension values).
	DimsInline bool
	// Flat selects FCURE: the hierarchy is flattened to base levels and
	// only the 2^D flat nodes are built.
	Flat bool
	// Iceberg is the min-count threshold: groups of fewer source tuples
	// are neither stored nor refined (BUC-style iceberg cubes). Values
	// ≤ 1 build the complete cube.
	Iceberg int64
	// Parallelism caps the number of concurrent workers for the whole
	// build (≤1 = sequential, the paper's setting). It means one thing
	// for cubing: a partitioned build cubes its independent roots — the
	// partition files and the in-memory nodes N_j — as concurrent tasks,
	// each a sequential Figure 13 recursion with its own shard of the
	// signature-pool budget. Those builds therefore fix the CAT format up
	// front (format (b), or the NT fallback for a single aggregate)
	// instead of deciding it from statistics; the formats differ only in
	// size, never in correctness. The partitioning scan and the finalize
	// pipeline run on the same number of workers. An in-memory build
	// cubes sequentially, and its cube is byte-identical at every
	// setting.
	Parallelism int
	// FinalizeParallelism overrides the worker cap of the finalize extent
	// pipeline. 0 inherits Parallelism;
	// ≤0 otherwise means sequential. The finalized cube is byte-identical
	// at every setting — the knob exists so benchmarks and tests can vary
	// finalize concurrency while holding the build itself fixed.
	FinalizeParallelism int
	// ZoneBlockRows is the rows per extent block and per zone-map block,
	// so zone pruning skips whole blocks (0 =
	// storage.DefaultZoneBlockRows, negative keeps default blocks and
	// disables zone maps).
	ZoneBlockRows int
	// Compression is a vestige: there is one extent format. "", "auto" and
	// "block" are accepted and mean the same; anything else is an error.
	// The field stays only because benchmarks/cubemark sets it, and goes
	// with the next benchmark PR.
	Compression string
	// Metrics is the optional observability registry: when set, the
	// build records phase spans, sort/prune counters, partition I/O
	// bytes, pool occupancy, and per-relation write volumes into it, and
	// streams plan-traversal events to any attached trace sink. nil (the
	// default) disables all instrumentation at zero overhead.
	Metrics *obsv.Registry

	// plainLayout is set by PlainLayout only.
	plainLayout bool
	// shortPlan is set by ShortestPlan only.
	shortPlan bool
	// forceQuickSort is set by QuickSortOnly only.
	forceQuickSort bool
	// forceFormat overrides the dynamic CAT-format decision. Partitioned
	// builds with concurrent cube tasks pin it; otherwise only tests set
	// it.
	forceFormat signature.Format
}

// PlainLayout makes a build write plain CURE's row-id layout instead of
// CURE+'s (see storage.PlainLayout). It is the baseline arm of the paper's
// CURE-versus-CURE+ exhibits, and its signature fits their variant tables.
func PlainLayout(o *Options) { o.plainLayout = true }

// ShortestPlan makes a build traverse the shortest hierarchical plan (the
// paper's P2, Figure 3) instead of CURE's tallest plan (P3) — the §3.1
// plan-height ablation. In-memory builds only.
func ShortestPlan(o *Options) { o.shortPlan = true }

// QuickSortOnly disables counting sort — the skew ablation.
func QuickSortOnly(o *Options) { o.forceQuickSort = true }

// NoPool is the PoolCapacity sentinel for a zero-length signature pool
// (disables CAT identification entirely).
const NoPool = -1

// BuildStats reports what a build did.
type BuildStats struct {
	// Partitioned reports whether the external path ran.
	Partitioned bool
	// PartitionLevel is L when partitioned (-1 otherwise).
	PartitionLevel int
	// PartitionLevelB is M, the level of dimension 1, when partitioned
	// on a pair of dimensions (-1 otherwise).
	PartitionLevelB int
	// NumPartitions is the partition count when partitioned.
	NumPartitions int
	// NRows is the row count of the in-memory node N when partitioned.
	NRows int
	// TTs is the number of trivial tuples written.
	TTs int64
	// Pool carries the signature-pool statistics (NT/CAT split).
	Pool signature.Stats
	// CatFormat is the locked CAT storage format.
	CatFormat signature.Format
	// Sizes is the cube's on-disk footprint.
	Sizes storage.Sizes
	// NodesMaterialized counts lattice nodes holding at least one tuple.
	NodesMaterialized int
	// Relations counts non-empty per-node relations (≤ 3 per node), the
	// quantity the paper contrasts with the 3·2^D worst case.
	Relations int
	// Elapsed is the wall-clock build time.
	Elapsed time.Duration

	// workerPool accumulates the signature statistics of the per-task
	// pools of concurrent cube tasks; Build folds it into Pool.
	workerPool signature.Stats
}

// Build constructs the cube of the fact table at opts.FactPath following
// Algorithm CURE of Figure 13: if the table fits in the memory budget it
// is loaded and cubed in memory; otherwise it is partitioned on the
// selected level L of dimension 0 (or a pair of levels, see
// ChooseStrategy), the partitions are cubed one at a time (covering all
// nodes with dimension 0 at levels ≤ L), and the rest of the cube is
// computed from the in-memory nodes N_j.
func Build(opts Options) (*BuildStats, error) {
	return build(opts, nil, factStoreRows)
}

// factStoreRows is the fact rows an out-of-core build keeps resident for
// finalize, which dereferences one fact row per zone-mapped or CURE_DR
// tuple.
const factStoreRows = 131_072

// build is Build with two more parameters. A non-nil table is the loaded
// content of opts.FactPath — the rows that file holds, or will hold once
// the caller has written them — and is cubed in memory without the file
// being read. storeRows is the out-of-core fact-store budget, so tests can
// make finalize evict on small inputs.
func build(opts Options, table *relation.FactTable, storeRows int64) (*BuildStats, error) {
	start := time.Now()
	if err := validate(&opts); err != nil {
		return nil, err
	}
	reg := opts.Metrics
	if opts.MemoryBudget > 0 {
		// Declare the budget up front so the runtime sampler (and any
		// /metrics scraper) can check §4's budget adherence externally.
		reg.Gauge(obsv.BudgetGaugeName).Set(opts.MemoryBudget)
	}
	root := reg.StartSpan("build")
	defer root.End() // ends early on success; ending twice is a no-op

	loadSpan := root.Child("load")
	var fr *relation.FactReader // stays nil when the caller passed the table
	var rows, rBytes int64
	var schema *relation.Schema
	var err error
	if table != nil {
		rows, schema = int64(table.Len()), table.Schema
	} else {
		if fr, err = relation.OpenFactReader(opts.FactPath); err != nil {
			return nil, err
		}
		defer fr.Close()
		rows, schema = fr.Rows(), fr.Schema()
		rBytes = rows * int64(fr.RowWidth())
	}
	if schema.NumDims() != opts.Hier.NumDims() {
		return nil, fmt.Errorf("core: fact table has %d dims, hierarchy %d", schema.NumDims(), opts.Hier.NumDims())
	}

	effHier := opts.Hier
	if opts.Flat {
		effHier = opts.Hier.Flatten()
	}

	var strategy Strategy
	if table == nil {
		if strategy, err = ChooseStrategy(effHier, rBytes, opts.MemoryBudget, reg); err != nil {
			return nil, err
		}
		if strategy.InMemory {
			if table, err = relation.ReadFactFile(opts.FactPath); err != nil {
				return nil, err
			}
			loadSpan.AddRowsIn(rows)
			loadSpan.AddBytesRead(rBytes)
		}
	}
	var facts *factstore.Store
	inMemory := table != nil
	if inMemory {
		facts = factstore.FromColumns(table)
	} else {
		facts = factstore.New(fr, storeRows)
	}
	loadSpan.End()

	if opts.shortPlan && !inMemory {
		return nil, errors.New("core: the shortest plan (P2 ablation) supports in-memory builds only")
	}
	// One limiter serves the cube tasks of a partitioned build. The
	// partitioning scan and finalize make their own: the scan runs before
	// the first task and finalize after the last, so this one would grant
	// them every slot.
	lim := par.NewLimiter(opts.Parallelism)
	finPar := opts.FinalizeParallelism
	if finPar == 0 {
		finPar = opts.Parallelism
	}
	resolver := func(rowids []int64, dims [][]int32) error { return facts.Deref(rowids, dims, nil, nil) }
	setupSpan := root.Child("setup")
	wopts := storage.Options{
		Dir:           opts.Dir,
		Hier:          effHier,
		AggSpecs:      opts.AggSpecs,
		FactFile:      factRef(opts.Dir, opts.FactPath),
		FactRows:      rows,
		DimsInline:    opts.DimsInline,
		Resolver:      resolver,
		Iceberg:       opts.Iceberg,
		ZoneBlockRows: opts.ZoneBlockRows,
		Parallelism:   finPar,
		Metrics:       reg,
	}
	if opts.plainLayout {
		storage.PlainLayout(&wopts)
	}
	w, err := storage.NewWriter(wopts)
	if err != nil {
		return nil, err
	}
	poolCap := opts.PoolCapacity
	switch {
	case poolCap == NoPool:
		poolCap = 0
	case poolCap == 0:
		poolCap = DefaultPoolCapacity
	}
	concurrent := !inMemory && lim != nil
	if concurrent && opts.forceFormat == signature.FormatUndecided {
		// Independent task pools cannot share the dynamic format
		// decision; pin the always-correct format up front.
		if len(opts.AggSpecs) == 1 {
			opts.forceFormat = signature.FormatNT
		} else {
			opts.forceFormat = signature.FormatB
		}
	}
	pool, err := signature.NewPool(len(opts.AggSpecs), poolCap, w)
	if err != nil {
		w.Abort()
		return nil, err
	}
	pool.ForceFormat = opts.forceFormat
	pool.Metrics = reg
	setupSpan.End()

	if concurrent {
		// Concurrent cube tasks append through the shared writer.
		w.Lock()
	}
	stats := &BuildStats{PartitionLevel: -1, PartitionLevelB: -1}
	if inMemory {
		err = buildInMemory(table, effHier, opts, pool, w, stats, root)
	} else {
		err = buildPartitioned(opts, effHier, strategy.Choice, rBytes, lim, pool, w, stats, root)
	}
	if err != nil {
		w.Abort()
		return nil, err
	}
	flushSpan := root.Child("pool.flush")
	if err := pool.Flush(); err != nil {
		w.Abort()
		return nil, err
	}
	flushSpan.End()
	// The pool's last use: nothing below refers to it, so finalize runs
	// without the record buffer reachable.
	catFormat, poolStats := pool.Format(), pool.Stats()
	finSpan := root.Child("finalize")
	w.SetFinalizeSpan(finSpan)
	m, err := w.Finalize(catFormat)
	if err != nil {
		return nil, err
	}
	finSpan.End()
	stats.Pool = poolStats.Add(stats.workerPool)
	stats.CatFormat = m.CatFormat
	stats.Sizes = m.Sizes
	stats.NodesMaterialized = len(m.Nodes)
	for _, nm := range m.Nodes {
		if nm.NTRows > 0 {
			stats.Relations++
		}
		if nm.TTRows > 0 {
			stats.Relations++
		}
		if nm.CATRows > 0 {
			stats.Relations++
		}
	}
	root.End()
	stats.Elapsed = time.Since(start)
	return stats, nil
}

// BuildFromTable persists an in-memory fact table into the cube directory
// and builds its cube in memory (no partitioning).
func BuildFromTable(t *relation.FactTable, opts Options) (*BuildStats, error) {
	if opts.FactPath != "" {
		return nil, errors.New("core: BuildFromTable must not set FactPath")
	}
	if opts.Dir == "" {
		return nil, errors.New("core: missing cube directory")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	opts.FactPath = filepath.Join(opts.Dir, "fact.bin")
	if err := relation.WriteFactFile(opts.FactPath, t); err != nil {
		return nil, err
	}
	return BuildLoaded(t, opts)
}

// BuildLoaded cubes, in memory, a fact table the caller already holds:
// t is the content of opts.FactPath, row i of one being row-id i of the
// other, and the file is not read. The file may lag the table — the
// manifest records t.Len() rows, and the cube opens once the file holds
// them (update.Apply appends its delta only after the cube is finalized).
func BuildLoaded(t *relation.FactTable, opts Options) (*BuildStats, error) {
	opts.MemoryBudget = 0
	return build(opts, t, factStoreRows)
}

func validate(opts *Options) error {
	if opts.Dir == "" {
		return errors.New("core: missing cube directory")
	}
	if opts.FactPath == "" {
		return errors.New("core: missing fact path")
	}
	if opts.Hier == nil {
		return errors.New("core: missing hierarchy schema")
	}
	if len(opts.AggSpecs) == 0 {
		return errors.New("core: need at least one aggregate")
	}
	switch opts.Compression {
	case "", "auto", "block":
	default:
		return fmt.Errorf("core: unknown Compression %q: extents have one format (\"auto\")", opts.Compression)
	}
	return nil
}

// factRef records the fact file relative to the cube dir when it lives
// inside it (keeping such cubes relocatable) and as an absolute path
// otherwise (so queries resolve it regardless of the working directory).
func factRef(dir, factPath string) string {
	absDir, err1 := filepath.Abs(dir)
	absFact, err2 := filepath.Abs(factPath)
	if err1 != nil || err2 != nil {
		return factPath
	}
	if rel, err := filepath.Rel(absDir, absFact); err == nil && filepath.Dir(rel) == "." && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return absFact
}

func buildInMemory(table *relation.FactTable, hier *hierarchy.Schema, opts Options, pool *signature.Pool, w *storage.Writer, stats *BuildStats, root *obsv.Span) error {
	span := root.Child("cube")
	span.AddRowsIn(int64(table.Len()))
	defer span.End()
	ex := newExecutor(table, hier, opts.AggSpecs, -1, pool, w, opts.Iceberg, opts.forceQuickSort, opts.Metrics)
	if opts.shortPlan {
		ex.shortPlan = true
		recordShortPlan(w)
	}
	return ex.run(stats)
}

// recordShortPlan makes the shortest-plan ablation's one walk over the
// lattice: it records every node whose P2 parent differs from its P3 one,
// so queries share trivial tuples along the tree the build ran.
func recordShortPlan(w *storage.Writer) {
	enum := w.Enum()
	for id := lattice.NodeID(0); int64(id) < enum.NumNodes(); id++ {
		short, ok := planParentShort(enum, id)
		if tall, _ := enum.PlanParent(id); ok && short != tall {
			w.SetPlanParent(id, short)
		}
	}
}

// planParentShort returns a node's parent under the shortest BUC-style
// hierarchical plan (P2), where every edge adds one grouping dimension at
// some level and no dashed refinements exist: the parent drops the
// rightmost grouping dimension. It returns false for ∅.
func planParentShort(enum *lattice.Enum, id lattice.NodeID) (lattice.NodeID, bool) {
	levels := enum.Decode(id, nil)
	for d := len(levels) - 1; d >= 0; d-- {
		if dim := enum.Schema().Dims[d]; !dim.IsAll(levels[d]) {
			levels[d] = dim.AllLevel()
			return enum.Encode(levels), true
		}
	}
	return 0, false
}

// partitionReadBytes charges the phase-1 re-read of a partition file to
// the 2-reads-1-write accounting (§4): the split pass already counted
// one read of R and one write of the partitions.
func partitionReadBytes(reg *obsv.Registry, path string) {
	if reg == nil {
		return
	}
	if fi, err := os.Stat(path); err == nil {
		reg.Counter("partition.bytes_read").Add(fi.Size())
	}
}

// Strategy is how Build cubes a fact table: in memory, or partitioned on
// the prefix levels of Choice — one level of dimension 0, or a pair of
// levels of dimensions 0 and 1.
type Strategy struct {
	InMemory bool
	Choice   partition.Choice
}

// ChooseStrategy is Build's decision for a fact table of rBytes bytes
// under memoryBudget (0 = unlimited), and the one place it is made
// (estimate.BuildPlan reports it without building). The table is cubed
// in memory when it fits half the budget. Otherwise half the budget
// bounds a loaded partition and a quarter each node N_j (the signature
// pool and sort scratch take the rest): the highest feasible level of
// dimension 0 (§4, SelectLevel), else the pair extension §4 mentions
// and omits (SelectLevelPair). With neither feasible the error is the
// single-level one. reg receives the selection trace of both searches.
func ChooseStrategy(hier *hierarchy.Schema, rBytes, memoryBudget int64, reg *obsv.Registry) (Strategy, error) {
	if memoryBudget <= 0 || rBytes <= memoryBudget/2 {
		return Strategy{InMemory: true}, nil
	}
	partBudget, nBudget := memoryBudget/2, memoryBudget/4
	choice, err := partition.SelectLevel(hier.Dims[0], rBytes, partBudget, nBudget, reg)
	if err == nil {
		return Strategy{Choice: choice}, nil
	}
	if hier.NumDims() >= 2 {
		if pair, perr := partition.SelectLevelPair(hier.Dims[0], hier.Dims[1], rBytes, partBudget, nBudget, reg); perr == nil {
			return Strategy{Choice: pair}, nil
		}
	}
	return Strategy{}, err
}

// buildPartitioned is the out-of-core path on the prefix levels
// L_0 … L_{k-1} of choice. One scan splits R into partitions sound on the
// prefix and builds every node N_j. Phase 1 cubes each partition: with
// k = 1 dimension 0 enters at L_0 (Figure 13 lines 12–16: FollowEdge at
// level L), covering every node with dimension 0 at a level ≤ L_0; with
// k = 2 one root {A_i, B_{L_1}} per level i ≤ L_0 covers the nodes with
// both dimensions at or below their levels. Phase 2 cubes each N_j: N_0
// yields every node with dimension 0 above L_0 (lines 17–20: start
// dimension 0 at its top level, never descend below L_0+1); N_1 yields the
// nodes with dimension 0 at a level ≤ L_0 and dimension 1 above L_1, one
// root {A_i} per level i ≤ L_0. The two phases share no node, so their
// roots are one set of independent tasks (runPartitions).
func buildPartitioned(opts Options, hier *hierarchy.Schema, choice partition.Choice, rBytes int64, lim *par.Limiter, pool *signature.Pool, w *storage.Writer, stats *BuildStats, root *obsv.Span) error {
	reg := opts.Metrics
	// Partition files live in Dir/tmp and go on every return path, a
	// failed scan included.
	partDir := filepath.Join(opts.Dir, "tmp")
	defer os.RemoveAll(partDir)
	splitSpan := root.Child("partition.split")
	splitSpan.AddBytesRead(rBytes)
	res, err := partition.PartitionScan(opts.FactPath, partDir, hier, opts.AggSpecs, choice,
		partition.ScanConfig{Parallelism: opts.Parallelism, Reg: reg, Span: splitSpan})
	if err != nil {
		return err
	}
	splitSpan.End()
	levels := choice.Levels
	stats.Partitioned = true
	stats.PartitionLevel = levels[0]
	if len(levels) > 1 {
		stats.PartitionLevelB = levels[1]
	}
	stats.NumPartitions = choice.NumPartitions
	for _, n := range res.N {
		stats.NRows += n.Len()
	}

	cubeSpan := root.Child("partition.cube")
	defer cubeSpan.End()
	return runPartitions(res, levels, hier, opts, lim, pool, w, stats, cubeSpan)
}
