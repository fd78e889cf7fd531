// Command curectl builds, inspects, and queries CURE cubes.
//
//	curectl build -fact apb.bin -hier apb.bin.hier.json -out cube/ [-dr] [-flat] [-mem 268435456]
//	curectl info  -cube cube/
//	curectl nodes -cube cube/
//	curectl query -cube cube/ -levels "Class,Retailer,ALL,ALL" [-limit 20]
//	curectl iceberg -cube cube/ -levels "Code,ALL,ALL,ALL" -min 100
//	curectl explain -cube cube/ -levels "Class,ALL,ALL,ALL" [-where ...] [-analyze] [-json]
//
// The hierarchy spec is JSON: {"dims":[{"name":"Product","levels":
// [{"name":"Code","card":6500},{"name":"Class","card":435}]}]}; roll-up
// maps default to contiguous ranges and can be given explicitly per level
// as "map":[...] (base code → level code).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"cure/internal/core"
	"cure/internal/csvload"
	"cure/internal/estimate"
	"cure/internal/hierarchy"
	"cure/internal/obsv"
	"cure/internal/query"
	"cure/internal/relation"
	"cure/internal/storage"
	"cure/internal/update"
)

// diag writes a human-readable diagnostic line to stderr. All status and
// summary output goes through it so stdout carries only machine-readable
// data (query rows, listings, -metrics-out '-' JSON).
func diag(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format, args...)
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "build":
		cmdBuild(os.Args[2:])
	case "info":
		cmdInfo(os.Args[2:])
	case "inspect":
		cmdInspect(os.Args[2:])
	case "nodes":
		cmdNodes(os.Args[2:])
	case "query":
		cmdQuery(os.Args[2:], false)
	case "iceberg":
		cmdQuery(os.Args[2:], true)
	case "explain":
		cmdExplain(os.Args[2:])
	case "import":
		cmdImport(os.Args[2:])
	case "update":
		cmdUpdate(os.Args[2:])
	case "verify":
		cmdVerify(os.Args[2:])
	case "diff":
		cmdDiff(os.Args[2:])
	case "estimate":
		cmdEstimate(os.Args[2:])
	case "doctor":
		cmdDoctor(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: curectl build|info|inspect|nodes|query|iceberg|explain|import|update|verify|diff|estimate|doctor [flags]")
	os.Exit(2)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "curectl: "+format+"\n", args...)
	os.Exit(1)
}

// hierSpec is the JSON hierarchy description.
type hierSpec struct {
	Dims []struct {
		Name   string `json:"name"`
		Levels []struct {
			Name string  `json:"name"`
			Card int32   `json:"card"`
			Map  []int32 `json:"map,omitempty"`
		} `json:"levels"`
	} `json:"dims"`
}

// loadHier reads a hierSpec file. A level's map is the step from the
// level below it: one code in [0, card) per member of that level.
func loadHier(path string) (*hierarchy.Schema, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec hierSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("parsing %s: %v", path, err)
	}
	var dims []*hierarchy.Dim
	for _, ds := range spec.Dims {
		if len(ds.Levels) == 0 {
			return nil, fmt.Errorf("dimension %q has no levels", ds.Name)
		}
		var names []string
		var cards []int32
		var maps [][]int32
		var acc []int32
		for i, ls := range ds.Levels {
			if ls.Card <= 0 {
				return nil, fmt.Errorf("dimension %q level %q: card %d", ds.Name, ls.Name, ls.Card)
			}
			names = append(names, ls.Name)
			cards = append(cards, ls.Card)
			if i == 0 {
				continue
			}
			step := ls.Map
			if step == nil {
				step = hierarchy.BuildContiguousMap(cards[i-1], ls.Card)
			}
			if len(step) != int(cards[i-1]) {
				return nil, fmt.Errorf("dimension %q level %q: map has %d entries, want one per %s member (%d)",
					ds.Name, ls.Name, len(step), names[i-1], cards[i-1])
			}
			for j, c := range step {
				if c < 0 || c >= ls.Card {
					return nil, fmt.Errorf("dimension %q level %q: map[%d] = %d outside [0,%d)", ds.Name, ls.Name, j, c, ls.Card)
				}
			}
			if acc == nil {
				acc = step
			} else {
				acc = hierarchy.ComposeMaps(acc, step)
			}
			maps = append(maps, acc)
		}
		d, err := hierarchy.NewLinearDim(ds.Name, names, cards, maps)
		if err != nil {
			return nil, err
		}
		dims = append(dims, d)
	}
	return hierarchy.NewSchema(dims...)
}

// parseAggs parses "-agg sum:0,count,min:1" into specs.
func parseAggs(s string, numMeasures int) []relation.AggSpec {
	if s == "" {
		specs := []relation.AggSpec{{Func: relation.AggSum, Measure: 0}, {Func: relation.AggCount}}
		if numMeasures == 0 {
			specs = specs[1:]
		}
		return specs
	}
	var specs []relation.AggSpec
	for _, part := range strings.Split(s, ",") {
		fields := strings.SplitN(strings.TrimSpace(part), ":", 2)
		var f relation.AggFunc
		switch strings.ToLower(fields[0]) {
		case "sum":
			f = relation.AggSum
		case "count":
			f = relation.AggCount
		case "min":
			f = relation.AggMin
		case "max":
			f = relation.AggMax
		default:
			fatalf("unknown aggregate %q", fields[0])
		}
		spec := relation.AggSpec{Func: f}
		if f != relation.AggCount {
			if len(fields) != 2 {
				fatalf("aggregate %q needs a measure index, e.g. sum:0", part)
			}
			m, err := strconv.Atoi(fields[1])
			if err != nil {
				fatalf("bad measure index in %q", part)
			}
			spec.Measure = m
		}
		if err := spec.Validate(numMeasures); err != nil {
			fatalf("%v", err)
		}
		specs = append(specs, spec)
	}
	return specs
}

func cmdBuild(args []string) {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	fact := fs.String("fact", "", "fact table file (required)")
	hierPath := fs.String("hier", "", "hierarchy spec JSON (required)")
	out := fs.String("out", "", "output cube directory (required)")
	agg := fs.String("agg", "", "aggregates, e.g. sum:0,count (default: sum of measure 0 + count)")
	mem := fs.Int64("mem", 0, "memory budget in bytes (0 = in-memory build)")
	pool := fs.Int("pool", 0, "signature pool capacity (0 = default 1,000,000; -1 disables)")
	dr := fs.Bool("dr", false, "CURE_DR: store NT dimension values inline")
	flat := fs.Bool("flat", false, "FCURE: flat cube at base levels only")
	iceberg := fs.Int64("iceberg", 0, "min-count threshold (iceberg cube)")
	par := fs.Int("parallelism", 0, "worker count for the build (0/1 = sequential; >1 cubes the partitions and N_j nodes of an out-of-core build concurrently and runs the partitioning scan and finalize across cores)")
	obs := obsv.RegisterFlags(fs)
	fs.Parse(args)
	if *fact == "" || *hierPath == "" || *out == "" {
		fatalf("build needs -fact, -hier and -out")
	}
	fr, err := relation.OpenFactReader(*fact)
	if err != nil {
		fatalf("%v", err)
	}
	numMeasures := fr.Schema().NumMeasures()
	fr.Close()
	if err := obs.Start(os.Stderr); err != nil {
		fatalf("%v", err)
	}
	hier, err := loadHier(*hierPath)
	if err != nil {
		fatalf("%v", err)
	}
	stats, err := core.Build(core.Options{
		Dir:          *out,
		FactPath:     *fact,
		Hier:         hier,
		AggSpecs:     parseAggs(*agg, numMeasures),
		MemoryBudget: *mem,
		PoolCapacity: *pool,
		DimsInline:   *dr,
		Flat:         *flat,
		Iceberg:      *iceberg,
		Parallelism:  *par,
		Metrics:      obs.Registry(),
	})
	if ferr := obs.Finish(); ferr != nil && err == nil {
		err = ferr
	}
	if err != nil {
		fatalf("%v", err)
	}
	mode := "in-memory"
	if stats.Partitioned {
		levels := []int{stats.PartitionLevel}
		if stats.PartitionLevelB >= 0 {
			levels = append(levels, stats.PartitionLevelB)
		}
		mode = fmt.Sprintf("partitioned on %s: %d partitions, N holds %d rows",
			prefixLevels(hier, levels), stats.NumPartitions, stats.NRows)
	}
	diag("built cube in %v (%s)\n", stats.Elapsed, mode)
	diag(" nodes materialized: %d (%d relations)\n", stats.NodesMaterialized, stats.Relations)
	diag(" trivial tuples:     %d\n", stats.TTs)
	diag(" signatures:         %d (NTs %d, CAT groups %d, format %v)\n",
		stats.Pool.Total, stats.Pool.NTs, stats.Pool.CatGroups, stats.CatFormat)
	diag(" cube size:          %d bytes (NT %d, TT %d, CAT %d, AGG %d)\n",
		stats.Sizes.Total(), stats.Sizes.NT, stats.Sizes.TT, stats.Sizes.CAT, stats.Sizes.Agg)
}

func openEngine(fs *flag.FlagSet, cube *string) *query.Engine {
	if *cube == "" {
		fatalf("missing -cube")
	}
	eng, err := query.OpenDefault(*cube)
	if err != nil {
		fatalf("%v", err)
	}
	return eng
}

func cmdInfo(args []string) {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	cube := fs.String("cube", "", "cube directory")
	fs.Parse(args)
	eng := openEngine(fs, cube)
	defer eng.Close()
	m := eng.Manifest()
	fmt.Printf("fact table:     %s (%d rows)\n", m.FactFile, m.FactRows)
	fmt.Printf("aggregates:     %d\n", m.NumAggrs())
	fmt.Printf("CAT format:     %v\n", m.CatFormat)
	fmt.Printf("variants:       dims-inline=%v iceberg=%d\n", m.DimsInline, m.Iceberg)
	if roots := eng.PlanRoots(); len(roots) > 0 {
		names := make([]string, len(roots))
		for i, id := range roots {
			names[i] = eng.Enum().Name(id)
		}
		fmt.Printf("plan roots:     %s\n", strings.Join(names, " "))
	}
	fmt.Printf("lattice nodes:  %d total, %d materialized\n", eng.Enum().NumNodes(), len(m.Nodes))
	fmt.Printf("AGGREGATES:     %d tuples\n", m.AggRows)
	fmt.Printf("size:           %d bytes (NT %d, TT %d, CAT %d, AGG %d)\n",
		m.Sizes.Total(), m.Sizes.NT, m.Sizes.TT, m.Sizes.CAT, m.Sizes.Agg)
	var dims []string
	for _, d := range eng.Hier().Dims {
		var lv []string
		for l := 0; l < d.AllLevel(); l++ {
			lv = append(lv, fmt.Sprintf("%s(%d)", d.LevelName(l), d.Card(l)))
		}
		dims = append(dims, fmt.Sprintf("%s: %s", d.Name, strings.Join(lv, " → ")))
	}
	fmt.Printf("schema:\n %s\n", strings.Join(dims, "\n "))
}

func cmdNodes(args []string) {
	fs := flag.NewFlagSet("nodes", flag.ExitOnError)
	cube := fs.String("cube", "", "cube directory")
	fs.Parse(args)
	eng := openEngine(fs, cube)
	defer eng.Close()
	enum := eng.Enum()
	if enum.NumNodes() > 10_000 {
		fatalf("lattice has %d nodes; listing only supported for small lattices", enum.NumNodes())
	}
	for _, id := range enum.AllNodes() {
		n, err := eng.NodeCount(id)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("%6d  %-40s %10d tuples\n", id, enum.Name(id), n)
	}
}

// parseLevels turns "Class,Retailer,ALL,ALL" (names or indices) into a
// level vector. Errors name the offending dimension or entry so a typo
// in -levels is directly actionable.
func parseLevels(hier *hierarchy.Schema, s string) ([]int, error) {
	parts := strings.Split(s, ",")
	if len(parts) != hier.NumDims() {
		return nil, fmt.Errorf("-levels needs %d comma-separated entries (one per dimension), got %d", hier.NumDims(), len(parts))
	}
	levels := make([]int, len(parts))
	for d, raw := range parts {
		raw = strings.TrimSpace(raw)
		dim := hier.Dims[d]
		if strings.EqualFold(raw, "ALL") || raw == "*" {
			levels[d] = dim.AllLevel()
			continue
		}
		if idx, err := strconv.Atoi(raw); err == nil && idx >= 0 && idx <= dim.AllLevel() {
			levels[d] = idx
			continue
		}
		found := -1
		for l := 0; l < dim.AllLevel(); l++ {
			if strings.EqualFold(dim.LevelName(l), raw) {
				found = l
				break
			}
		}
		if found < 0 {
			return nil, fmt.Errorf("dimension %s has no level %q", dim.Name, raw)
		}
		levels[d] = found
	}
	return levels, nil
}

// parseWhere turns "Product.Class=3..7,Channel.Base=2" into predicates.
// Each clause is dim.level=lo or dim.level=lo..hi; dimension and level
// accept names or indices, codes are numeric.
func parseWhere(hier *hierarchy.Schema, s string) ([]query.Predicate, error) {
	if s == "" {
		return nil, nil
	}
	findDim := func(raw string) (int, error) {
		if idx, err := strconv.Atoi(raw); err == nil && idx >= 0 && idx < hier.NumDims() {
			return idx, nil
		}
		for d, dim := range hier.Dims {
			if strings.EqualFold(dim.Name, raw) {
				return d, nil
			}
		}
		return -1, fmt.Errorf("-where: unknown dimension %q", raw)
	}
	findLevel := func(d int, raw string) (int, error) {
		dim := hier.Dims[d]
		if idx, err := strconv.Atoi(raw); err == nil && idx >= 0 && idx <= dim.AllLevel() {
			return idx, nil
		}
		for l := 0; l <= dim.AllLevel(); l++ {
			if strings.EqualFold(dim.LevelName(l), raw) {
				return l, nil
			}
		}
		return -1, fmt.Errorf("-where: dimension %s has no level %q", dim.Name, raw)
	}
	var preds []query.Predicate
	for _, clause := range strings.Split(s, ",") {
		clause = strings.TrimSpace(clause)
		target, rng, ok := strings.Cut(clause, "=")
		if !ok {
			return nil, fmt.Errorf("-where: clause %q is not dim.level=lo[..hi]", clause)
		}
		dimRaw, levelRaw, ok := strings.Cut(strings.TrimSpace(target), ".")
		if !ok {
			return nil, fmt.Errorf("-where: clause %q names no level (want dim.level=...)", clause)
		}
		d, err := findDim(strings.TrimSpace(dimRaw))
		if err != nil {
			return nil, err
		}
		level, err := findLevel(d, strings.TrimSpace(levelRaw))
		if err != nil {
			return nil, err
		}
		loRaw, hiRaw, ranged := strings.Cut(strings.TrimSpace(rng), "..")
		lo, err := strconv.ParseInt(strings.TrimSpace(loRaw), 10, 32)
		if err != nil {
			return nil, fmt.Errorf("-where: bad code %q in %q", loRaw, clause)
		}
		hi := lo
		if ranged {
			if hi, err = strconv.ParseInt(strings.TrimSpace(hiRaw), 10, 32); err != nil {
				return nil, fmt.Errorf("-where: bad code %q in %q", hiRaw, clause)
			}
		}
		preds = append(preds, query.Predicate{Dim: d, Level: level, Lo: int32(lo), Hi: int32(hi)})
	}
	return preds, nil
}

// querySpec builds the one query.Spec the query, iceberg and explain
// subcommands run: the node of a -levels expression, the -where
// predicates, and an iceberg threshold (0 for none). The node's levels
// are returned alongside.
func querySpec(eng *query.Engine, levelsExpr, whereExpr string, minCount float64) (query.Spec, []int, error) {
	levels, err := parseLevels(eng.Hier(), levelsExpr)
	if err != nil {
		return query.Spec{}, nil, err
	}
	preds, err := parseWhere(eng.Hier(), whereExpr)
	if err != nil {
		return query.Spec{}, nil, err
	}
	return query.Spec{Node: eng.Enum().Encode(levels), Where: preds, MinCount: minCount}, levels, nil
}

func cmdQuery(args []string, iceberg bool) {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	cube := fs.String("cube", "", "cube directory")
	levelsFlag := fs.String("levels", "", "one level per dimension, by name/index/ALL")
	limit := fs.Int("limit", 20, "max rows to print (0 = all)")
	minCount := fs.Float64("min", 1, "iceberg: HAVING count(*) > min")
	dictPath := fs.String("dict", "", "dictionary JSON from 'curectl import' to decode base-level codes")
	whereFlag := fs.String("where", "", `selection clauses "dim.level=lo[..hi]", comma-separated (dim/level by name or index, codes numeric)`)
	noIndex := fs.Bool("no-index", false, "disable zone-map block pruning (full extent scans)")
	obs := obsv.RegisterFlags(fs)
	fs.Parse(args)
	if *cube == "" {
		fatalf("missing -cube")
	}
	eng, err := query.Open(*cube, query.Options{CacheFraction: 1, PinAggregates: true, Metrics: obs.Registry(), Queries: obs.Queries(), NoIndex: *noIndex})
	if err != nil {
		fatalf("%v", err)
	}
	defer eng.Close()
	if *levelsFlag == "" {
		fatalf("missing -levels")
	}
	threshold := 0.0
	if iceberg {
		threshold = *minCount
	}
	spec, levels, err := querySpec(eng, *levelsFlag, *whereFlag, threshold)
	if err != nil {
		fatalf("%v", err)
	}
	id := spec.Node
	if err := obs.Start(os.Stderr); err != nil {
		fatalf("%v", err)
	}
	diag("node %d (%s)\n", id, eng.Enum().Name(id))

	// Optional dictionary decoding: base-level codes print as their
	// original strings (coarser levels have no dictionary entries).
	var dict *csvload.Dictionary
	if *dictPath != "" {
		var err error
		if dict, err = csvload.LoadDictionary(*dictPath); err != nil {
			fatalf("%v", err)
		}
	}
	hier := eng.Hier()
	active := make([]int, 0, hier.NumDims())
	for d, l := range levels {
		if !hier.Dims[d].IsAll(l) {
			active = append(active, d)
		}
	}
	renderDim := func(i int, code int32) string {
		d := active[i]
		if dict != nil && levels[d] == 0 && d < len(dict.Dims) {
			if v := dict.Dims[d].Value(code); v != "" {
				return v
			}
		}
		return fmt.Sprintf("%d", code)
	}
	printed := 0
	total := 0
	emit := func(row query.Row) error {
		total++
		if *limit == 0 || printed < *limit {
			printed++
			cells := make([]string, 0, len(row.Dims)+len(row.Aggrs))
			for i, d := range row.Dims {
				cells = append(cells, renderDim(i, d))
			}
			for _, a := range row.Aggrs {
				cells = append(cells, fmt.Sprintf("%g", a))
			}
			fmt.Println(" " + strings.Join(cells, "\t"))
		}
		return nil
	}
	err = eng.Query(spec, emit)
	if ferr := obs.Finish(); ferr != nil && err == nil {
		err = ferr
	}
	if err != nil {
		fatalf("%v", err)
	}
	if printed < total {
		diag(" … and %d more rows\n", total-printed)
	}
	diag("%d rows\n", total)
}

// cmdExplain plans (and with -analyze, runs) one node query and renders
// the plan: extents in execution order, zone-map pruning verdicts with
// the kept row ranges, access paths, and estimated vs actual rows and
// bytes.
func cmdExplain(args []string) {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	cube := fs.String("cube", "", "cube directory")
	levelsFlag := fs.String("levels", "", "one level per dimension, by name/index/ALL")
	whereFlag := fs.String("where", "", `selection clauses "dim.level=lo[..hi]", comma-separated`)
	analyze := fs.Bool("analyze", false, "run the query and report actual rows, time, and I/O")
	asJSON := fs.Bool("json", false, "emit the plan as JSON instead of a tree")
	noIndex := fs.Bool("no-index", false, "disable zone-map block pruning (full extent scans)")
	obs := obsv.RegisterFlags(fs)
	fs.Parse(args)
	if *cube == "" {
		fatalf("missing -cube")
	}
	if *levelsFlag == "" {
		fatalf("missing -levels")
	}
	eng, err := query.Open(*cube, query.Options{CacheFraction: 1, PinAggregates: true, Metrics: obs.Registry(), Queries: obs.Queries(), NoIndex: *noIndex})
	if err != nil {
		fatalf("%v", err)
	}
	defer eng.Close()
	spec, _, err := querySpec(eng, *levelsFlag, *whereFlag, 0)
	if err != nil {
		fatalf("%v", err)
	}
	if err := obs.Start(os.Stderr); err != nil {
		fatalf("%v", err)
	}
	plan, err := eng.Explain(spec, *analyze)
	if ferr := obs.Finish(); ferr != nil && err == nil {
		err = ferr
	}
	if err != nil {
		fatalf("%v", err)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", " ")
		if err := enc.Encode(plan); err != nil {
			fatalf("%v", err)
		}
		return
	}
	renderPlan(plan)
}

// renderPlan prints a plan as a tree on stdout.
func renderPlan(p *query.Plan) {
	fmt.Printf("EXPLAIN %s node %d (%s)\n", p.Op, p.Node, p.NodeName)
	if p.Where != "" {
		fmt.Printf(" where %s\n", p.Where)
	}
	if p.NoIndex {
		fmt.Println(" zone-map pruning disabled (-no-index)")
	}
	for i, ext := range p.Extents {
		branch := "├─"
		if i == len(p.Extents)-1 {
			branch = "└─"
		}
		fmt.Printf(" %s %-3s node %-6d %-28s rows %-8d scan %-8d %-11s est %d B\n",
			branch, ext.Relation, ext.Node, ext.NodeName, ext.Rows, ext.ScanRows, ext.Access, ext.EstBytes)
		if z := ext.Zones; z != nil {
			cont := "│"
			if i == len(p.Extents)-1 {
				cont = " "
			}
			fmt.Printf(" %s    zones: %d blocks, %d kept, %d skipped", cont, z.Blocks, z.Kept, z.Skipped)
			if z.Narrowed {
				fmt.Printf(" (sorted-slot narrowing)")
			}
			if len(z.Ranges) > 0 && len(z.Ranges) <= 8 {
				fmt.Printf("; ranges")
				for _, rg := range z.Ranges {
					fmt.Printf(" [%d,%d)", rg.Lo, rg.Hi)
				}
			}
			fmt.Println()
		}
	}
	fmt.Printf(" estimate: %d rows scanned, %d bytes read\n", p.EstScanRows, p.EstBytes)
	if a := p.Actual; a != nil {
		fmt.Printf(" actual (query %d): %d rows in %dus\n", p.QueryID, a.Rows, a.ElapsedUs)
		fmt.Printf("  io: %d bytes in %d reads; cache %d hits / %d faults", a.IO.BytesRead, a.IO.Reads, a.IO.CacheHits, a.IO.PagesFaulted)
		if a.IO.BytesDecoded > 0 {
			fmt.Printf("; %d bytes decoded", a.IO.BytesDecoded)
		}
		fmt.Println()
		fmt.Printf("  scanned: tt %d, nt %d, cat %d; zones kept %d, skipped %d\n",
			a.IO.TTScanned, a.IO.NTScanned, a.IO.CATScanned, a.IO.ZoneBlocksKept, a.IO.ZoneBlocksSkipped)
	}
}

// cmdImport loads a CSV file into the binary fact format, writing the
// dictionaries and a flat hierarchy template next to it.
func cmdImport(args []string) {
	fs := flag.NewFlagSet("import", flag.ExitOnError)
	csvPath := fs.String("csv", "", "input CSV file with a header row (required)")
	dims := fs.String("dims", "", "comma-separated dimension column names (required)")
	measures := fs.String("measures", "", "comma-separated measure column names")
	out := fs.String("out", "", "output fact file (required)")
	sep := fs.String("sep", ",", "field separator")
	fs.Parse(args)
	if *csvPath == "" || *dims == "" || *out == "" {
		fatalf("import needs -csv, -dims and -out")
	}
	spec := csvload.Spec{DimCols: splitList(*dims), MeasureCols: splitList(*measures)}
	if r := []rune(*sep); len(r) == 1 {
		spec.Comma = r[0]
	}
	ft, dict, err := csvload.LoadFile(*csvPath, spec)
	if err != nil {
		fatalf("%v", err)
	}
	if err := relation.WriteFactFile(*out, ft); err != nil {
		fatalf("%v", err)
	}
	if err := dict.Save(*out + ".dict.json"); err != nil {
		fatalf("%v", err)
	}
	// Flat hierarchy template the user can extend with levels.
	type levelSpec struct {
		Name string `json:"name"`
		Card int32  `json:"card"`
	}
	type dimSpec struct {
		Name   string      `json:"name"`
		Levels []levelSpec `json:"levels"`
	}
	tmpl := struct {
		Dims []dimSpec `json:"dims"`
	}{}
	for _, d := range dict.Dims {
		tmpl.Dims = append(tmpl.Dims, dimSpec{Name: d.Name, Levels: []levelSpec{{Name: d.Name, Card: d.Card()}}})
	}
	data, err := json.MarshalIndent(tmpl, "", " ")
	if err != nil {
		fatalf("%v", err)
	}
	if err := os.WriteFile(*out+".hier.json", data, 0o644); err != nil {
		fatalf("%v", err)
	}
	diag("imported %d rows into %s (+ .dict.json, .hier.json)\n", ft.Len(), *out)
	for _, d := range dict.Dims {
		diag(" %-20s %6d distinct values\n", d.Name, d.Card())
	}
}

// cmdUpdate re-cubes an existing cube's fact table extended by a delta
// fact file into a refreshed cube directory, then appends the delta to the
// fact table.
func cmdUpdate(args []string) {
	fs := flag.NewFlagSet("update", flag.ExitOnError)
	cube := fs.String("cube", "", "existing cube directory (required)")
	out := fs.String("out", "", "refreshed cube directory (required)")
	deltaPath := fs.String("delta", "", "delta fact file (required)")
	fs.Parse(args)
	if *cube == "" || *out == "" || *deltaPath == "" {
		fatalf("update needs -cube, -out and -delta")
	}
	delta, err := relation.ReadFactFile(*deltaPath)
	if err != nil {
		fatalf("%v", err)
	}
	stats, err := update.Apply(update.Options{OldDir: *cube, NewDir: *out, Delta: delta})
	if err != nil {
		fatalf("%v", err)
	}
	diag("applied %d delta rows in %v\n", stats.DeltaRows, stats.Elapsed)
	diag(" refreshed cube: %d TTs, %d bytes\n", stats.TTs, stats.Sizes.Total())
}

// cmdVerify recomputes sampled nodes from the fact table and compares
// them against the cube.
func cmdVerify(args []string) {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	cube := fs.String("cube", "", "cube directory (required)")
	sample := fs.Int("sample", 0, "number of random nodes to verify (0 = all)")
	seed := fs.Int64("seed", 1, "sampling seed")
	files := fs.Bool("files", false, "also verify relation-file checksums")
	fs.Parse(args)
	if *files {
		r, err := storage.OpenReader(*cube)
		if err != nil {
			fatalf("%v", err)
		}
		bad, err := r.VerifyChecksums()
		r.Close()
		if err != nil {
			fatalf("%v", err)
		}
		if len(bad) > 0 {
			diag("CORRUPTED files: %v\n", bad)
			os.Exit(1)
		}
		diag("file checksums OK\n")
	}
	eng := openEngine(fs, cube)
	defer eng.Close()
	rep, err := eng.Verify(*sample, *seed)
	if err != nil {
		fatalf("%v", err)
	}
	diag("verified %d nodes, %d tuples\n", rep.NodesChecked, rep.TuplesChecked)
	if rep.OK() {
		diag("cube is consistent with its fact table\n")
		return
	}
	for _, e := range rep.Errors {
		diag(" MISMATCH: %v\n", e)
	}
	os.Exit(1)
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

// cmdDiff compares two cube directories on their query answers.
func cmdDiff(args []string) {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	a := fs.String("a", "", "first cube directory (required)")
	b := fs.String("b", "", "second cube directory (required)")
	fs.Parse(args)
	if *a == "" || *b == "" {
		fatalf("diff needs -a and -b")
	}
	ea, err := query.OpenDefault(*a)
	if err != nil {
		fatalf("%v", err)
	}
	defer ea.Close()
	eb, err := query.OpenDefault(*b)
	if err != nil {
		fatalf("%v", err)
	}
	defer eb.Close()
	rep, err := query.Diff(ea, eb)
	if err != nil {
		fatalf("%v", err)
	}
	diag("compared %d nodes (%d vs %d tuples)\n", rep.NodesCompared, rep.TuplesA, rep.TuplesB)
	if rep.Equal() {
		diag("cubes are query-equivalent\n")
		return
	}
	for _, d := range rep.Differences {
		diag(" DIFF: %v\n", d)
	}
	os.Exit(1)
}

// prefixLevels names a partitioning prefix: "Product level 1, Customer
// level 0".
func prefixLevels(hier *hierarchy.Schema, levels []int) string {
	names := make([]string, len(levels))
	for j, l := range levels {
		names[j] = fmt.Sprintf("%s level %d", hier.Dims[j].Name, l)
	}
	return strings.Join(names, ", ")
}

// cmdEstimate predicts cube sizes and the partitioning plan without
// building anything.
func cmdEstimate(args []string) {
	fs := flag.NewFlagSet("estimate", flag.ExitOnError)
	hierPath := fs.String("hier", "", "hierarchy spec JSON (required)")
	rows := fs.Int64("rows", 0, "fact-table row count (required)")
	measures := fs.Int("measures", 1, "number of measure columns")
	aggs := fs.Int("aggs", 2, "number of cube aggregates")
	mem := fs.Int64("mem", 0, "memory budget in bytes (0 = unlimited)")
	top := fs.Int("top", 10, "largest nodes to list")
	fs.Parse(args)
	if *hierPath == "" || *rows <= 0 {
		fatalf("estimate needs -hier and -rows")
	}
	hier, err := loadHier(*hierPath)
	if err != nil {
		fatalf("%v", err)
	}
	schema := &relation.Schema{}
	for _, d := range hier.Dims {
		schema.DimNames = append(schema.DimNames, d.Name)
	}
	for i := 0; i < *measures; i++ {
		schema.MeasureNames = append(schema.MeasureNames, fmt.Sprintf("M%d", i))
	}
	plan, err := estimate.BuildPlan(hier, schema, *rows, *mem, *aggs)
	if err != nil {
		fatalf("%v", err)
	}
	est := plan.Estimate
	fmt.Printf("fact table: %d rows × %d B = %d bytes\n", *rows, plan.RowBytes, plan.TableBytes)
	fmt.Printf("lattice:    %d nodes\n", len(est.Nodes))
	fmt.Printf("expected cube tuples:        %.3g (uncondensed)\n", est.FullTuples)
	fmt.Printf("expected non-trivial tuples: %.3g\n", est.AggregatedTuples)
	fmt.Printf("expected size: %.3g bytes uncondensed, ≥%.3g bytes condensed (CURE)\n", est.FullBytes, est.CondensedBytes)
	switch {
	case plan.InMemory:
		fmt.Println("strategy: in-memory build")
	case plan.ChoiceErr != "":
		fmt.Printf("strategy: partitioning infeasible — %s\n", plan.ChoiceErr)
	default:
		c := plan.Choice
		fmt.Printf("strategy: partition on %s → %d partitions of ≈%d bytes", prefixLevels(hier, c.Levels), c.NumPartitions, c.PartitionBytes)
		for j, n := range c.NBytes {
			fmt.Printf(", |N_%d| ≈ %d bytes", j, n)
		}
		fmt.Println()
	}
	fmt.Printf("largest nodes:\n")
	for i, n := range est.Nodes {
		if i >= *top {
			break
		}
		fmt.Printf(" %-40s %12.0f tuples (%.0f%% trivial)\n", n.Name, n.Tuples, n.TrivialFraction*100)
	}
}
