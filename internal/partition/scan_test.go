package partition

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"testing"

	"cure/internal/hierarchy"
	"cure/internal/obsv"
	"cure/internal/relation"
)

// tablesIdentical requires exact equality — same rows in the same order,
// same row-ids. The parallel pipeline promises byte-equal N at every
// worker count, so order-insensitive comparison would be too weak.
func tablesIdentical(t *testing.T, label string, a, b *relation.FactTable) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("%s: %d rows vs %d", label, a.Len(), b.Len())
	}
	if !reflect.DeepEqual(a.Dims, b.Dims) {
		t.Fatalf("%s: dim columns differ", label)
	}
	if !reflect.DeepEqual(a.Measures, b.Measures) {
		t.Fatalf("%s: measure columns differ", label)
	}
	if !reflect.DeepEqual(a.RowIDs, b.RowIDs) {
		t.Fatalf("%s: row-ids differ", label)
	}
}

// partitionRowSets loads every partition file into a sorted multiset of
// row strings (row-id included), one per partition.
func partitionRowSets(t *testing.T, paths []string) [][]string {
	t.Helper()
	out := make([][]string, len(paths))
	for i, p := range paths {
		pt, err := relation.ReadFactFile(p)
		if err != nil {
			t.Fatalf("read %s: %v", p, err)
		}
		rows := make([]string, pt.Len())
		for r := 0; r < pt.Len(); r++ {
			rows[r] = rowString(pt, r)
		}
		sort.Strings(rows)
		out[i] = rows
	}
	return out
}

func rowString(tbl *relation.FactTable, r int) string {
	s := fmt.Sprintf("id=%d", tbl.RowID(r))
	for d := range tbl.Dims {
		s += fmt.Sprintf(",d%d=%d", d, tbl.Dims[d][r])
	}
	for m := range tbl.Measures {
		s += fmt.Sprintf(",m%d=%v", m, tbl.Measures[m][r])
	}
	return s
}

// hierTestFact builds a fact table over a 3-level first dimension, a
// 2-level second, and a flat third — the "hierarchical" equivalence
// configuration.
func hierTestFact(t *testing.T, rows int) (string, *hierarchy.Schema) {
	t.Helper()
	m1 := hierarchy.BuildContiguousMap(24, 6)
	m2 := hierarchy.ComposeMaps(m1, hierarchy.BuildContiguousMap(6, 2))
	a, err := hierarchy.NewLinearDim("A", []string{"A0", "A1", "A2"}, []int32{24, 6, 2}, [][]int32{m1, m2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := hierarchy.NewLinearDim("B", []string{"B0", "B1"}, []int32{10, 2},
		[][]int32{hierarchy.BuildContiguousMap(10, 2)})
	if err != nil {
		t.Fatal(err)
	}
	hier, err := hierarchy.NewSchema(a, b, hierarchy.NewFlatDim("C", 4))
	if err != nil {
		t.Fatal(err)
	}
	schema := &relation.Schema{DimNames: []string{"A", "B", "C"}, MeasureNames: []string{"M", "Q"}}
	ft := relation.NewFactTable(schema, rows)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < rows; i++ {
		ft.Append(
			[]int32{int32(rng.Intn(24)), int32(rng.Intn(10)), int32(rng.Intn(4))},
			[]float64{float64(rng.Intn(50)), float64(rng.Intn(7))},
		)
	}
	path := filepath.Join(t.TempDir(), "fact.bin")
	if err := relation.WriteFactFile(path, ft); err != nil {
		t.Fatal(err)
	}
	return path, hier
}

// TestPartitionParallelEquivalence is the satellite equivalence matrix:
// P ∈ {1, 2, 8} (plus deliberately tiny batch/shard sizes to force many
// shards and partial batches) must yield identical nodes N_j — same
// groups, same order, same aggregates, same min row-ids — and identical
// per-partition row multisets with preserved row-ids, on a one-dimension
// prefix and on a pair.
func TestPartitionParallelEquivalence(t *testing.T) {
	configs := []struct {
		name   string
		fact   func(t *testing.T) (string, *hierarchy.Schema)
		specs  []relation.AggSpec
		choice Choice
	}{
		{"flat", func(t *testing.T) (string, *hierarchy.Schema) {
			p, h, _ := buildTestFact(t, 700)
			return p, h
		}, []relation.AggSpec{
			{Func: relation.AggSum, Measure: 0},
			{Func: relation.AggCount},
			{Func: relation.AggMin, Measure: 0},
		}, Choice{Levels: []int{0}, NumPartitions: 4}},
		{"hierarchical", func(t *testing.T) (string, *hierarchy.Schema) {
			return hierTestFact(t, 900)
		}, []relation.AggSpec{
			{Func: relation.AggSum, Measure: 0},
			{Func: relation.AggCount},
			{Func: relation.AggMin, Measure: 1},
			{Func: relation.AggMax, Measure: 0},
		}, Choice{Levels: []int{1}, NumPartitions: 3}},
		{"pair", func(t *testing.T) (string, *hierarchy.Schema) {
			return hierTestFact(t, 800)
		}, []relation.AggSpec{
			{Func: relation.AggSum, Measure: 0},
			{Func: relation.AggCount},
			{Func: relation.AggMax, Measure: 1},
		}, Choice{Levels: []int{1, 1}, NumPartitions: 5}},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			path, hier := cfg.fact(t)
			specs := cfg.specs
			base, err := PartitionScan(path, t.TempDir(), hier, specs, cfg.choice,
				ScanConfig{Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			if len(base.N) != len(cfg.choice.Levels) {
				t.Fatalf("%d in-memory nodes for a prefix of %d", len(base.N), len(cfg.choice.Levels))
			}
			baseRows := partitionRowSets(t, base.PartitionPaths)
			for _, par := range []int{1, 2, 8} {
				reg := obsv.NewRegistry()
				res, err := PartitionScan(path, t.TempDir(), hier, specs, cfg.choice,
					ScanConfig{Parallelism: par, batchRows: 37, shardRows: 111, Reg: reg})
				if err != nil {
					t.Fatalf("P=%d: %v", par, err)
				}
				for j := range base.N {
					tablesIdentical(t, fmt.Sprintf("P=%d node N_%d", par, j), base.N[j], res.N[j])
				}
				gotRows := partitionRowSets(t, res.PartitionPaths)
				if !reflect.DeepEqual(baseRows, gotRows) {
					t.Fatalf("P=%d: partition row multisets differ", par)
				}
				if g := reg.Gauge("partition.skew.max_rows").Value(); g <= 0 {
					t.Fatalf("P=%d: skew gauge not published (max_rows=%d)", par, g)
				}
			}
		})
	}
}

// explodingRow is a rowFunc that panics on the first row it sees.
func explodingRow(*relation.Batch, int, int64, *scanWorker, []*nodeHash) (int, error) {
	panic("row fold exploded")
}

// TestScanWorkerPanicKeepsContext: a panic inside a scan worker reaches
// the caller as an *obsv.PanicError that names the shard and its row
// range and carries the panicking worker's own stack, inline (P=1) and
// on a helper (P=2).
func TestScanWorkerPanicKeepsContext(t *testing.T) {
	path, _ := hierTestFact(t, 900)
	specs := []relation.AggSpec{{Func: relation.AggCount}}
	ctxRE := regexp.MustCompile(`^scan worker slot=\d+ shard=(\d+) rows=(\d+)-(\d+)$`)
	for _, p := range []int{1, 2} {
		fr, err := relation.OpenFactReader(path)
		if err != nil {
			t.Fatal(err)
		}
		got := func() (v any) {
			defer func() { v = recover() }()
			runScanPipeline(fr, ScanConfig{Parallelism: p, batchRows: 37, shardRows: 111}, nil, 1, specs, 3, explodingRow)
			return nil
		}()
		fr.Close()
		pe, ok := got.(*obsv.PanicError)
		if !ok {
			t.Fatalf("P=%d: recovered %T %v, want *obsv.PanicError", p, got, got)
		}
		m := ctxRE.FindStringSubmatch(pe.Context)
		if m == nil {
			t.Fatalf("P=%d: panic context %q names no shard and row range", p, pe.Context)
		}
		shard, _ := strconv.Atoi(m[1])
		if want := fmt.Sprintf("%d-%d", shard*111, min(shard*111+111, 900)); m[2]+"-"+m[3] != want {
			t.Fatalf("P=%d: shard %d reported rows %s-%s, want %s", p, shard, m[2], m[3], want)
		}
		if pe.Value != "row fold exploded" || !bytes.Contains(pe.Stack, []byte("partition.explodingRow")) {
			t.Fatalf("P=%d: value %v, stack lacks the panicking frame:\n%s", p, pe.Value, pe.Stack)
		}
	}
}

// TestPartitionRejectsNegativeCode: a corrupt fact row with a negative
// dimension code must fail the build with an explicit error instead of
// panicking on a negative partition index.
func TestPartitionRejectsNegativeCode(t *testing.T) {
	hier, err := hierarchy.NewSchema(hierarchy.NewFlatDim("A", 8), hierarchy.NewFlatDim("B", 3))
	if err != nil {
		t.Fatal(err)
	}
	schema := &relation.Schema{DimNames: []string{"A", "B"}, MeasureNames: []string{"M"}}
	ft := relation.NewFactTable(schema, 4)
	ft.Append([]int32{1, 0}, []float64{1})
	ft.Append([]int32{-3, 1}, []float64{2}) // corrupt
	path := filepath.Join(t.TempDir(), "fact.bin")
	if err := relation.WriteFactFile(path, ft); err != nil {
		t.Fatal(err)
	}
	specs := []relation.AggSpec{{Func: relation.AggCount}}
	for _, levels := range [][]int{{0}, {0, 0}} {
		if _, err := PartitionScan(path, t.TempDir(), hier, specs, Choice{Levels: levels, NumPartitions: 2}, ScanConfig{}); err == nil {
			t.Fatalf("negative dim code accepted with prefix levels %v", levels)
		}
	}
}

// TestNodeHashMatchesAggregator drives nodeHash.addRowWords and mergeFrom
// against the reference relation.Aggregator on random data.
func TestNodeHashMatchesAggregator(t *testing.T) {
	specs := []relation.AggSpec{
		{Func: relation.AggSum, Measure: 0},
		{Func: relation.AggCount},
		{Func: relation.AggMin, Measure: 1},
		{Func: relation.AggMax, Measure: 1},
	}
	const nDims = 2
	rng := rand.New(rand.NewSource(3))
	type row struct {
		dims []int32
		meas []float64
	}
	rows := make([]row, 2000)
	for i := range rows {
		rows[i] = row{
			dims: []int32{int32(rng.Intn(7)), int32(rng.Intn(5))},
			meas: []float64{float64(rng.Intn(100)) - 50, float64(rng.Intn(40)) - 20},
		}
	}
	// wordsOf packs a row's codes two per word, as the scan folds do.
	wordsOf := func(r row) []uint64 {
		w := make([]uint64, (nDims+1)/2)
		for d, v := range r.dims {
			w[d>>1] |= uint64(uint32(v)) << (uint(d&1) * 32)
		}
		return w
	}
	add := func(h *nodeHash, r row, rowid int64) {
		if h.addRowWords(wordsOf(r), r.meas, rowid) {
			h.repDims = append(h.repDims, r.dims...)
		}
	}
	// Reference: map of Aggregators in first-occurrence order.
	type ref struct {
		first  row
		agg    *relation.Aggregator
		minRow int64
	}
	want := map[string]*ref{}
	var order []string
	for i, r := range rows {
		k := fmt.Sprint(r.dims)
		g, ok := want[k]
		if !ok {
			g = &ref{first: r, agg: relation.NewAggregator(specs), minRow: int64(i)}
			want[k] = g
			order = append(order, k)
		}
		g.agg.AddValues(r.meas)
	}
	check := func(label string, h *nodeHash) {
		t.Helper()
		if h.n != len(order) {
			t.Fatalf("%s: %d groups, want %d", label, h.n, len(order))
		}
		for gi, k := range order {
			g := want[k]
			if !reflect.DeepEqual(h.recs[gi*h.st:gi*h.st+h.kw], wordsOf(g.first)) ||
				!reflect.DeepEqual(h.repDims[gi*nDims:(gi+1)*nDims], g.first.dims) {
				t.Fatalf("%s: group %d out of order", label, gi)
			}
			vals := g.agg.Values(nil)
			for i := range vals {
				if h.val(gi, i) != vals[i] {
					t.Fatalf("%s: group %d spec %d: %v want %v", label, gi, i, h.val(gi, i), vals[i])
				}
			}
			if h.count(gi) != g.agg.Count() {
				t.Fatalf("%s: group %d count %d want %d", label, gi, h.count(gi), g.agg.Count())
			}
			if h.minRow(gi) != g.minRow {
				t.Fatalf("%s: group %d minRow %d want %d", label, gi, h.minRow(gi), g.minRow)
			}
		}
	}
	// Single hash, sequential adds.
	h := newNodeHash(specs, nDims)
	for i, r := range rows {
		add(h, r, int64(i))
	}
	check("sequential", h)
	// Split into shards at awkward boundaries, merge in order.
	for _, nShards := range []int{2, 3, 7, 2000} {
		merged := newNodeHash(specs, nDims)
		per := (len(rows) + nShards - 1) / nShards
		for s := 0; s < nShards; s++ {
			lo, hi := s*per, min((s+1)*per, len(rows))
			sh := newNodeHash(specs, nDims)
			for i := lo; i < hi; i++ {
				add(sh, rows[i], int64(i))
			}
			merged.mergeFrom(sh)
		}
		check(fmt.Sprintf("merged-%d", nShards), merged)
	}
}

// TestScanPipelineEmptyFact: zero-row inputs must produce empty
// partitions and an empty N without tripping the shard math.
func TestScanPipelineEmptyFact(t *testing.T) {
	hier, err := hierarchy.NewSchema(hierarchy.NewFlatDim("A", 8))
	if err != nil {
		t.Fatal(err)
	}
	schema := &relation.Schema{DimNames: []string{"A"}, MeasureNames: []string{"M"}}
	ft := relation.NewFactTable(schema, 0)
	path := filepath.Join(t.TempDir(), "fact.bin")
	if err := relation.WriteFactFile(path, ft); err != nil {
		t.Fatal(err)
	}
	res, err := PartitionScan(path, t.TempDir(), hier, []relation.AggSpec{{Func: relation.AggCount}},
		Choice{Levels: []int{0}, NumPartitions: 2}, ScanConfig{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.N[0].Len() != 0 {
		t.Fatalf("empty fact produced %d N groups", res.N[0].Len())
	}
	for _, p := range res.PartitionPaths {
		pt, err := relation.ReadFactFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if pt.Len() != 0 {
			t.Fatalf("empty fact produced %d partition rows", pt.Len())
		}
	}
}
