package query

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"cure/internal/core"
	"cure/internal/hierarchy"
	"cure/internal/lattice"
	"cure/internal/obsv"
	"cure/internal/relation"
)

// buildBlockCube builds a cube over ft, written to a fact file beside it
// for Verify, with small (32-row) blocks, so that the extents of the test
// table span many of them, and modified by mods.
func buildBlockCube(t *testing.T, ft *relation.FactTable, hier *hierarchy.Schema, mods ...func(*core.Options)) string {
	t.Helper()
	base := t.TempDir()
	factPath := filepath.Join(base, "fact.bin")
	if err := relation.WriteFactFile(factPath, ft); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(base, "cube")
	opts := core.Options{
		Dir: dir, FactPath: factPath, Hier: hier, AggSpecs: testAggSpecs(),
		ZoneBlockRows: 32,
	}
	for _, mod := range mods {
		mod(&opts)
	}
	if _, err := core.Build(opts); err != nil {
		t.Fatal(err)
	}
	return dir
}

func testAggSpecs() []relation.AggSpec {
	return []relation.AggSpec{{Func: relation.AggSum, Measure: 0}, {Func: relation.AggCount}}
}

// TestCompressedQueryEquivalence: a cube read through the block decode
// paths answers every node query like the brute-force group-by (Verify),
// and identically at C = 1, 4, 16 concurrent clients (an undersized
// decoded-block cache keeps evictions racing shared-block readers under
// -race).
func TestCompressedQueryEquivalence(t *testing.T) {
	for _, plus := range []bool{false, true} {
		t.Run(fmt.Sprintf("plus=%v", plus), func(t *testing.T) {
			var mods []func(*core.Options)
			if !plus {
				mods = append(mods, core.PlainLayout)
			}
			_, hier, ft := buildTestCube(t, mods...)
			reg := obsv.NewRegistry()
			eng, err := Open(buildBlockCube(t, ft, hier, mods...), Options{
				CacheFraction: 1, PinAggregates: true, Metrics: reg,
				DecodedCacheBytes: 64 << 10, // undersized: force evictions
			})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			rep, err := eng.Verify(0, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.OK() || rep.NodesChecked != len(eng.Enum().AllNodes()) {
				t.Fatalf("verified %d nodes: %v", rep.NodesChecked, rep.Errors)
			}
			checkBatchMatchesSequential(t, eng)
			snap := reg.Snapshot()
			if snap.Counters["query.bytes_decoded"] == 0 {
				t.Error("scans attributed no decoded bytes")
			}
			if snap.Counters["query.block_cache.hits"] == 0 {
				t.Error("repeated scans never hit the decoded-block cache")
			}
		})
	}
}

// TestV1ManifestRejected: the fixed-width format is retired. A directory
// whose manifest says version 1 must not open, and the error must say
// what to do about it.
func TestV1ManifestRejected(t *testing.T) {
	dir, _, _ := buildTestCube(t)
	v1 := `{"version": 1, "agg_specs": [{"Func": 0, "Measure": 0}], "nodes": {"0": {"nt_rows": 3}}}`
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(dir, Options{})
	if err == nil {
		t.Fatal("version-1 cube opened")
	}
	for _, want := range []string{"fixed-width", "retired", "rebuild"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

// TestExplainCompressedEstimates checks the EXPLAIN byte story: estimates
// come from the extents' block offsets (encoded bytes, not raw row
// widths), and ANALYZE actuals carry the decoded bytes that settle into
// the query.bytes_decoded counter.
func TestExplainCompressedEstimates(t *testing.T) {
	_, hier, ft := buildIndexedCube(t, false)
	dir := filepath.Join(t.TempDir(), "cube")
	if _, err := core.BuildFromTable(ft, core.Options{
		Dir: dir, Hier: hier,
		AggSpecs:      testAggSpecs(),
		ZoneBlockRows: 8,
	}); err != nil {
		t.Fatal(err)
	}
	reg := obsv.NewRegistry()
	eng, err := Open(dir, Options{CacheFraction: 1, PinAggregates: true, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	node := eng.Enum().Encode([]int{0, 0})
	preds := []Predicate{{Dim: 0, Level: 0, Lo: 5, Hi: 10}}
	before := reg.Snapshot().Counters
	plan, err := eng.Explain(Spec{Node: node, Where: preds}, true)
	if err != nil {
		t.Fatal(err)
	}
	after := reg.Snapshot().Counters

	for _, ext := range plan.Extents {
		if ext.EstBytes <= 0 {
			t.Errorf("extent %s/%d: est %d bytes", ext.Relation, ext.Node, ext.EstBytes)
		}
		nm, _ := eng.Manifest().NodeMeta(lattice.NodeID(ext.Node))
		if ext.Relation == "nt" && ext.EstBytes >= nm.NTCodec.RawBytes {
			t.Errorf("nt estimate %d not below raw extent size %d", ext.EstBytes, nm.NTCodec.RawBytes)
		}
	}
	io := plan.Actual.IO
	if io.BytesDecoded == 0 {
		t.Error("ANALYZE decoded no bytes")
	}
	if got := after["query.bytes_decoded"] - before["query.bytes_decoded"]; io.BytesDecoded != got {
		t.Errorf("bytes decoded: plan %d, counter delta %d", io.BytesDecoded, got)
	}
}

// TestBlockCacheDisabled pins the negative budget: the engine attaches
// no decoded-block cache, and every block read decodes.
func TestBlockCacheDisabled(t *testing.T) {
	_, hier, ft := buildTestCube(t)
	reg := obsv.NewRegistry()
	eng, err := Open(buildBlockCube(t, ft, hier), Options{
		CacheFraction: 1, PinAggregates: true, Metrics: reg,
		DecodedCacheBytes: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	queryAll(t, eng)
	queryAll(t, eng)
	snap := reg.Snapshot()
	if snap.Counters["query.block_cache.hits"] != 0 {
		t.Errorf("disabled cache recorded %d hits", snap.Counters["query.block_cache.hits"])
	}
	if snap.Counters["query.bytes_decoded"] == 0 {
		t.Error("scans attributed no decoded bytes")
	}
}

// TestBitmapTTRepeatQueryHitsBlockCache: a CURE+ bitmap TT is a block of
// tt.bin like any other, so a second identical node query over a plan
// path holding one reads and decodes no extent bytes at all.
func TestBitmapTTRepeatQueryHitsBlockCache(t *testing.T) {
	// 2,000 rows over 1,000 × 50 cells: most base groups are single rows,
	// so dense TT sets land at the finest nodes.
	hier, err := hierarchy.NewSchema(hierarchy.NewFlatDim("A", 1000), hierarchy.NewFlatDim("B", 50))
	if err != nil {
		t.Fatal(err)
	}
	ft := relation.NewFactTable(&relation.Schema{DimNames: []string{"A", "B"}, MeasureNames: []string{"M"}}, 2000)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		ft.Append([]int32{int32(rng.Intn(1000)), int32(rng.Intn(50))}, []float64{float64(rng.Intn(9))})
	}
	reg := obsv.NewRegistry()
	eng, err := Open(buildBlockCube(t, ft, hier), Options{
		CacheFraction: 1, PinAggregates: true, Metrics: reg, DecodedCacheBytes: 8 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	var bitmaps []int64
	for k, nm := range eng.Manifest().Nodes {
		if nm.TTCodec != nil && nm.TTCodec.Encodings["bitmap"] > 0 {
			id, _ := strconv.ParseInt(k, 10, 64)
			bitmaps = append(bitmaps, id)
		}
	}
	if len(bitmaps) == 0 {
		t.Fatal("the CURE+ cube holds no bitmap TT; the test is vacuous")
	}
	node := lattice.NodeID(slices.Min(bitmaps))
	query := func() (read, decoded int64) {
		before := reg.Snapshot().Counters
		if err := eng.Query(Spec{Node: node}, func(Row) error { return nil }); err != nil {
			t.Fatal(err)
		}
		after := reg.Snapshot().Counters
		return after["storage.read.bytes"] - before["storage.read.bytes"],
			after["storage.codec.bytes_decoded"] - before["storage.codec.bytes_decoded"]
	}
	if read, decoded := query(); read == 0 || decoded == 0 {
		t.Fatalf("first query of node %d read %d and decoded %d bytes: nothing was fetched", node, read, decoded)
	}
	if read, decoded := query(); read != 0 || decoded != 0 {
		t.Errorf("second query of node %d read %d and decoded %d extent bytes, want none", node, read, decoded)
	}
}
