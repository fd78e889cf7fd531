package query

import (
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"cure/internal/core"
	"cure/internal/hierarchy"
	"cure/internal/obsv"
	"cure/internal/relation"
)

// queryAll runs a node query over every lattice node.
func queryAll(t *testing.T, eng *Engine) {
	t.Helper()
	for _, id := range eng.Enum().AllNodes() {
		if err := eng.Query(Spec{Node: id}, func(Row) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
}

// cacheStats reads the fact store's hits and misses off the registry.
func cacheStats(reg *obsv.Registry) (hits, misses int64) {
	c := reg.Snapshot().Counters
	return c["query.cache.hits"], c["query.cache.misses"]
}

// TestCacheMetricsFullCache checks the registry's fact-store counters:
// with the full table cached a second pass is all hits and nothing is
// ever evicted.
func TestCacheMetricsFullCache(t *testing.T) {
	dir, _, _ := buildTestCube(t)
	reg := obsv.NewRegistry()
	eng, err := Open(dir, Options{CacheFraction: 1, PinAggregates: true, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	queryAll(t, eng)
	snap := reg.Snapshot()
	firstMisses := snap.Counters["query.cache.misses"]
	if firstMisses == 0 {
		t.Fatal("cold cache recorded no misses")
	}
	if snap.Counters["query.cache.evictions"] != 0 {
		t.Fatalf("full cache evicted %d pages", snap.Counters["query.cache.evictions"])
	}

	queryAll(t, eng)
	snap = reg.Snapshot()
	if snap.Counters["query.cache.misses"] != firstMisses {
		t.Fatalf("warm pass missed: %d → %d", firstMisses, snap.Counters["query.cache.misses"])
	}
	if snap.Counters["query.cache.hits"] == 0 {
		t.Fatal("warm pass recorded no hits")
	}

	// Query-level metrics ride along: one count per node query, rows and
	// latency observed.
	nodes := int64(len(eng.Enum().AllNodes()))
	if got := snap.Counters["query.node.count"]; got != 2*nodes {
		t.Fatalf("query.node.count = %d, want %d", got, 2*nodes)
	}
	if snap.Counters["query.rows"] == 0 {
		t.Fatal("query.rows not counted")
	}
	// Both the per-op and the all-ops latency histograms saw every query.
	for _, name := range []string{"query.node.latency_us", "query.latency_us"} {
		var lat *obsv.HistogramSnapshot
		for i := range snap.Histograms {
			if snap.Histograms[i].Name == name {
				lat = &snap.Histograms[i]
			}
		}
		if lat == nil || lat.Count != 2*nodes {
			t.Fatalf("%s histogram = %+v, want count %d", name, lat, 2*nodes)
		}
	}
}

// buildWideCube builds a cube whose finest level has ~2,500 groups over
// 3,000 rows, so the minimum source row-ids the tuples dereference spread
// across the whole fact file (a tiny cube keeps all minima in page 0 and
// a partial cache never evicts).
func buildWideCube(t *testing.T) string {
	t.Helper()
	hier, err := hierarchy.NewSchema(hierarchy.NewFlatDim("A", 50), hierarchy.NewFlatDim("B", 50))
	if err != nil {
		t.Fatal(err)
	}
	schema := &relation.Schema{DimNames: []string{"A", "B"}, MeasureNames: []string{"M"}}
	const rows = 3000
	ft := relation.NewFactTable(schema, rows)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < rows; i++ {
		ft.Append([]int32{int32(rng.Intn(50)), int32(rng.Intn(50))}, []float64{float64(rng.Intn(7))})
	}
	dir := filepath.Join(t.TempDir(), "cube")
	if _, err := core.BuildFromTable(ft, core.Options{
		Dir:      dir,
		Hier:     hier,
		AggSpecs: []relation.AggSpec{{Func: relation.AggSum, Measure: 0}, {Func: relation.AggCount}},
	}); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestCacheMetricsEviction checks that a cache smaller than the working
// set records evictions.
func TestCacheMetricsEviction(t *testing.T) {
	dir := buildWideCube(t)
	reg := obsv.NewRegistry()
	eng, err := Open(dir, Options{CacheFraction: 0.25, PinAggregates: true, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for pass := 0; pass < 3; pass++ {
		queryAll(t, eng)
	}
	snap := reg.Snapshot()
	if snap.Counters["query.cache.evictions"] == 0 {
		t.Fatal("undersized cache recorded no evictions")
	}
	if snap.Counters["query.cache.hits"] == 0 || snap.Counters["query.cache.misses"] == 0 {
		t.Fatalf("hits=%d misses=%d", snap.Counters["query.cache.hits"], snap.Counters["query.cache.misses"])
	}
}

// TestCacheMetricsDisabledCache checks that with caching off every access
// is a miss and nothing is stored or evicted.
func TestCacheMetricsDisabledCache(t *testing.T) {
	dir, _, _ := buildTestCube(t)
	reg := obsv.NewRegistry()
	eng, err := Open(dir, Options{CacheFraction: 0, PinAggregates: true, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for pass := 0; pass < 2; pass++ {
		queryAll(t, eng)
	}
	snap := reg.Snapshot()
	if snap.Counters["query.cache.hits"] != 0 {
		t.Fatalf("disabled cache recorded %d hits", snap.Counters["query.cache.hits"])
	}
	if snap.Counters["query.cache.evictions"] != 0 {
		t.Fatalf("disabled cache recorded %d evictions", snap.Counters["query.cache.evictions"])
	}
	if snap.Counters["query.cache.misses"] == 0 {
		t.Fatal("disabled cache recorded no misses")
	}
}

// TestQueryNilRegistry checks that the engine works without a registry —
// the zero-overhead default path — and answers like one with a registry.
func TestQueryNilRegistry(t *testing.T) {
	dir, _, _ := buildTestCube(t)
	eng, err := Open(dir, Options{CacheFraction: 1, PinAggregates: true})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	metered, err := Open(dir, Options{CacheFraction: 1, PinAggregates: true, Metrics: obsv.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer metered.Close()
	for _, id := range eng.Enum().AllNodes() {
		if got, want := collectSpec(t, eng, Spec{Node: id}), collectSpec(t, metered, Spec{Node: id}); !slices.Equal(got, want) {
			t.Fatalf("node %d: %v without a registry, %v with one", id, got, want)
		}
	}
}
