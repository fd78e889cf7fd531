package buc

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"cure/internal/hierarchy"
	"cure/internal/lattice"
	"cure/internal/relation"
)

func flatHier(t testing.TB) *hierarchy.Schema {
	t.Helper()
	s, err := hierarchy.NewSchema(
		hierarchy.NewFlatDim("A", 10),
		hierarchy.NewFlatDim("B", 6),
		hierarchy.NewFlatDim("C", 4),
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func randomFact(t testing.TB, rows int, seed int64) *relation.FactTable {
	t.Helper()
	schema := &relation.Schema{DimNames: []string{"A", "B", "C"}, MeasureNames: []string{"M"}}
	ft := relation.NewFactTable(schema, rows)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < rows; i++ {
		ft.Append([]int32{int32(rng.Intn(10)), int32(rng.Intn(6)), int32(rng.Intn(4))}, []float64{float64(rng.Intn(50))})
	}
	return ft
}

func specs() []relation.AggSpec {
	return []relation.AggSpec{{Func: relation.AggSum, Measure: 0}, {Func: relation.AggCount}}
}

// reference computes one flat node by brute force.
func reference(ft *relation.FactTable, sp []relation.AggSpec, levels []int) map[string][]float64 {
	groups := map[string]*relation.Aggregator{}
	meas := make([]float64, len(ft.Measures))
	for r := 0; r < ft.Len(); r++ {
		var key strings.Builder
		for d, l := range levels {
			if l == 0 {
				fmt.Fprintf(&key, "%d|", ft.Dims[d][r])
			}
		}
		a, ok := groups[key.String()]
		if !ok {
			a = relation.NewAggregator(sp)
			groups[key.String()] = a
		}
		meas = ft.MeasureRow(r, meas)
		a.AddValues(meas)
	}
	out := map[string][]float64{}
	for k, a := range groups {
		out[k] = a.Values(nil)
	}
	return out
}

func key(dims []int32) string {
	var b strings.Builder
	for _, d := range dims {
		fmt.Fprintf(&b, "%d|", d)
	}
	return b.String()
}

func TestBUCBuildStats(t *testing.T) {
	hier := flatHier(t)
	ft := randomFact(t, 700, 5)
	st, err := Build(ft, hier, specs(), Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if st.Tuples == 0 || st.Bytes == 0 || st.Nodes != 8 {
		t.Fatalf("stats = %+v", st)
	}
	// BUC materializes every group of every node: the total tuple count
	// must be the sum over nodes of distinct-group counts.
	enum := lattice.NewEnum(hier)
	var want int64
	for _, id := range enum.AllNodes() {
		want += int64(len(reference(ft, specs(), enum.Decode(id, nil))))
	}
	if st.Tuples != want {
		t.Fatalf("Tuples = %d, want %d", st.Tuples, want)
	}
}

func TestBUCQueryAllNodes(t *testing.T) {
	hier := flatHier(t)
	ft := randomFact(t, 700, 5)
	sp := specs()
	dir := t.TempDir()
	if _, err := Build(ft, hier, sp, Options{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	eng, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	enum := lattice.NewEnum(hier)
	for _, id := range enum.AllNodes() {
		levels := enum.Decode(id, nil)
		want := reference(ft, sp, levels)
		got := 0
		if err := eng.NodeQuery(id, func(row Row) error {
			w, ok := want[key(row.Dims)]
			if !ok {
				return fmt.Errorf("unexpected tuple %v", row.Dims)
			}
			if w[0] != row.Aggrs[0] || w[1] != row.Aggrs[1] {
				return fmt.Errorf("tuple %v: %v want %v", row.Dims, row.Aggrs, w)
			}
			got++
			return nil
		}); err != nil {
			t.Fatalf("node %s: %v", enum.Name(id), err)
		}
		if got != len(want) {
			t.Fatalf("node %s: %d tuples, want %d", enum.Name(id), got, len(want))
		}
	}
}

func TestBUCIceberg(t *testing.T) {
	hier := flatHier(t)
	ft := randomFact(t, 700, 9)
	sp := specs()
	dir := t.TempDir()
	const min = 4
	if _, err := Build(ft, hier, sp, Options{Dir: dir, Iceberg: min}); err != nil {
		t.Fatal(err)
	}
	eng, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	enum := lattice.NewEnum(hier)
	for _, id := range enum.AllNodes() {
		levels := enum.Decode(id, nil)
		want := reference(ft, sp, levels)
		for k, v := range want {
			if v[1] < min {
				delete(want, k)
			}
		}
		got := 0
		if err := eng.NodeQuery(id, func(row Row) error {
			if _, ok := want[key(row.Dims)]; !ok {
				return fmt.Errorf("below-threshold tuple %v (%v)", row.Dims, row.Aggrs)
			}
			got++
			return nil
		}); err != nil {
			t.Fatalf("node %s: %v", enum.Name(id), err)
		}
		if got != len(want) {
			t.Fatalf("node %s: %d tuples, want %d", enum.Name(id), got, len(want))
		}
	}
}

func TestBUCValidation(t *testing.T) {
	hier := flatHier(t)
	ft := randomFact(t, 10, 1)
	if _, err := Build(ft, hier, specs(), Options{}); err == nil {
		t.Error("missing dir accepted")
	}
	if _, err := Build(ft, hier, nil, Options{Dir: t.TempDir()}); err == nil {
		t.Error("missing specs accepted")
	}
	if _, err := Open(t.TempDir()); err == nil {
		t.Error("empty dir opened")
	}
}

func TestBUCEmptyTable(t *testing.T) {
	hier := flatHier(t)
	ft := relation.NewFactTable(&relation.Schema{DimNames: []string{"A", "B", "C"}, MeasureNames: []string{"M"}}, 0)
	st, err := Build(ft, hier, specs(), Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if st.Tuples != 0 {
		t.Errorf("empty table produced %d tuples", st.Tuples)
	}
}
