package bubst

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"cure/internal/hierarchy"
	"cure/internal/relation"
)

func flatHier(t testing.TB) *hierarchy.Schema {
	t.Helper()
	s, err := hierarchy.NewSchema(
		hierarchy.NewFlatDim("A", 12),
		hierarchy.NewFlatDim("B", 5),
		hierarchy.NewFlatDim("C", 3),
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
		ft.Append([]int32{int32(rng.Intn(12)), int32(rng.Intn(5)), int32(rng.Intn(3))}, []float64{float64(rng.Intn(30))})
	}
	return ft
}

func specs() []relation.AggSpec {
	return []relation.AggSpec{{Func: relation.AggSum, Measure: 0}, {Func: relation.AggCount}}
}

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

func TestBUBSTMatchesReference(t *testing.T) {
	hier := flatHier(t)
	ft := randomFact(t, 600, 23)
	sp := specs()
	dir := t.TempDir()
	st, err := Build(ft, hier, sp, Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if st.BSTs == 0 {
		t.Error("no BSTs found in a sparse cube")
	}
	eng, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	enum := eng.enum
	for _, id := range enum.AllNodes() {
		levels := enum.Decode(id, nil)
		want := reference(ft, sp, levels)
		got := map[string]bool{}
		if err := eng.NodeQuery(id, func(row Row) error {
			k := key(row.Dims)
			w, ok := want[k]
			if !ok {
				return fmt.Errorf("unexpected tuple %v", row.Dims)
			}
			if got[k] {
				return fmt.Errorf("duplicate tuple %v", row.Dims)
			}
			if w[0] != row.Aggrs[0] || w[1] != row.Aggrs[1] {
				return fmt.Errorf("tuple %v: %v want %v", row.Dims, row.Aggrs, w)
			}
			got[k] = true
			return nil
		}); err != nil {
			t.Fatalf("node %s: %v", enum.Name(id), err)
		}
		if len(got) != len(want) {
			t.Fatalf("node %s: %d tuples, want %d", enum.Name(id), len(got), len(want))
		}
	}
}

func TestBUBSTCondensesAgainstBUCCount(t *testing.T) {
	// The condensed cube must store strictly fewer rows than the full
	// cube whenever BSTs exist.
	hier := flatHier(t)
	ft := randomFact(t, 400, 8)
	sp := specs()
	st, err := Build(ft, hier, sp, Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	enum := hier
	_ = enum
	var full int64
	// Full cube tuple count: sum of distinct groups over all 8 nodes.
	for mask := 0; mask < 8; mask++ {
		levels := []int{(mask >> 0) & 1, (mask >> 1) & 1, (mask >> 2) & 1}
		full += int64(len(reference(ft, sp, levels)))
	}
	if st.Tuples >= full {
		t.Errorf("condensed rows %d not below full cube %d", st.Tuples, full)
	}
}

func TestBUBSTValidation(t *testing.T) {
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
