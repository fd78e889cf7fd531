package csvload

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cure/internal/core"
	"cure/internal/hierarchy"
	"cure/internal/query"
	"cure/internal/relation"
)

const sampleCSV = `date,city,product,qty,price
2024-01-05,London,apples,3,1.5
2024-01-09,Paris,pears,2,2.0
2024-02-11,London,apples,1,1.5
2024-02-12,Berlin,plums,5,0.5
2024-03-01,Paris,apples,4,1.5
`

func TestLoadBasics(t *testing.T) {
	ft, dict, err := Load(strings.NewReader(sampleCSV), Spec{
		DimCols:     []string{"city", "product"},
		MeasureCols: []string{"qty", "price"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ft.Len() != 5 {
		t.Fatalf("rows = %d", ft.Len())
	}
	if len(dict.Dims) != 2 {
		t.Fatalf("dicts = %d", len(dict.Dims))
	}
	city := dict.Dims[0]
	if city.Card() != 3 {
		t.Errorf("city card = %d", city.Card())
	}
	// First-seen order.
	if city.Value(0) != "London" || city.Value(1) != "Paris" || city.Value(2) != "Berlin" {
		t.Errorf("city values = %v", city.Values)
	}
	if c, ok := city.index["Paris"]; !ok || c != 1 {
		t.Errorf("code of Paris = %d,%v", c, ok)
	}
	if _, ok := city.index["Tokyo"]; ok {
		t.Error("unknown value resolved")
	}
	if city.Value(99) != "" {
		t.Error("out-of-range Value")
	}
	// Row 3 (Berlin plums): dims (2, 2), measures (5, 0.5).
	if ft.Dims[0][3] != 2 || ft.Dims[1][3] != 2 || ft.Measures[0][3] != 5 || ft.Measures[1][3] != 0.5 {
		t.Errorf("row 3 = %v %v %v", ft.DimRow(3, nil), ft.Measures[0][3], ft.Measures[1][3])
	}
}

func TestLoadErrors(t *testing.T) {
	if _, _, err := Load(strings.NewReader(sampleCSV), Spec{}); err == nil {
		t.Error("no dims accepted")
	}
	if _, _, err := Load(strings.NewReader(sampleCSV), Spec{DimCols: []string{"nope"}}); err == nil {
		t.Error("unknown dim column accepted")
	}
	if _, _, err := Load(strings.NewReader(sampleCSV), Spec{DimCols: []string{"city"}, MeasureCols: []string{"nope"}}); err == nil {
		t.Error("unknown measure column accepted")
	}
	bad := "a,b\nx,notanumber\n"
	if _, _, err := Load(strings.NewReader(bad), Spec{DimCols: []string{"a"}, MeasureCols: []string{"b"}}); err == nil {
		t.Error("bad float accepted")
	}
	missing := "a,b\nx,\n"
	if _, _, err := Load(strings.NewReader(missing), Spec{DimCols: []string{"a"}, MeasureCols: []string{"b"}}); err == nil {
		t.Error("empty measure accepted without AllowMissingMeasures")
	}
	ft, _, err := Load(strings.NewReader(missing), Spec{DimCols: []string{"a"}, MeasureCols: []string{"b"}, AllowMissingMeasures: true})
	if err != nil {
		t.Fatal(err)
	}
	if ft.Measures[0][0] != 0 {
		t.Error("missing measure not zeroed")
	}
}

func TestDictionarySaveLoad(t *testing.T) {
	_, dict, err := Load(strings.NewReader(sampleCSV), Spec{DimCols: []string{"city"}})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "dict.json")
	if err := dict.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadDictionary(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Dims[0].Value(2) != "Berlin" {
		t.Errorf("round-tripped dict = %v", back.Dims[0].Values)
	}
	if c := back.Dims[0].add("London"); c != 0 || back.Dims[0].Card() != 3 {
		t.Error("index not rebuilt after load")
	}
	if _, err := LoadDictionary(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Error("missing file accepted")
	}
}

// deriveDim builds a hierarchy dimension over a base dictionary: level
// i+1 classifies each base value (e.g. "2024-03-15" → "2024-03") into a
// member of its own dictionary, and Finalize holds the levels to a
// consistent roll-up.
func deriveDim(base *DimDict, names []string, classify ...func(string) string) (*hierarchy.Dim, []*DimDict, error) {
	dim := &hierarchy.Dim{Name: base.Name, Levels: []hierarchy.Level{{Name: base.Name, Card: base.Card()}}}
	dicts := []*DimDict{base}
	for li, f := range classify {
		level := &DimDict{Name: names[li]}
		m := make([]int32, base.Card())
		for code := range m {
			m[code] = level.add(f(base.Value(int32(code))))
		}
		dim.Levels[li].RollsUpTo = []int{li + 1}
		dim.Levels = append(dim.Levels, hierarchy.Level{Name: names[li], Card: level.Card(), Map: m})
		dicts = append(dicts, level)
	}
	return dim, dicts, dim.Finalize()
}

// TestBuildDimDateHierarchy: a date hierarchy derived from an imported
// dictionary cubes the imported table, and the month node answers "qty
// per month" through the level dictionaries.
func TestBuildDimDateHierarchy(t *testing.T) {
	ft, dict, err := Load(strings.NewReader(sampleCSV), Spec{
		DimCols:     []string{"date", "city"},
		MeasureCols: []string{"qty"},
	})
	if err != nil {
		t.Fatal(err)
	}
	dateDim, dicts, err := deriveDim(dict.Dims[0], []string{"month", "year"},
		func(v string) string { return v[:7] },
		func(v string) string { return v[:4] })
	if err != nil {
		t.Fatal(err)
	}
	if dateDim.NumLevels() != 4 { // date, month, year, ALL
		t.Fatalf("levels = %d", dateDim.NumLevels())
	}
	if dateDim.Card(1) != 3 { // 2024-01, 2024-02, 2024-03
		t.Errorf("month card = %d", dateDim.Card(1))
	}
	if dateDim.Card(2) != 1 {
		t.Errorf("year card = %d", dateDim.Card(2))
	}
	if dicts[1].Value(dateDim.MapCode(0, 1)) != "2024-01" {
		t.Errorf("month of first date = %q", dicts[1].Value(dateDim.MapCode(0, 1)))
	}
	if !dateDim.FactorsThrough(1, 2) {
		t.Error("derived hierarchy does not factor")
	}

	// End to end: cube the imported table with the derived hierarchy and
	// answer "qty per month".
	hier, err := hierarchy.NewSchema(dateDim, hierarchy.NewFlatDim("city", dict.Dims[1].Card()))
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "cube")
	if _, err := core.BuildFromTable(ft, core.Options{
		Dir: dir, Hier: hier,
		AggSpecs: []relation.AggSpec{{Func: relation.AggSum, Measure: 0}},
	}); err != nil {
		t.Fatal(err)
	}
	eng, err := query.OpenDefault(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	monthNode := eng.Enum().Encode([]int{1, 1}) // month × ALL
	got := map[string]float64{}
	if err := eng.Query(query.Spec{Node: monthNode}, func(row query.Row) error {
		got[dicts[1].Value(row.Dims[0])] = row.Aggrs[0]
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"2024-01": 5, "2024-02": 6, "2024-03": 4}
	for m, q := range want {
		if got[m] != q {
			t.Errorf("month %s qty = %v, want %v", m, got[m], q)
		}
	}
}

// TestBuildDimRejectsInconsistentLevels: levels derived so that one
// level-1 member splits across two level-2 members are not a hierarchy.
func TestBuildDimRejectsInconsistentLevels(t *testing.T) {
	base := &DimDict{Name: "x", Values: []string{"a1", "a2", "b1"}}
	// Level 1 groups by first letter; level 2 groups by last character —
	// "a1" and "a2" share a level-1 member but split at level 2.
	_, _, err := deriveDim(base, []string{"first", "last"},
		func(v string) string { return v[:1] },
		func(v string) string { return v[1:] })
	if err == nil {
		t.Error("inconsistent hierarchy accepted")
	}
}

func TestLoadFileAndSemicolons(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "data.csv")
	content := "a;m\nx;1\ny;2\n"
	if err := writeFile(path, content); err != nil {
		t.Fatal(err)
	}
	ft, _, err := LoadFile(path, Spec{DimCols: []string{"a"}, MeasureCols: []string{"m"}, Comma: ';'})
	if err != nil {
		t.Fatal(err)
	}
	if ft.Len() != 2 || ft.Measures[0][1] != 2 {
		t.Errorf("semicolon CSV parsed wrong: %d rows", ft.Len())
	}
	if _, _, err := LoadFile(filepath.Join(dir, "absent.csv"), Spec{DimCols: []string{"a"}}); err == nil {
		t.Error("missing file accepted")
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}
