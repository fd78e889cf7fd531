// Package csvload imports raw CSV data into the library's fact-table
// format: dimension columns are dictionary-encoded into dense int32 codes
// (first-seen order), measure columns are parsed as floats, and the
// resulting dictionaries can be persisted alongside the fact file and
// used to decode query results back into the original strings.
package csvload

import (
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"

	"cure/internal/relation"
)

// Spec describes how to interpret a CSV stream.
type Spec struct {
	// DimCols are the header names of dimension columns, in the
	// dimension order of the resulting fact table.
	DimCols []string
	// MeasureCols are the header names of measure columns.
	MeasureCols []string
	// Comma is the field separator (',' when zero).
	Comma rune
	// AllowMissingMeasures treats empty measure fields as 0 instead of
	// failing.
	AllowMissingMeasures bool
}

// DimDict is the dictionary of one dimension: Values[code] is the
// original string of a code.
type DimDict struct {
	Name   string   `json:"name"`
	Values []string `json:"values"`
	index  map[string]int32
}

// Card returns the number of distinct values.
func (d *DimDict) Card() int32 { return int32(len(d.Values)) }

// Value returns the raw string of a code ("" when out of range).
func (d *DimDict) Value(code int32) string {
	if code < 0 || int(code) >= len(d.Values) {
		return ""
	}
	return d.Values[code]
}

// add interns a value, returning its code.
func (d *DimDict) add(value string) int32 {
	d.ensureIndex()
	if c, ok := d.index[value]; ok {
		return c
	}
	c := int32(len(d.Values))
	d.Values = append(d.Values, value)
	d.index[value] = c
	return c
}

func (d *DimDict) ensureIndex() {
	if d.index == nil {
		d.index = make(map[string]int32, len(d.Values))
		for i, v := range d.Values {
			d.index[v] = int32(i)
		}
	}
}

// Dictionary bundles the per-dimension dictionaries of a fact table.
type Dictionary struct {
	Dims []*DimDict `json:"dims"`
}

// Save writes the dictionary as JSON.
func (d *Dictionary) Save(path string) error {
	data, err := json.MarshalIndent(d, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// LoadDictionary reads a dictionary written by Save.
func LoadDictionary(path string) (*Dictionary, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	d := &Dictionary{}
	if err := json.Unmarshal(data, d); err != nil {
		return nil, fmt.Errorf("csvload: parsing dictionary %s: %w", path, err)
	}
	return d, nil
}

// Load reads a CSV stream (with a header row) into a fact table and its
// dictionaries.
func Load(r io.Reader, spec Spec) (*relation.FactTable, *Dictionary, error) {
	if len(spec.DimCols) == 0 {
		return nil, nil, errors.New("csvload: need at least one dimension column")
	}
	cr := csv.NewReader(r)
	if spec.Comma != 0 {
		cr.Comma = spec.Comma
	}
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, nil, fmt.Errorf("csvload: reading header: %w", err)
	}
	colIdx := map[string]int{}
	for i, name := range header {
		colIdx[name] = i
	}
	dimIdx := make([]int, len(spec.DimCols))
	for i, name := range spec.DimCols {
		idx, ok := colIdx[name]
		if !ok {
			return nil, nil, fmt.Errorf("csvload: dimension column %q not in header %v", name, header)
		}
		dimIdx[i] = idx
	}
	measIdx := make([]int, len(spec.MeasureCols))
	for i, name := range spec.MeasureCols {
		idx, ok := colIdx[name]
		if !ok {
			return nil, nil, fmt.Errorf("csvload: measure column %q not in header %v", name, header)
		}
		measIdx[i] = idx
	}

	dict := &Dictionary{}
	for _, name := range spec.DimCols {
		dict.Dims = append(dict.Dims, &DimDict{Name: name})
	}
	schema := &relation.Schema{DimNames: spec.DimCols, MeasureNames: spec.MeasureCols}
	if err := schema.Validate(); err != nil {
		return nil, nil, err
	}
	ft := relation.NewFactTable(schema, 1024)
	dims := make([]int32, len(dimIdx))
	meas := make([]float64, len(measIdx))
	line := 1
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		line++
		if err != nil {
			return nil, nil, fmt.Errorf("csvload: line %d: %w", line, err)
		}
		for i, idx := range dimIdx {
			dims[i] = dict.Dims[i].add(rec[idx])
		}
		for i, idx := range measIdx {
			field := rec[idx]
			if field == "" && spec.AllowMissingMeasures {
				meas[i] = 0
				continue
			}
			v, err := strconv.ParseFloat(field, 64)
			if err != nil {
				return nil, nil, fmt.Errorf("csvload: line %d: measure %q: %w", line, spec.MeasureCols[i], err)
			}
			meas[i] = v
		}
		ft.Append(dims, meas)
	}
	return ft, dict, nil
}

// LoadFile is Load over a file path.
func LoadFile(path string, spec Spec) (*relation.FactTable, *Dictionary, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return Load(f, spec)
}
