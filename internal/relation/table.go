package relation

import (
	"fmt"
)

// FactTable is a columnar in-memory fact table. Dimension values are int32
// codes at the most detailed (base) hierarchy level; measures are float64.
// Rows are addressed by their index, which doubles as the R-rowid that
// CURE's storage formats reference.
type FactTable struct {
	Schema *Schema
	// Dims[d][r] is the base-level code of dimension d in row r.
	Dims [][]int32
	// Measures[m][r] is the value of measure m in row r.
	Measures [][]float64
	// RowIDs maps local row index to the row-id in the original fact
	// table. It is nil for an original table (identity mapping) and set
	// for partitions and derived nodes, whose tuples must keep pointing
	// at the original relation.
	RowIDs []int64
}

// NewFactTable allocates an empty fact table with the given schema and
// capacity hint.
func NewFactTable(schema *Schema, capacity int) *FactTable {
	t := &FactTable{Schema: schema}
	t.Dims = make([][]int32, schema.NumDims())
	for d := range t.Dims {
		t.Dims[d] = make([]int32, 0, capacity)
	}
	t.Measures = make([][]float64, schema.NumMeasures())
	for m := range t.Measures {
		t.Measures[m] = make([]float64, 0, capacity)
	}
	return t
}

// Len returns the number of rows.
func (t *FactTable) Len() int {
	if len(t.Dims) == 0 {
		return 0
	}
	return len(t.Dims[0])
}

// Append adds one row. dims and measures must match the schema arity.
func (t *FactTable) Append(dims []int32, measures []float64) {
	for d := range t.Dims {
		t.Dims[d] = append(t.Dims[d], dims[d])
	}
	for m := range t.Measures {
		t.Measures[m] = append(t.Measures[m], measures[m])
	}
}

// AppendWithRowID adds one row that originates from row id of another
// table. All rows of a table must be appended consistently: either all via
// Append (identity row-ids) or all via AppendWithRowID.
func (t *FactTable) AppendWithRowID(dims []int32, measures []float64, id int64) {
	t.Append(dims, measures)
	t.RowIDs = append(t.RowIDs, id)
}

// RowID returns the original-fact-table row-id of local row r.
func (t *FactTable) RowID(r int) int64 {
	if t.RowIDs != nil {
		return t.RowIDs[r]
	}
	return int64(r)
}

// DimRow copies the dimension codes of row r into dst and returns it.
// If dst is nil or too short a new slice is allocated.
func (t *FactTable) DimRow(r int, dst []int32) []int32 {
	if cap(dst) < len(t.Dims) {
		dst = make([]int32, len(t.Dims))
	}
	dst = dst[:len(t.Dims)]
	for d := range t.Dims {
		dst[d] = t.Dims[d][r]
	}
	return dst
}

// MeasureRow copies the measure values of row r into dst and returns it.
func (t *FactTable) MeasureRow(r int, dst []float64) []float64 {
	if cap(dst) < len(t.Measures) {
		dst = make([]float64, len(t.Measures))
	}
	dst = dst[:len(t.Measures)]
	for m := range t.Measures {
		dst[m] = t.Measures[m][r]
	}
	return dst
}

// SizeBytes returns the approximate in-memory footprint of the table, used
// by the partitioner to honour the memory budget.
func (t *FactTable) SizeBytes() int64 {
	n := int64(t.Len())
	per := int64(4*len(t.Dims) + 8*len(t.Measures))
	if t.RowIDs != nil {
		per += 8
	}
	return n * per
}

// Validate checks internal consistency: all columns the same length and
// row-ids (if present) covering every row.
func (t *FactTable) Validate() error {
	n := t.Len()
	for d, col := range t.Dims {
		if len(col) != n {
			return fmt.Errorf("relation: dim column %d has %d rows, want %d", d, len(col), n)
		}
	}
	for m, col := range t.Measures {
		if len(col) != n {
			return fmt.Errorf("relation: measure column %d has %d rows, want %d", m, len(col), n)
		}
	}
	if t.RowIDs != nil && len(t.RowIDs) != n {
		return fmt.Errorf("relation: row-id column has %d rows, want %d", len(t.RowIDs), n)
	}
	return nil
}

// Aggregator accumulates aggregate values for one group of fact tuples
// according to a list of AggSpecs. The zero Aggregator is not usable; call
// NewAggregator. MIN and MAX fold with Go's min and max, so a NaN input
// makes them NaN whatever the row order (every fold site in the engine
// does the same).
type Aggregator struct {
	specs []AggSpec
	vals  []float64
	count int64
}

// NewAggregator creates an aggregator for the given specs.
func NewAggregator(specs []AggSpec) *Aggregator {
	return &Aggregator{specs: specs, vals: make([]float64, len(specs))}
}

// Reset clears the accumulated state so the aggregator can be reused.
func (a *Aggregator) Reset() {
	a.count = 0
	for i := range a.vals {
		a.vals[i] = 0
	}
}

// Add accumulates row r of table t.
func (a *Aggregator) Add(t *FactTable, r int) {
	first := a.count == 0
	a.count++
	for i, s := range a.specs {
		switch s.Func {
		case AggSum:
			a.vals[i] += t.Measures[s.Measure][r]
		case AggCount:
			a.vals[i]++
		case AggMin:
			if v := t.Measures[s.Measure][r]; first {
				a.vals[i] = v
			} else {
				a.vals[i] = min(a.vals[i], v)
			}
		case AggMax:
			if v := t.Measures[s.Measure][r]; first {
				a.vals[i] = v
			} else {
				a.vals[i] = max(a.vals[i], v)
			}
		}
	}
}

// AddValues accumulates a pre-aggregated tuple (measures already at some
// granularity). Valid only for distributive functions, which all of ours
// are; count must be merged through an AggCount/AggSum column by the
// caller's choice of specs. The provided measures slice is indexed like
// the table's measure columns.
func (a *Aggregator) AddValues(measures []float64) {
	first := a.count == 0
	a.count++
	for i, s := range a.specs {
		switch s.Func {
		case AggSum:
			a.vals[i] += measures[s.Measure]
		case AggCount:
			a.vals[i]++
		case AggMin:
			if v := measures[s.Measure]; first {
				a.vals[i] = v
			} else {
				a.vals[i] = min(a.vals[i], v)
			}
		case AggMax:
			if v := measures[s.Measure]; first {
				a.vals[i] = v
			} else {
				a.vals[i] = max(a.vals[i], v)
			}
		}
	}
}

// Count returns the number of input tuples accumulated so far.
func (a *Aggregator) Count() int64 { return a.count }

// Values copies the current aggregate values into dst and returns it.
func (a *Aggregator) Values(dst []float64) []float64 {
	if cap(dst) < len(a.vals) {
		dst = make([]float64, len(a.vals))
	}
	dst = dst[:len(a.vals)]
	copy(dst, a.vals)
	return dst
}

// AggregateRange aggregates rows idx[lo:hi] of t in one call and returns
// the aggregate values. It is the hot path of cube construction.
func AggregateRange(t *FactTable, specs []AggSpec, idx []int32, lo, hi int, dst []float64) []float64 {
	if cap(dst) < len(specs) {
		dst = make([]float64, len(specs))
	}
	dst = dst[:len(specs)]
	for i, s := range specs {
		switch s.Func {
		case AggCount:
			dst[i] = float64(hi - lo)
		case AggSum:
			col := t.Measures[s.Measure]
			var sum float64
			for j := lo; j < hi; j++ {
				sum += col[idx[j]]
			}
			dst[i] = sum
		case AggMin:
			col := t.Measures[s.Measure]
			v := col[idx[lo]]
			for j := lo + 1; j < hi; j++ {
				v = min(v, col[idx[j]])
			}
			dst[i] = v
		case AggMax:
			col := t.Measures[s.Measure]
			v := col[idx[lo]]
			for j := lo + 1; j < hi; j++ {
				v = max(v, col[idx[j]])
			}
			dst[i] = v
		}
	}
	return dst
}
