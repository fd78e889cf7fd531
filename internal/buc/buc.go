// Package buc implements the classic BUC algorithm (Beyer & Ramakrishnan,
// SIGMOD 1999) as the paper's first baseline: bottom-up depth-first
// computation of the complete (or iceberg) flat cube with shared sorting,
// but no redundancy elimination — every tuple of every node is fully
// materialized with its dimension values and aggregates.
package buc

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"cure/internal/hierarchy"
	"cure/internal/lattice"
	"cure/internal/relation"
	"cure/internal/sortutil"
	"cure/internal/storage"
)

const (
	manifestFile = "buc.json"
	dataFile     = "buc.bin"
	// allCode marks a dimension aggregated away in a stored tuple; BUC
	// stores full-width rows, NULL-padded, as flat ROLAP cubes do.
	allCode int32 = -1
)

// Options configures a BUC build.
type Options struct {
	// Dir is the output directory.
	Dir string
	// Iceberg is the min-count threshold (≤1 builds the complete cube).
	Iceberg int64
}

// Stats reports a build.
type Stats struct {
	Tuples  int64
	Nodes   int
	Bytes   int64
	Elapsed time.Duration
}

// manifest catalogs a BUC cube directory.
type manifest struct {
	NumDims  int                       `json:"num_dims"`
	AggSpecs []relation.AggSpec        `json:"agg_specs"`
	Cards    []int32                   `json:"cards"`
	DimNames []string                  `json:"dim_names"`
	Nodes    map[string]storage.Extent `json:"nodes"`
	Iceberg  int64                     `json:"iceberg"`
}

// rowWidth is the fixed stored-tuple width: D dims + Y aggregates.
func rowWidth(numDims, numAggrs int) int { return 4*numDims + 8*numAggrs }

// Build computes the flat cube of t. The hierarchy is ignored beyond base
// cardinalities (BUC does not support hierarchies); pass a flattened
// schema for hierarchical data.
func Build(t *relation.FactTable, hier *hierarchy.Schema, specs []relation.AggSpec, opts Options) (*Stats, error) {
	start := time.Now()
	if opts.Dir == "" {
		return nil, errors.New("buc: missing output directory")
	}
	if len(specs) == 0 {
		return nil, errors.New("buc: need at least one aggregate")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	flat := hier.Flatten()
	enum := lattice.NewEnum(flat)
	ew, err := storage.NewExtentWriter(filepath.Join(opts.Dir, dataFile+".log"), rowWidth(flat.NumDims(), len(specs)), 0)
	if err != nil {
		return nil, err
	}
	b := &builder{
		t:        t,
		flat:     flat,
		specs:    specs,
		enum:     enum,
		ew:       ew,
		idx:      sortutil.Iota(nil, t.Len()),
		dims:     make([]int32, flat.NumDims()),
		levels:   make([]int, flat.NumDims()),
		row:      make([]byte, rowWidth(flat.NumDims(), len(specs))),
		aggBuf:   make([]float64, len(specs)),
		minCount: opts.Iceberg,
	}
	if b.minCount < 1 {
		b.minCount = 1
	}
	for d := range b.dims {
		b.dims[d] = allCode
		b.levels[d] = 1 // flat ALL level
	}
	if t.Len() > 0 {
		if err := b.buc(0, t.Len(), 0); err != nil {
			ew.Abort()
			return nil, err
		}
	}
	extents, err := ew.Compact(filepath.Join(opts.Dir, dataFile))
	if err != nil {
		return nil, err
	}
	m := &manifest{
		NumDims:  flat.NumDims(),
		AggSpecs: specs,
		Iceberg:  opts.Iceberg,
		Nodes:    map[string]storage.Extent{},
	}
	for _, d := range flat.Dims {
		m.Cards = append(m.Cards, d.Card(0))
		m.DimNames = append(m.DimNames, d.Name)
	}
	for id, ext := range extents {
		m.Nodes[fmt.Sprintf("%d", id)] = ext
	}
	data, err := json.MarshalIndent(m, "", " ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(opts.Dir, manifestFile), data, 0o644); err != nil {
		return nil, err
	}
	st := &Stats{Tuples: b.tuples, Nodes: len(extents), Elapsed: time.Since(start)}
	if fi, err := os.Stat(filepath.Join(opts.Dir, dataFile)); err == nil {
		st.Bytes = fi.Size()
	}
	return st, nil
}

type builder struct {
	t        *relation.FactTable
	flat     *hierarchy.Schema
	specs    []relation.AggSpec
	enum     *lattice.Enum
	ew       *storage.ExtentWriter
	sorter   sortutil.Sorter
	idx      []int32
	dims     []int32 // current group's values; allCode when aggregated away
	levels   []int   // 0 = grouped, 1 = ALL, per dim
	row      []byte
	aggBuf   []float64
	tuples   int64
	minCount int64
}

// buc is the classic recursion: output the aggregate of the current
// segment for the current grouping, then for each remaining dimension
// sort the segment and recurse into each run.
func (b *builder) buc(lo, hi, dim int) error {
	if int64(hi-lo) < b.minCount {
		return nil
	}
	if err := b.output(lo, hi); err != nil {
		return err
	}
	for d := dim; d < b.flat.NumDims(); d++ {
		key := sortutil.SliceKeyer{Col: b.t.Dims[d], Hi: b.flat.Dims[d].Card(0)}
		seg := b.idx[lo:hi]
		b.sorter.Sort(seg, key)
		b.levels[d] = 0
		runLo := 0
		for runLo < len(seg) {
			code := key.Key(seg[runLo])
			runHi := runLo + 1
			for runHi < len(seg) && key.Key(seg[runHi]) == code {
				runHi++
			}
			b.dims[d] = code
			if err := b.buc(lo+runLo, lo+runHi, d+1); err != nil {
				return err
			}
			runLo = runHi
		}
		b.dims[d] = allCode
		b.levels[d] = 1
	}
	return nil
}

// output materializes the current group's tuple into its node's extent.
func (b *builder) output(lo, hi int) error {
	aggs := relation.AggregateRange(b.t, b.specs, b.idx, lo, hi, b.aggBuf)
	node := b.enum.Encode(b.levels)
	off := 0
	for _, v := range b.dims {
		binary.LittleEndian.PutUint32(b.row[off:], uint32(v))
		off += 4
	}
	for _, v := range aggs {
		binary.LittleEndian.PutUint64(b.row[off:], math.Float64bits(v))
		off += 8
	}
	b.tuples++
	return b.ew.Append(node, b.row)
}

// Engine answers node queries over a BUC cube: a straight scan of the
// node's extent (dimension values are stored inline, so no fact-table
// access is needed — BUC's storage is big but its queries are direct).
type Engine struct {
	dir   string
	m     *manifest
	f     *os.File
	width int
}

// Open opens a BUC cube directory.
func Open(dir string) (*Engine, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if err != nil {
		return nil, err
	}
	m := &manifest{}
	if err := json.Unmarshal(data, m); err != nil {
		return nil, fmt.Errorf("buc: parsing manifest: %w", err)
	}
	f, err := os.Open(filepath.Join(dir, dataFile))
	if err != nil {
		return nil, err
	}
	return &Engine{dir: dir, m: m, f: f, width: rowWidth(m.NumDims, len(m.AggSpecs))}, nil
}

// Close releases the engine.
func (e *Engine) Close() error { return e.f.Close() }

// Row is one BUC result tuple: values of the grouped dimensions in
// dimension order, then aggregates.
type Row struct {
	Dims  []int32
	Aggrs []float64
}

// NodeQuery streams the tuples of node id (an id in the flat lattice
// enumeration: level 0 = grouped, 1 = ALL per dimension).
func (e *Engine) NodeQuery(id lattice.NodeID, fn func(Row) error) error {
	ext, ok := e.m.Nodes[fmt.Sprintf("%d", id)]
	if !ok {
		return nil
	}
	buf, err := storage.ReadExtent(e.f, ext, e.width)
	if err != nil {
		return err
	}
	numAggrs := len(e.m.AggSpecs)
	row := Row{Aggrs: make([]float64, numAggrs)}
	full := make([]int32, e.m.NumDims)
	for i := int64(0); i < ext.Rows; i++ {
		rec := buf[i*int64(e.width):]
		for d := 0; d < e.m.NumDims; d++ {
			full[d] = int32(binary.LittleEndian.Uint32(rec[4*d:]))
		}
		row.Dims = row.Dims[:0]
		for _, v := range full {
			if v != allCode {
				row.Dims = append(row.Dims, v)
			}
		}
		for a := 0; a < numAggrs; a++ {
			row.Aggrs[a] = math.Float64frombits(binary.LittleEndian.Uint64(rec[4*e.m.NumDims+8*a:]))
		}
		if err := fn(row); err != nil {
			return err
		}
	}
	return nil
}
