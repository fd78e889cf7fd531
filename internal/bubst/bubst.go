// Package bubst implements BU-BST (Wang et al., ICDE 2002), the paper's
// second baseline: BUC's execution plan plus condensation of base single
// tuples (BSTs — the paper's trivial tuples), all stored in one monolithic
// relation. The condensed cube is smaller than BUC's, but answering any
// node query requires a sequential scan of the entire relation — the
// behaviour behind the paper's "two to three orders of magnitude worse"
// query times (Figure 16).
package bubst

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"cure/internal/hierarchy"
	"cure/internal/lattice"
	"cure/internal/relation"
	"cure/internal/sortutil"
)

const (
	manifestFile        = "bubst.json"
	dataFile            = "bubst.bin"
	allCode      int32  = -1
	flagBST      uint32 = 1
)

// Options configures a BU-BST build.
type Options struct {
	Dir     string
	Iceberg int64
}

// Stats reports a build.
type Stats struct {
	Tuples  int64 // rows stored (normal + BST)
	BSTs    int64
	Bytes   int64
	Elapsed time.Duration
}

type manifest struct {
	NumDims  int                `json:"num_dims"`
	AggSpecs []relation.AggSpec `json:"agg_specs"`
	Cards    []int32            `json:"cards"`
	DimNames []string           `json:"dim_names"`
	Rows     int64              `json:"rows"`
	Iceberg  int64              `json:"iceberg"`
}

func rowWidth(numDims, numAggrs int) int { return 8 + 4 + 4*numDims + 8*numAggrs }

// Build computes the condensed flat cube of t into opts.Dir.
func Build(t *relation.FactTable, hier *hierarchy.Schema, specs []relation.AggSpec, opts Options) (*Stats, error) {
	start := time.Now()
	if opts.Dir == "" {
		return nil, errors.New("bubst: missing output directory")
	}
	if len(specs) == 0 {
		return nil, errors.New("bubst: need at least one aggregate")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	flat := hier.Flatten()
	f, err := os.Create(filepath.Join(opts.Dir, dataFile))
	if err != nil {
		return nil, err
	}
	b := &builder{
		t:        t,
		flat:     flat,
		specs:    specs,
		enum:     lattice.NewEnum(flat),
		w:        bufio.NewWriterSize(f, 1<<20),
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
		b.levels[d] = 1
	}
	if t.Len() > 0 {
		if err := b.bubst(0, t.Len(), 0); err != nil {
			f.Close()
			return nil, err
		}
	}
	if err := b.w.Flush(); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	m := &manifest{NumDims: flat.NumDims(), AggSpecs: specs, Rows: b.rows, Iceberg: opts.Iceberg}
	for _, d := range flat.Dims {
		m.Cards = append(m.Cards, d.Card(0))
		m.DimNames = append(m.DimNames, d.Name)
	}
	data, err := json.MarshalIndent(m, "", " ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(opts.Dir, manifestFile), data, 0o644); err != nil {
		return nil, err
	}
	st := &Stats{Tuples: b.rows, BSTs: b.bsts, Elapsed: time.Since(start)}
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
	w        *bufio.Writer
	sorter   sortutil.Sorter
	idx      []int32
	dims     []int32
	levels   []int
	row      []byte
	aggBuf   []float64
	rows     int64
	bsts     int64
	minCount int64
}

func (b *builder) bubst(lo, hi, dim int) error {
	if int64(hi-lo) < b.minCount {
		return nil
	}
	node := b.enum.Encode(b.levels)
	if hi-lo == 1 && b.minCount == 1 {
		// Base single tuple: store it once, flagged, at the least
		// detailed node it belongs to, and prune the recursion — it
		// represents itself in the whole plan subtree.
		b.bsts++
		return b.writeRow(node, flagBST, b.t, int(b.idx[lo]))
	}
	aggs := relation.AggregateRange(b.t, b.specs, b.idx, lo, hi, b.aggBuf)
	if err := b.writeGroupRow(node, aggs); err != nil {
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
			if err := b.bubst(lo+runLo, lo+runHi, d+1); err != nil {
				return err
			}
			runLo = runHi
		}
		b.dims[d] = allCode
		b.levels[d] = 1
	}
	return nil
}

// writeGroupRow stores a normal condensed-cube tuple: the current group
// values (allCode marks aggregated-away dimensions) and its aggregates.
func (b *builder) writeGroupRow(node lattice.NodeID, aggs []float64) error {
	binary.LittleEndian.PutUint64(b.row[0:], uint64(node))
	binary.LittleEndian.PutUint32(b.row[8:], 0)
	off := 12
	for _, v := range b.dims {
		binary.LittleEndian.PutUint32(b.row[off:], uint32(v))
		off += 4
	}
	for _, v := range aggs {
		binary.LittleEndian.PutUint64(b.row[off:], math.Float64bits(v))
		off += 8
	}
	b.rows++
	_, err := b.w.Write(b.row)
	return err
}

// writeRow stores a BST: the base dimension values of its single source
// tuple and that tuple's aggregate projections.
func (b *builder) writeRow(node lattice.NodeID, flags uint32, t *relation.FactTable, r int) error {
	binary.LittleEndian.PutUint64(b.row[0:], uint64(node))
	binary.LittleEndian.PutUint32(b.row[8:], flags)
	off := 12
	for d := range t.Dims {
		binary.LittleEndian.PutUint32(b.row[off:], uint32(t.Dims[d][r]))
		off += 4
	}
	for _, s := range b.specs {
		v := 1.0
		if s.Func != relation.AggCount {
			v = t.Measures[s.Measure][r]
		}
		binary.LittleEndian.PutUint64(b.row[off:], math.Float64bits(v))
		off += 8
	}
	b.rows++
	_, err := b.w.Write(b.row)
	return err
}

// Engine answers node queries over a BU-BST cube. Every query scans the
// whole monolithic relation: normal rows match when their node id equals
// the query node; BST rows match when they are stored at a node on the
// query node's plan path (they then project onto the query's grouping).
type Engine struct {
	m     *manifest
	f     *os.File
	enum  *lattice.Enum
	width int
}

// Open opens a BU-BST cube directory.
func Open(dir string) (*Engine, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if err != nil {
		return nil, err
	}
	m := &manifest{}
	if err := json.Unmarshal(data, m); err != nil {
		return nil, fmt.Errorf("bubst: parsing manifest: %w", err)
	}
	dims := make([]*hierarchy.Dim, m.NumDims)
	for i := range dims {
		dims[i] = hierarchy.NewFlatDim(m.DimNames[i], m.Cards[i])
	}
	flat, err := hierarchy.NewSchema(dims...)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(filepath.Join(dir, dataFile))
	if err != nil {
		return nil, err
	}
	return &Engine{m: m, f: f, enum: lattice.NewEnum(flat), width: rowWidth(m.NumDims, len(m.AggSpecs))}, nil
}

// Close releases the engine.
func (e *Engine) Close() error { return e.f.Close() }

// Row is one result tuple.
type Row struct {
	Dims  []int32
	Aggrs []float64
}

// NodeQuery streams the tuples of node id by scanning the entire
// relation.
func (e *Engine) NodeQuery(id lattice.NodeID, fn func(Row) error) error {
	onPath := map[lattice.NodeID]bool{}
	for _, anc := range e.enum.PlanPath(id) {
		onPath[anc] = true
	}
	levels := e.enum.Decode(id, nil)
	active := make([]int, 0, len(levels))
	for d, l := range levels {
		if l == 0 {
			active = append(active, d)
		}
	}
	numAggrs := len(e.m.AggSpecs)
	row := Row{Dims: make([]int32, len(active)), Aggrs: make([]float64, numAggrs)}
	full := make([]int32, e.m.NumDims)

	r := bufio.NewReaderSize(&readerAt{f: e.f}, 1<<20)
	buf := make([]byte, e.width)
	for i := int64(0); i < e.m.Rows; i++ {
		if _, err := io.ReadFull(r, buf); err != nil {
			return err
		}
		node := lattice.NodeID(binary.LittleEndian.Uint64(buf[0:]))
		flags := binary.LittleEndian.Uint32(buf[8:])
		isBST := flags&flagBST != 0
		if isBST {
			if !onPath[node] {
				continue
			}
		} else if node != id {
			continue
		}
		for d := 0; d < e.m.NumDims; d++ {
			full[d] = int32(binary.LittleEndian.Uint32(buf[12+4*d:]))
		}
		for ai := 0; ai < numAggrs; ai++ {
			row.Aggrs[ai] = math.Float64frombits(binary.LittleEndian.Uint64(buf[12+4*e.m.NumDims+8*ai:]))
		}
		for i2, d := range active {
			row.Dims[i2] = full[d] // BSTs carry base codes; normal rows carry group codes
		}
		if err := fn(row); err != nil {
			return err
		}
	}
	return nil
}

// readerAt adapts sequential reads over the shared file handle so
// concurrent queries each get a fresh cursor.
type readerAt struct {
	f   *os.File
	off int64
}

func (r *readerAt) Read(p []byte) (int, error) {
	n, err := r.f.ReadAt(p, r.off)
	r.off += int64(n)
	if err == io.EOF && n > 0 {
		err = nil
	}
	return n, err
}
