package storage

import (
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"cure/internal/hierarchy"
	"cure/internal/lattice"
	"cure/internal/obsv"
	"cure/internal/signature"
)

// Reader opens a finalized cube directory for query answering.
type Reader struct {
	dir  string
	m    *Manifest
	hier *hierarchy.Schema
	enum *lattice.Enum
	// planParents is the manifest's PlanParents by node id.
	planParents map[lattice.NodeID]lattice.NodeID

	ntF, ttF, catF, aggF *os.File

	// Global read accounting (nil-safe, set via SetMetrics): every
	// attributed read tallies here as well as into the per-query IOStats,
	// so /metrics and diagnostic bundles carry the process-wide storage
	// read volume.
	cReadBytes *obsv.Counter
	cReads     *obsv.Counter
	// Codec decode accounting (storage.codec.bytes_decoded /
	// storage.codec.blocks_read): raw-equivalent bytes materialized from
	// encoded blocks, and the block-decode count.
	cDecBytes  *obsv.Counter
	cDecBlocks *obsv.Counter
	// blocks is the optional decoded-block cache (set once before
	// concurrent use via SetBlockCache); nil reads decode into per-call
	// scratch instead.
	blocks BlockCache
}

// BlockCache caches decoded extent blocks across queries. Implementations
// must be safe for concurrent use; blocks returned by GetBlock are shared
// and must be treated as immutable. decodedBytes is the raw-equivalent
// footprint of the block, the unit cache budgets account in.
type BlockCache interface {
	GetBlock(rel uint8, node int64, block int) *DecodedBlock
	PutBlock(rel uint8, node int64, block int, db *DecodedBlock, decodedBytes int64)
}

// Block-cache relation tags.
const (
	BlockRelNT uint8 = iota
	BlockRelTT
	BlockRelCAT
	BlockRelAgg
)

// SetBlockCache attaches a decoded-block cache to the reader. Must be
// called before the reader is shared across goroutines.
func (r *Reader) SetBlockCache(c BlockCache) { r.blocks = c }

// SetMetrics attaches the registry's storage read counters
// (storage.read.bytes / storage.read.calls) to the reader; nil reg
// detaches them.
func (r *Reader) SetMetrics(reg *obsv.Registry) {
	if reg == nil {
		r.cReadBytes, r.cReads = nil, nil
		r.cDecBytes, r.cDecBlocks = nil, nil
		return
	}
	r.cReadBytes = reg.Counter("storage.read.bytes")
	r.cReads = reg.Counter("storage.read.calls")
	r.cDecBytes = reg.Counter("storage.codec.bytes_decoded")
	r.cDecBlocks = reg.Counter("storage.codec.blocks_read")
}

// account folds one attributed read of n bytes into the per-query tally
// and the reader's global counters.
func (r *Reader) account(io *IOStats, n int64) {
	io.Add(n)
	r.cReadBytes.Add(n)
	r.cReads.Inc()
}

// OpenReader loads the manifest and hierarchy of a cube directory and
// opens its relation files, refusing any file whose size differs from the
// manifest's record of it (a truncated or extended file).
func OpenReader(dir string) (*Reader, error) {
	m, err := ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	hierPath := filepath.Join(dir, HierFile)
	fi, err := os.Stat(hierPath)
	if err != nil {
		return nil, err
	}
	if fi.Size() != m.Sizes.Hier {
		return nil, sizeMismatch(dir, HierFile, fi.Size(), m.Sizes.Hier)
	}
	hier, err := hierarchy.ReadSchemaFile(hierPath)
	if err != nil {
		return nil, err
	}
	r := &Reader{dir: dir, m: m, hier: hier, enum: lattice.NewEnum(hier)}
	if r.planParents, err = m.decodePlanParents(r.enum); err != nil {
		return nil, fmt.Errorf("%w in %s", err, dir)
	}
	for _, x := range []struct {
		name string
		dst  **os.File
		size int64
	}{
		{NTFile, &r.ntF, m.Sizes.NT}, {TTFile, &r.ttF, m.Sizes.TT},
		{CATFile, &r.catF, m.Sizes.CAT}, {AggFile, &r.aggF, m.Sizes.Agg},
	} {
		if *x.dst, err = os.Open(filepath.Join(dir, x.name)); err != nil {
			r.Close()
			return nil, err
		}
		fi, err := (*x.dst).Stat()
		if err == nil && fi.Size() != x.size {
			err = sizeMismatch(dir, x.name, fi.Size(), x.size)
		}
		if err != nil {
			r.Close()
			return nil, err
		}
	}
	return r, nil
}

func sizeMismatch(dir, name string, got, want int64) error {
	return fmt.Errorf("storage: %s in %s holds %d bytes, the manifest records %d", name, dir, got, want)
}

// Close releases the reader's file handles.
func (r *Reader) Close() error {
	var first error
	for _, f := range []*os.File{r.ntF, r.ttF, r.catF, r.aggF} {
		if f != nil {
			if err := f.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// Manifest returns the cube catalog.
func (r *Reader) Manifest() *Manifest { return r.m }

// Hier returns the hierarchical schema the cube was built over.
func (r *Reader) Hier() *hierarchy.Schema { return r.hier }

// Enum returns the node enumeration of the schema.
func (r *Reader) Enum() *lattice.Enum { return r.enum }

// FactPath returns the resolved path of the fact table the cube's
// row-ids reference.
func (r *Reader) FactPath() string { return resolveFactPath(r.dir, r.m.FactFile) }

// IOStats tallies the read volume one scan causes, attributing storage
// I/O to the query that asked for it. One IOStats belongs to one query
// (one goroutine), so the fields are plain — concurrent queries each
// carry their own. The nil *IOStats is a valid no-op, which keeps
// un-attributed callers (zone-map construction, tests) unchanged.
type IOStats struct {
	// BytesRead is the number of bytes fetched from relation files.
	BytesRead int64 `json:"bytes_read"`
	// Reads is the number of ReadAt calls issued.
	Reads int64 `json:"reads"`
	// BytesDecoded is the raw-equivalent bytes materialized from extent
	// blocks (0 when every block was a decoded-cache hit).
	BytesDecoded int64 `json:"bytes_decoded,omitempty"`
}

// Add folds one read of n bytes into the tally (no-op on nil).
func (s *IOStats) Add(n int64) {
	if s != nil {
		s.BytesRead += n
		s.Reads++
	}
}

// addDecoded folds one block decode of n raw-equivalent bytes into the
// tally (no-op on nil).
func (s *IOStats) addDecoded(n int64) {
	if s != nil {
		s.BytesDecoded += n
	}
}

// TTRowIDs returns the trivial-tuple row-ids stored at node id (only the
// tuples stored there — callers assemble the full TT set of a node from
// its plan path).
func (r *Reader) TTRowIDs(id lattice.NodeID, dst []int64) ([]int64, error) {
	return r.TTRowIDsIO(id, dst, nil)
}

// TTRowIDsIO is TTRowIDs with per-query I/O attribution: bytes fetched
// for the extent are tallied into io.
func (r *Reader) TTRowIDsIO(id lattice.NodeID, dst []int64, io *IOStats) ([]int64, error) {
	nm, ok := r.m.NodeMeta(id)
	if !ok || nm.TTRows == 0 {
		return dst[:0], nil
	}
	// The extent is fetched whole, block by block: zone pruning narrows
	// the iteration over the ids, not the read.
	if cap(dst) < int(nm.TTRows) {
		dst = make([]int64, 0, nm.TTRows)
	}
	dst = dst[:0]
	bf := &blockFetcher{
		r: r, f: r.ttF, rel: BlockRelTT, node: int64(id), base: nm.TTOff,
		c: nm.TTCodec, kinds: ttKinds(), rows: nm.TTRows, rawWidth: ttLogRowWidth,
	}
	for b := 0; b < nm.TTCodec.NumBlocks(); b++ {
		db, err := bf.fetch(b, io)
		if err != nil {
			return nil, err
		}
		dst = append(dst, db.I64[0][:db.Rows]...)
	}
	return dst, nil
}

// NTBlock is a run of consecutive normal tuples inside one decoded block,
// column-major. Under CURE_DR (Manifest.DimsInline) the tuples carry Dims
// and RRowids is nil; otherwise Dims is empty. The columns alias a decoded block that may be
// shared through the block cache: read-only, and valid only until the
// callback returns.
type NTBlock struct {
	RRowids []int64
	Dims    [][]int32   // CURE_DR only: Dims[k][i], k over the node's grouped dimensions
	Aggrs   [][]float64 // Aggrs[a][i]
}

// Len returns the number of tuples in the run.
func (b *NTBlock) Len() int { return len(b.Aggrs[0]) }

// NTBlocks visits the normal tuples of node id a decoded block at a time,
// restricted to the extent-row indexes inside the given half-open ranges
// (nil = the whole extent; an empty non-nil slice visits nothing).
// Zone-map pruning produces the ranges — blocks outside them are neither
// read nor decoded; extent bytes fetched are tallied into io (nil disables
// attribution). Safe for concurrent use: every call reads through ReadAt
// with private buffers.
func (r *Reader) NTBlocks(id lattice.NodeID, ranges []RowRange, io *IOStats, fn func(*NTBlock) error) error {
	nm, ok := r.m.NodeMeta(id)
	if !ok || nm.NTRows == 0 {
		return nil
	}
	if ranges == nil {
		ranges = []RowRange{{0, nm.NTRows}}
	}
	arity := 0
	if r.m.DimsInline {
		arity = r.nodeArity(id)
	}
	bf := &blockFetcher{
		r: r, f: r.ntF, rel: BlockRelNT, node: int64(id), base: nm.NTOff,
		c: nm.NTCodec, kinds: r.m.ntKinds(arity), rows: nm.NTRows,
		rawWidth: int64(r.m.ntRowWidth(arity)),
	}
	blk := NTBlock{Dims: make([][]int32, arity), Aggrs: make([][]float64, r.m.NumAggrs())}
	return bf.scan(ranges, io, func(db *DecodedBlock, lo, hi int64) error {
		first := arity // plain NT rows lead with the R-rowid column instead
		if !r.m.DimsInline {
			blk.RRowids, first = db.I64[0][lo:hi], 1
		}
		for k := range blk.Dims {
			blk.Dims[k] = db.I32[k][lo:hi]
		}
		for a := range blk.Aggrs {
			blk.Aggrs[a] = db.F64[first+a][lo:hi]
		}
		return fn(&blk)
	})
}

// NTRow is one decoded normal tuple. Exactly one of RRowid / Dims is
// meaningful, depending on Manifest.DimsInline.
type NTRow struct {
	RRowid int64
	Dims   []int32 // projected codes at the node's levels (CURE_DR only)
	Aggrs  []float64
}

// NTRows streams the normal tuples of node id one row at a time. The row
// passed to fn reuses internal buffers; copy what must outlive the call.
func (r *Reader) NTRows(id lattice.NodeID, fn func(row NTRow) error) error {
	row := NTRow{RRowid: -1, Aggrs: make([]float64, r.m.NumAggrs())}
	return r.NTBlocks(id, nil, nil, func(b *NTBlock) error {
		for i := 0; i < b.Len(); i++ {
			if b.RRowids != nil {
				row.RRowid = b.RRowids[i]
			}
			row.Dims = row.Dims[:0]
			for _, col := range b.Dims {
				row.Dims = append(row.Dims, col[i])
			}
			for a, col := range b.Aggrs {
				row.Aggrs[a] = col[i]
			}
			if err := fn(row); err != nil {
				return err
			}
		}
		return nil
	})
}

// CATBlock is a run of consecutive common-aggregate tuple references
// inside one decoded block, under NTBlock's aliasing rules. RRowids is nil
// under format (a): the source row-id lives in AGGREGATES.
type CATBlock struct {
	RRowids []int64
	ARowids []int64
}

// CATBlocks visits the CAT references of node id a decoded block at a
// time within the given extent-row ranges, with NTBlocks' range, I/O
// attribution and concurrency contract.
func (r *Reader) CATBlocks(id lattice.NodeID, ranges []RowRange, io *IOStats, fn func(*CATBlock) error) error {
	nm, ok := r.m.NodeMeta(id)
	if !ok || nm.CATRows == 0 {
		return nil
	}
	if ranges == nil {
		ranges = []RowRange{{0, nm.CATRows}}
	}
	bf := &blockFetcher{
		r: r, f: r.catF, rel: BlockRelCAT, node: int64(id), base: nm.CATOff,
		c: nm.CATCodec, kinds: r.m.catKinds(), rows: nm.CATRows,
		rawWidth: int64(r.m.catRowWidth()),
	}
	var blk CATBlock
	return bf.scan(ranges, io, func(db *DecodedBlock, lo, hi int64) error {
		if r.m.CatFormat == signature.FormatA {
			blk.ARowids = db.I64[0][lo:hi]
		} else {
			blk.RRowids, blk.ARowids = db.I64[0][lo:hi], db.I64[1][lo:hi]
		}
		return fn(&blk)
	})
}

// CATRow is one decoded common-aggregate tuple reference. RRowid is -1
// under format (a) (it lives in AGGREGATES).
type CATRow struct {
	RRowid int64
	ARowid int64
}

// CATRows streams the CAT references of node id one row at a time.
func (r *Reader) CATRows(id lattice.NodeID, fn func(row CATRow) error) error {
	return r.CATBlocks(id, nil, nil, func(b *CATBlock) error {
		row := CATRow{RRowid: -1}
		for i, ar := range b.ARowids {
			if b.RRowids != nil {
				row.RRowid = b.RRowids[i]
			}
			row.ARowid = ar
			if err := fn(row); err != nil {
				return err
			}
		}
		return nil
	})
}

// AggCursor reads AGGREGATES tuples for one goroutine. It keeps the last
// block it decoded, so a run of lookups inside one block reads and
// decodes it once, with or without a block cache.
type AggCursor struct {
	bf    *blockFetcher
	block int
	db    *DecodedBlock
}

// AggCursor returns a cursor over the AGGREGATES relation.
func (r *Reader) AggCursor() *AggCursor { return &AggCursor{bf: r.aggFetcher(false), block: -1} }

// Read fetches AGGREGATES tuple arowid into aggrs, attributing reads to
// io. Under format (a) the returned rrowid is the shared source row-id;
// under format (b) it is -1.
func (c *AggCursor) Read(arowid int64, aggrs []float64, io *IOStats) (int64, error) {
	r := c.bf.r
	if arowid < 0 || arowid >= r.m.AggRows {
		return 0, fmt.Errorf("storage: A-rowid %d out of range [0,%d)", arowid, r.m.AggRows)
	}
	if b := int(arowid / c.bf.c.BlockRows); b != c.block {
		db, err := c.bf.fetch(b, io)
		if err != nil {
			return 0, err
		}
		c.block, c.db = b, db
	}
	i := arowid % c.bf.c.BlockRows
	rrowid := int64(-1)
	off := 0
	if r.m.CatFormat == signature.FormatA {
		rrowid = c.db.I64[0][i]
		off = 1
	}
	for a := 0; a < r.m.NumAggrs(); a++ {
		aggrs[a] = c.db.F64[off+a][i]
	}
	return rrowid, nil
}

// AggregatesRaw decodes the entire AGGREGATES relation into one buffer of
// fixed-width rows (<R-rowid under format (a), aggrs…>) for
// DecodeAggregate; the query cache uses it to pin the relation in memory
// (§5.3 singles out AGGREGATES, together with the fact table, as the two
// relations worth caching).
func (r *Reader) AggregatesRaw() ([]byte, error) {
	width := r.m.aggRowWidth()
	buf := make([]byte, r.m.AggRows*int64(width))
	bf := r.aggFetcher(true) // one-shot pass: don't churn the block cache
	formatA := r.m.CatFormat == signature.FormatA
	aggs := make([]float64, r.m.NumAggrs())
	pos := 0
	for b := 0; b < bf.c.NumBlocks(); b++ {
		db, err := bf.fetch(b, nil)
		if err != nil {
			return nil, err
		}
		for i := 0; i < db.Rows; i++ {
			rec := buf[pos : pos+width]
			off, col := 0, 0
			if formatA {
				putInt64(rec, db.I64[0][i])
				off, col = 8, 1
			}
			for a := range aggs {
				aggs[a] = db.F64[col+a][i]
			}
			putAggrs(rec[off:], aggs)
			pos += width
		}
	}
	return buf, nil
}

// DecodeAggregate decodes row arowid from a buffer returned by
// AggregatesRaw.
func (r *Reader) DecodeAggregate(raw []byte, arowid int64, aggrs []float64) int64 {
	width := int64(r.m.aggRowWidth())
	rec := raw[arowid*width:]
	rrowid := int64(-1)
	off := 0
	if r.m.CatFormat == signature.FormatA {
		rrowid = getInt64(rec)
		off = 8
	}
	getAggrs(rec[off:], aggrs[:r.m.NumAggrs()])
	return rrowid
}

// nodeArity returns the grouping arity of node id.
func (r *Reader) nodeArity(id lattice.NodeID) int {
	levels := r.enum.Decode(id, nil)
	arity := 0
	for d, l := range levels {
		if !r.hier.Dims[d].IsAll(l) {
			arity++
		}
	}
	return arity
}

// PlanParent returns the parent of node id in the plan tree the cube was
// built with — the recorded one, else lattice.PlanParent — or false at ∅
// and at a phase root. The trivial tuples of id are stored along this
// walk.
func (r *Reader) PlanParent(id lattice.NodeID) (lattice.NodeID, bool) {
	if p, ok := r.planParents[id]; ok {
		return p, p != PlanRoot
	}
	return r.enum.PlanParent(id)
}

// PlanRoots returns the phase roots the build recorded, in id order.
func (r *Reader) PlanRoots() []lattice.NodeID {
	var roots []lattice.NodeID
	for id, p := range r.planParents {
		if p == PlanRoot {
			roots = append(roots, id)
		}
	}
	slices.Sort(roots)
	return roots
}

// VerifyChecksums recomputes the CRC-32 of every checksummed file and
// compares it with the manifest, returning the names of corrupted files
// (bit rot, truncation, or out-of-band edits). Cubes written before
// checksumming existed (no recorded sums) verify trivially.
func (r *Reader) VerifyChecksums() ([]string, error) {
	var bad []string
	for name, want := range r.m.Checksums {
		got, err := fileChecksum(filepath.Join(r.dir, name))
		if err != nil {
			return nil, err
		}
		if got != want {
			bad = append(bad, name)
		}
	}
	sort.Strings(bad)
	return bad, nil
}

// fileChecksum computes the CRC-32 (IEEE) of a whole file.
func fileChecksum(path string) (uint32, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	h := crc32.NewIEEE()
	if _, err := io.Copy(h, f); err != nil {
		return 0, err
	}
	return h.Sum32(), nil
}
