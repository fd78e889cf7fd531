package storage

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math/bits"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"cure/internal/hierarchy"
	"cure/internal/lattice"
	"cure/internal/obsv"
	"cure/internal/par"
	"cure/internal/signature"
)

// Finalize is one pass per relation file. For each node in ascending id a
// worker gathers the node's rows from the construction log, applies the
// node-local transform (CURE_DR projection, format-(a) narrowing, §5.3's
// row-id sort), encodes the rows into blocks — or, for a TT extent whose
// §5.3 bitmap is shorter, into one bitmap block — and folds the same
// in-memory rows into the extent's zone map.
// Whoever holds the commit lock appends every ready prefix result to the
// relation file in node order, which keeps the output byte-identical at
// every worker count. Nothing is written twice and nothing written is
// read back: the only bytes read are the logs.

// FinalizeStatsFile is the sidecar file finalize telemetry is persisted
// to. Timings can never live in the manifest: the manifest must stay
// byte-identical across worker counts (and across runs of equal input).
const FinalizeStatsFile = "finalize.json"

// FinalizeStats is the persisted record of one Finalize run.
type FinalizeStats struct {
	// Parallelism is the configured worker cap; Workers is what the
	// pipeline ran with (fewer when a file has fewer extents).
	Parallelism int `json:"parallelism"`
	Workers     int `json:"workers"`

	// Wall-clock seconds; their sum is the Finalize wall clock. CompactSec
	// is sealing the logs (spilling the rows still staged in memory),
	// CompressSec the four extent passes, CommitSec the hierarchy sidecar
	// and the manifest. ZonesSec is always 0 — zone maps are folded inside
	// the extent passes — and stays only because benchmarks/cubemark reads
	// it; it goes with the next benchmark PR.
	CompactSec  float64 `json:"compact_sec"`
	CompressSec float64 `json:"compress_sec"`
	ZonesSec    float64 `json:"zones_sec,omitempty"`
	CommitSec   float64 `json:"commit_sec"`

	// CPU-time sums inside the extent passes, by the work done; they
	// overlap across workers, so they may exceed CompressSec. GatherSec is
	// reading a node's rows from the log plus the node-local transform.
	GatherSec   float64 `json:"gather_sec"`
	EncodeSec   float64 `json:"encode_sec"`
	ZoneFoldSec float64 `json:"zone_fold_sec"`
	WriteSec    float64 `json:"write_sec"`

	Extents      int64            `json:"extents"`
	Blocks       int64            `json:"blocks"`
	Encodings    map[string]int64 `json:"encodings,omitempty"`
	ZoneExtents  int64            `json:"zone_extents"`
	CommitStalls int64            `json:"commit_stalls"`

	// WorkerRawBytes is the raw extent volume each worker slot processed
	// (slot 0 is the calling goroutine) — the pipeline's skew record.
	WorkerRawBytes []int64 `json:"worker_raw_bytes,omitempty"`
}

// WriteFinalizeStats persists the finalize sidecar of a cube directory.
func WriteFinalizeStats(dir string, st *FinalizeStats) error {
	data, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, FinalizeStatsFile), append(data, '\n'), 0o644)
}

// ReadFinalizeStats loads the finalize sidecar of a cube directory.
func ReadFinalizeStats(dir string) (*FinalizeStats, error) {
	data, err := os.ReadFile(filepath.Join(dir, FinalizeStatsFile))
	if err != nil {
		return nil, err
	}
	st := &FinalizeStats{}
	if err := json.Unmarshal(data, st); err != nil {
		return nil, fmt.Errorf("storage: finalize sidecar: %w", err)
	}
	return st, nil
}

// Finalize turns the construction logs into the cube: the four relation
// files, the hierarchy sidecar and, last, the manifest — the directory
// opens as a cube only once the manifest has been renamed into place.
// catFormat is the format the signature pool locked (FormatUndecided is
// acceptable when no CATs exist). A failed Finalize removes what it wrote.
func (w *Writer) Finalize(catFormat signature.Format) (*Manifest, error) {
	if w.finalized {
		return nil, errors.New("storage: Finalize called twice")
	}
	w.finalized = true
	m, err := w.finalize(catFormat)
	if err != nil {
		w.discard()
		return nil, err
	}
	return m, nil
}

func (w *Writer) finalize(catFormat signature.Format) (*Manifest, error) {
	if w.catFormat == signature.FormatUndecided {
		w.catFormat = catFormat
	} else if catFormat != signature.FormatUndecided && catFormat != w.catFormat {
		return nil, fmt.Errorf("storage: pool format %v disagrees with written AGGREGATES format %v", catFormat, w.catFormat)
	}
	if w.catFormat == signature.FormatUndecided {
		w.catFormat = signature.FormatNT // no CATs anywhere; pick the degenerate format
	}
	m := &Manifest{
		Version:     manifestVersion,
		AggSpecs:    w.opts.AggSpecs,
		CatFormat:   w.catFormat,
		DimsInline:  w.opts.DimsInline,
		PlanParents: w.planParents,
		FactFile:    w.opts.FactFile,
		FactRows:    w.opts.FactRows,
		AggRows:     w.aggRows,
		Nodes:       map[string]NodeMeta{},
		Iceberg:     w.opts.Iceberg,
	}
	// A cube being rebuilt in place stops being one before its files change.
	if err := os.Remove(filepath.Join(w.opts.Dir, ManifestFile)); err != nil && !os.IsNotExist(err) {
		return nil, err
	}

	fin := w.newFinState(m)
	defer fin.closeFiles()
	// AGGREGATES goes before CAT: format-(a) CAT zone folds dereference
	// its R-rowid column, which the AGGREGATES pass leaves in memory.
	for rel := relNT; rel < numRels; rel++ {
		if err := fin.writeRelation(rel); err != nil {
			return nil, err
		}
	}

	commitStart := time.Now()
	commitSpan := w.finSpan.Child("commit")
	hier, err := fin.create(HierFile)
	if err != nil {
		return nil, err
	}
	if err := hierarchy.WriteSchema(hier, w.opts.Hier); err != nil {
		return nil, err
	}
	if err := hier.close(); err != nil {
		return nil, err
	}
	m.Checksums = map[string]uint32{}
	for _, f := range fin.files {
		m.Checksums[f.name] = f.crc
		switch f.name {
		case NTFile:
			m.Sizes.NT = f.size
		case TTFile:
			m.Sizes.TT = f.size
		case CATFile:
			m.Sizes.CAT = f.size
		case AggFile:
			m.Sizes.Agg = f.size
		case HierFile:
			m.Sizes.Hier = f.size
		}
	}
	if reg := w.opts.Metrics; reg != nil {
		reg.Gauge("storage.size.nt").Set(m.Sizes.NT)
		reg.Gauge("storage.size.tt").Set(m.Sizes.TT)
		reg.Gauge("storage.size.cat").Set(m.Sizes.CAT)
		reg.Gauge("storage.size.agg").Set(m.Sizes.Agg)
		reg.Gauge("storage.nodes").Set(int64(len(m.Nodes)))
	}
	if err := WriteManifest(w.opts.Dir, m); err != nil {
		return nil, err
	}
	commitSpan.End()
	fin.stats.CommitSec = time.Since(commitStart).Seconds()
	return m, fin.finish()
}

// relKind names the four relation files in the order Finalize writes them.
type relKind uint8

const (
	relNT relKind = iota
	relTT
	relAgg
	relCAT
	numRels
)

var relFiles = [numRels]string{relNT: NTFile, relTT: TTFile, relAgg: AggFile, relCAT: CATFile}

// extentFile is one output file of Finalize: created once, appended to
// in commit order, its size and CRC-32 kept as the bytes go by so that
// the commit step does not read the file back.
type extentFile struct {
	name string
	f    *os.File
	bw   *bufio.Writer
	size int64
	crc  uint32
}

func (e *extentFile) Write(p []byte) (int, error) {
	n, err := e.bw.Write(p)
	e.crc = crc32.Update(e.crc, crc32.IEEETable, p[:n])
	e.size += int64(n)
	return n, err
}

func (e *extentFile) close() error {
	if e.f == nil {
		return nil
	}
	f := e.f
	e.f = nil
	if err := e.bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// zoneLayout is the zone-map layout of a build, nil when indexing is off
// (negative ZoneBlockRows, no resolver, or a slot-less schema).
func (w *Writer) zoneLayout() *ZoneLayout {
	if w.opts.ZoneBlockRows < 0 || w.opts.Resolver == nil {
		return nil
	}
	if zl := NewZoneLayout(w.opts.Hier); zl.slots > 0 {
		return zl
	}
	return nil
}

// resolveChunkRows caps the row-ids handed to Options.Resolver in one
// call, which bounds a worker's resolved-column scratch.
const resolveChunkRows = 64 << 10

// resolve fills fw.base with the base-level dimension codes of rowids.
// Each pipeline worker resolves into its own columns; Options.Resolver
// must therefore be safe for concurrent calls when Options.Parallelism > 1.
func (fin *finState) resolve(fw *finalizeWorker, rowids []int64) error {
	if fw.base == nil {
		fw.base = make([][]int32, fin.w.opts.Hier.NumDims())
	}
	for d := range fw.base {
		fw.base[d] = slices.Grow(fw.base[d][:0], len(rowids))[:len(rowids)]
	}
	return fin.w.opts.Resolver(rowids, fw.base)
}

// zoneMode says how an extent's raw rows map to zone-map codes.
type zoneMode uint8

const (
	zoneNone   zoneMode = iota
	zoneRowID           // resolve the int64 R-rowid in column 0 (plain NT, TT ids, format-(b) CAT)
	zoneAggRef          // format-(a) CAT: column 0 is an A-rowid into AGGREGATES
)

// extentResult is a processed extent waiting for its ordered commit.
type extentResult struct {
	id   lattice.NodeID
	rows int64
	// enc is what the committer appends: the encoded blocks.
	enc      []byte
	codec    *ExtentCodec
	zone     *ZoneIndex
	rawBytes int64
	// rowIDs is the AGGREGATES R-rowid column, kept under format (a) for
	// the CAT zone folds.
	rowIDs                     []int64
	slot                       int
	gatherNs, encodeNs, zoneNs int64
}

// finState carries one Finalize run's pipeline state and metric bindings
// across the relation passes.
type finState struct {
	w     *Writer
	m     *Manifest
	zones *ZoneLayout
	// blockRows is the rows per encoded block (and, whenever zone maps
	// are on, per zone-map block, so pruning skips whole blocks).
	blockRows int64
	// aggRRows is the R-rowid column of AGGREGATES under format (a), set
	// when the AGGREGATES extent commits.
	aggRRows []int64
	// files are the output files in creation order.
	files []*extentFile

	stats       FinalizeStats
	workerBytes []int64

	cExtents, cBlocks    *obsv.Counter // storage.codec.*
	cRawBytes, cEncBytes *obsv.Counter
	cFinExtents          *obsv.Counter
	cFinBlocks           *obsv.Counter
	cStalls              *obsv.Counter
	cZoneExts, cZoneBlks *obsv.Counter
	// storage.finalize.{gather,encode,zone_fold,write}_us: the pass's CPU
	// time by the work done, summed over workers.
	cGatherUs, cEncodeUs, cZoneUs, cWriteUs *obsv.Counter
}

func (w *Writer) newFinState(m *Manifest) *finState {
	reg := w.opts.Metrics
	fin := &finState{
		w:           w,
		m:           m,
		zones:       w.zoneLayout(),
		blockRows:   int64(w.opts.ZoneBlockRows),
		cExtents:    reg.Counter("storage.codec.extents"),
		cBlocks:     reg.Counter("storage.codec.blocks"),
		cRawBytes:   reg.Counter("storage.codec.raw_bytes"),
		cEncBytes:   reg.Counter("storage.codec.encoded_bytes"),
		cFinExtents: reg.Counter("storage.finalize.extents"),
		cFinBlocks:  reg.Counter("storage.finalize.blocks"),
		cStalls:     reg.Counter("storage.finalize.commit_stalls"),
		cZoneExts:   reg.Counter("storage.zone.extents"),
		cZoneBlks:   reg.Counter("storage.zone.blocks"),
		cGatherUs:   reg.Counter("storage.finalize.gather_us"),
		cEncodeUs:   reg.Counter("storage.finalize.encode_us"),
		cZoneUs:     reg.Counter("storage.finalize.zone_fold_us"),
		cWriteUs:    reg.Counter("storage.finalize.write_us"),
	}
	if fin.blockRows <= 0 {
		fin.blockRows = DefaultZoneBlockRows
	}
	fin.stats.Parallelism = max(w.opts.Parallelism, 1)
	fin.stats.Workers = 1
	fin.stats.Encodings = map[string]int64{}
	return fin
}

func (fin *finState) create(name string) (*extentFile, error) {
	f, err := os.Create(filepath.Join(fin.w.opts.Dir, name))
	if err != nil {
		return nil, err
	}
	e := &extentFile{name: name, f: f, bw: bufio.NewWriterSize(f, 1<<20)}
	fin.files = append(fin.files, e)
	return e, nil
}

func (fin *finState) closeFiles() {
	for _, f := range fin.files {
		f.close()
	}
}

// workers is the pipeline's worker count for one file of jobs extents:
// the calling goroutine plus up to Parallelism-1 helpers. Finalize runs
// after every other phase of a build, so nothing else competes for them.
func (fin *finState) workers(jobs int) int {
	n := max(min(fin.w.opts.Parallelism, jobs), 1)
	fin.stats.Workers = max(fin.stats.Workers, n)
	return n
}

// writeRelation is the whole life of one relation file: seal its log,
// create the file, run the extents through the pipeline, close it and
// drop the log.
func (fin *finState) writeRelation(rel relKind) error {
	sp := fin.w.finSpan.Child("extents." + strings.TrimSuffix(relFiles[rel], ".bin"))
	defer sp.End()
	log := fin.w.logs[rel]
	start := time.Now()
	if err := log.finish(); err != nil {
		return err
	}
	sealed := time.Now()
	fin.stats.CompactSec += sealed.Sub(start).Seconds()
	out, err := fin.create(relFiles[rel])
	if err != nil {
		return err
	}
	if err := fin.runExtents(rel, log.nodeIDs(), out); err != nil {
		return err
	}
	if err := out.close(); err != nil {
		return err
	}
	log.remove()
	sp.AddBytesWritten(out.size)
	fin.stats.CompressSec += time.Since(sealed).Seconds()
	return nil
}

// finalizeWorker is one pipeline worker's scratch state, reused across
// the extents the worker claims.
type finalizeWorker struct {
	raw, xform []byte
	ids        []int64  // sortExtent output, read by encodeBitmapBlock
	words      []uint64 // sortRowIDs' bitset
	levels     []int
	rowids     []int64   // the chunk being resolved
	base       [][]int32 // its base-level codes, one column per dimension
	codes      []int32   // one CURE_DR row's projected codes
}

// buildExtent produces one node's extent of one relation: gather the rows
// from the log, transform them into their final shape and order, encode
// the blocks into enc (recycled from a committed result when possible),
// and fold the same rows into the zone map.
func (fin *finState) buildExtent(fw *finalizeWorker, rel relKind, id lattice.NodeID, enc []byte) (*extentResult, error) {
	m := fin.m
	t0 := time.Now()
	raw, err := fin.w.logs[rel].gather(id, &fw.raw)
	if err != nil {
		return nil, err
	}
	res := &extentResult{id: id}
	plus := !fin.w.opts.plainLayout
	var kinds []colKind
	zone := zoneRowID
	switch rel {
	case relNT:
		arity := 0
		if m.DimsInline {
			// The projection resolves every row and folds the zone map as
			// it goes; its rows no longer carry an R-rowid.
			if raw, arity, err = fin.projectNT(fw, id, raw, res); err != nil {
				return nil, err
			}
			zone = zoneNone
		}
		kinds = m.ntKinds(arity)
	case relTT:
		kinds = ttKinds()
		if plus {
			err = fw.sortExtent(raw, rel, id)
		}
	case relAgg:
		kinds = m.aggKinds()
		zone = zoneNone
		if m.CatFormat != signature.FormatA {
			raw = dropLeadingColumn(raw, aggLogRowWidth(m.NumAggrs()))
		}
	case relCAT:
		kinds = m.catKinds()
		if m.CatFormat == signature.FormatA {
			raw = dropLeadingColumn(raw, catLogRowWidth)
			zone = zoneAggRef
			if plus {
				err = fw.sortExtent(raw, rel, id)
			}
		}
	}
	if err != nil {
		return nil, err
	}
	width := 0
	for _, k := range kinds {
		width += k.width()
	}
	res.rows = int64(len(raw) / width)
	res.rawBytes = int64(len(raw))
	t1 := time.Now()
	res.gatherNs = t1.Sub(t0).Nanoseconds() - res.zoneNs

	be := newBlockEncoder(kinds)
	codec := &ExtentCodec{
		BlockRows: fin.blockRows,
		RawBytes:  res.rawBytes,
		Offs:      []int64{0},
		Encodings: map[string]int64{},
	}
	enc = enc[:0]
	for r0 := int64(0); r0 < res.rows; r0 += fin.blockRows {
		n := min(fin.blockRows, res.rows-r0)
		enc = be.encodeBlock(raw[r0*int64(width):], int(n), enc)
		codec.Offs = append(codec.Offs, int64(len(enc)))
		for _, tag := range be.tags {
			codec.Encodings[encName(tag)]++
		}
	}
	// §5.3: a TT extent becomes a bitmap over [first, last] when that one
	// block is shorter than the id blocks. It is encoded past the end of
	// enc, then moved to its front.
	if rel == relTT && plus {
		if bm, ok := encodeBitmapBlock(enc[len(enc):], fw.ids, len(enc)); ok {
			enc = append(enc[:0], bm...)
			codec = &ExtentCodec{
				BlockRows: res.rows,
				RawBytes:  res.rawBytes,
				Offs:      []int64{0, int64(len(enc))},
				Encodings: map[string]int64{encName(encBitmap): 1},
			}
		}
	}
	res.enc, res.codec = enc, codec
	t2 := time.Now()
	res.encodeNs = t2.Sub(t1).Nanoseconds()

	if fin.zones != nil && zone != zoneNone && res.rows >= fin.blockRows {
		if res.zone, err = fin.foldExtentZones(fw, zone, raw, width); err != nil {
			return nil, err
		}
		res.zoneNs = time.Since(t2).Nanoseconds()
	}
	if rel == relAgg && fin.zones != nil && m.CatFormat == signature.FormatA {
		res.rowIDs = make([]int64, res.rows)
		for r := range res.rowIDs {
			res.rowIDs[r] = getInt64(raw[r*width:])
		}
	}
	return res, nil
}

// projectNT is the CURE_DR transform: every log row's R-rowid is resolved
// to base dimension codes and projected onto the node's own levels. It
// returns the node's arity. With zone maps on, each resolved chunk is
// also folded into res.zone, by the same rule as every other extent, and
// the fold's time goes to res.zoneNs.
func (fin *finState) projectNT(fw *finalizeWorker, id lattice.NodeID, raw []byte, res *extentResult) ([]byte, int, error) {
	w := fin.w
	hier := w.opts.Hier
	fw.levels = w.enum.Decode(id, fw.levels)
	arity := 0
	for d, l := range fw.levels {
		if !hier.Dims[d].IsAll(l) {
			arity++
		}
	}
	aggBytes := 8 * len(w.opts.AggSpecs)
	inW, outW := 8+aggBytes, 4*arity+aggBytes
	rows := len(raw) / inW
	var zb *zoneBuilder
	if fin.zones != nil && int64(rows) >= fin.blockRows {
		zb = newZoneBuilder(int(fin.blockRows), fin.zones.slots)
	}
	if cap(fw.xform) < rows*outW {
		fw.xform = make([]byte, rows*outW)
	}
	out := fw.xform[:rows*outW]
	fw.codes = slices.Grow(fw.codes[:0], arity)
	for r0 := 0; r0 < rows; r0 += resolveChunkRows {
		n := min(resolveChunkRows, rows-r0)
		fw.rowids = fw.rowids[:0]
		for r := r0; r < r0+n; r++ {
			fw.rowids = append(fw.rowids, getInt64(raw[r*inW:]))
		}
		if err := fin.resolve(fw, fw.rowids); err != nil {
			return nil, 0, fmt.Errorf("storage: resolving dims of node %d: %w", id, err)
		}
		for i := 0; i < n; i++ {
			src, dst := raw[(r0+i)*inW:(r0+i+1)*inW], out[(r0+i)*outW:(r0+i+1)*outW]
			proj := fw.codes[:0]
			for d, l := range fw.levels {
				if !hier.Dims[d].IsAll(l) {
					proj = append(proj, hier.Dims[d].MapCode(fw.base[d][i], l))
				}
			}
			putDims(dst, proj)
			copy(dst[4*arity:], src[8:])
		}
		if zb != nil {
			t := time.Now()
			fin.zones.fold(zb, fw.base, n)
			res.zoneNs += time.Since(t).Nanoseconds()
		}
	}
	if zb != nil {
		res.zone = zb.finish()
	}
	return out, arity, nil
}

// sortExtent sorts node id's extent of bare int64 rows in place — TT
// R-rowids or format-(a) CAT A-rowids, which §5.3 sorts for sequential
// scans — and leaves the sorted values in fw.ids.
func (fw *finalizeWorker) sortExtent(raw []byte, rel relKind, id lattice.NodeID) (err error) {
	fw.ids = fw.ids[:0]
	for off := 0; off < len(raw); off += 8 {
		fw.ids = append(fw.ids, getInt64(raw[off:]))
	}
	if fw.words, err = sortRowIDs(fw.ids, fw.words); err != nil {
		return fmt.Errorf("storage: finalize: %s extent of node %d: %w", relFiles[rel], id, err)
	}
	for i, v := range fw.ids {
		putInt64(raw[8*i:], v)
	}
	return nil
}

// sortRowIDs sorts ids ascending in place. A node's TT R-rowids, and its
// format-(a) A-rowids, are distinct by construction, so a repeated id is
// an error. When the ids span fewer than 64 values per id — exactly where
// a bitmap block can still be shorter than the id blocks (see
// encodeBitmapBlock) — the sort is that bitmap: each id sets its bit in a
// bitset over [min, max], and a pass over the words reads them back in
// order, in O(n + span/64). Sparser ids take slices.Sort. words is the
// bitset's scratch; the grown slice is returned for reuse.
func sortRowIDs(ids []int64, words []uint64) ([]uint64, error) {
	if len(ids) < 2 {
		return words, nil
	}
	lo, hi := ids[0], ids[0]
	for _, v := range ids[1:] {
		lo, hi = min(lo, v), max(hi, v)
	}
	span := uint64(hi) - uint64(lo)
	if span >= 64*uint64(len(ids)) {
		slices.Sort(ids)
		for i := 1; i < len(ids); i++ {
			if ids[i] == ids[i-1] {
				return words, fmt.Errorf("row-id %d repeats", ids[i])
			}
		}
		return words, nil
	}
	n := int(span/64) + 1
	words = slices.Grow(words[:0], n)[:n]
	clear(words)
	for _, v := range ids {
		off := uint64(v) - uint64(lo)
		bit := uint64(1) << (off & 63)
		if words[off>>6]&bit != 0 {
			return words, fmt.Errorf("row-id %d repeats", v)
		}
		words[off>>6] |= bit
	}
	k := 0
	for i, w := range words {
		for ; w != 0; w &= w - 1 {
			ids[k] = lo + int64(i<<6+bits.TrailingZeros64(w))
			k++
		}
	}
	return words, nil
}

// dropLeadingColumn removes the first 8-byte column of every width-byte
// row in place: the R-rowid of format-(a) CAT rows (it lives in
// AGGREGATES) and of format-(b) AGGREGATES rows (there is none).
func dropLeadingColumn(raw []byte, width int) []byte {
	rows := len(raw) / width
	for r := 0; r < rows; r++ {
		copy(raw[r*(width-8):], raw[r*width+8:(r+1)*width])
	}
	return raw[:rows*(width-8)]
}

// foldExtentZones builds the zone map of one row-id extent from the rows
// already in memory for encoding, in their final order — exactly the
// order query-time scans visit. A bitmap TT extent folds in zone-sized
// blocks like any other: its ids are sorted in raw, the order the bitmap
// decodes to. Each chunk of rows is resolved to base codes and folded.
func (fin *finState) foldExtentZones(fw *finalizeWorker, zone zoneMode, raw []byte, width int) (*ZoneIndex, error) {
	zb := newZoneBuilder(int(fin.blockRows), fin.zones.slots)
	for len(raw) > 0 {
		chunk := raw[:min(len(raw), resolveChunkRows*width)]
		raw = raw[len(chunk):]
		fw.rowids = fw.rowids[:0]
		for off := 0; off < len(chunk); off += width {
			id := getInt64(chunk[off:])
			if zone == zoneAggRef {
				if id < 0 || id >= int64(len(fin.aggRRows)) {
					return nil, fmt.Errorf("storage: finalize: A-rowid %d outside AGGREGATES (%d rows)", id, len(fin.aggRRows))
				}
				id = fin.aggRRows[id]
			}
			fw.rowids = append(fw.rowids, id)
		}
		if err := fin.resolve(fw, fw.rowids); err != nil {
			return nil, fmt.Errorf("storage: zone map: %w", err)
		}
		fin.zones.fold(zb, fw.base, len(fw.rowids))
	}
	return zb.finish(), nil
}

// commit appends one extent to its file and records where it landed.
// Called with the commit lock held, in node order, so offsets and totals
// are deterministic.
func (fin *finState) commit(rel relKind, res *extentResult, out *extentFile) error {
	off := out.size
	t0 := time.Now()
	if _, err := out.Write(res.enc); err != nil {
		return err
	}
	st := &fin.stats
	writeNs := time.Since(t0).Nanoseconds()

	key := nodeKey(res.id)
	nm := fin.m.Nodes[key]
	switch rel {
	case relNT:
		nm.NTOff, nm.NTRows, nm.NTCodec, nm.NTZones = off, res.rows, res.codec, res.zone
	case relTT:
		nm.TTOff, nm.TTRows, nm.TTCodec, nm.TTZones = off, res.rows, res.codec, res.zone
	case relCAT:
		nm.CATOff, nm.CATRows, nm.CATCodec, nm.CATZones = off, res.rows, res.codec, res.zone
	case relAgg:
		fin.m.AggCodec, fin.aggRRows = res.codec, res.rowIDs
	}
	if rel != relAgg {
		fin.m.Nodes[key] = nm
	}

	c := res.codec
	nb := int64(c.NumBlocks())
	fin.cExtents.Inc()
	fin.cBlocks.Add(nb)
	fin.cRawBytes.Add(c.RawBytes)
	fin.cEncBytes.Add(c.EncodedBytes())
	fin.cFinExtents.Inc()
	fin.cFinBlocks.Add(nb)
	st.Extents++
	st.Blocks += nb
	for name, n := range c.Encodings {
		st.Encodings[name] += n
	}
	st.GatherSec += float64(res.gatherNs) / 1e9
	st.EncodeSec += float64(res.encodeNs) / 1e9
	st.ZoneFoldSec += float64(res.zoneNs) / 1e9
	st.WriteSec += float64(writeNs) / 1e9
	fin.cGatherUs.Add(res.gatherNs / 1e3)
	fin.cEncodeUs.Add(res.encodeNs / 1e3)
	fin.cZoneUs.Add(res.zoneNs / 1e3)
	fin.cWriteUs.Add(writeNs / 1e3)
	for len(fin.workerBytes) <= res.slot {
		fin.workerBytes = append(fin.workerBytes, 0)
	}
	fin.workerBytes[res.slot] += res.rawBytes
	if res.zone != nil {
		fin.cZoneExts.Inc()
		fin.cZoneBlks.Add(int64(res.zone.NumBlocks()))
		st.ZoneExtents++
	}
	return nil
}

// finish publishes the worker-skew gauges and writes the sidecar.
func (fin *finState) finish() error {
	st := &fin.stats
	st.WorkerRawBytes = fin.workerBytes
	if reg := fin.w.opts.Metrics; reg != nil {
		reg.Gauge("storage.finalize.workers").Set(int64(st.Workers))
		if len(fin.workerBytes) > 0 {
			var sum int64
			for _, b := range fin.workerBytes {
				sum += b
			}
			reg.Gauge("storage.finalize.skew.max_bytes").Set(slices.Max(fin.workerBytes))
			reg.Gauge("storage.finalize.skew.mean_bytes").Set(sum / int64(len(fin.workerBytes)))
		}
	}
	return WriteFinalizeStats(fin.w.opts.Dir, st)
}

// runExtents runs one relation's extents through par.Ordered: workers
// build extents in any order and the commits append them in ascending
// node id, so the file holds the sequential pass's bytes at any worker
// count (DESIGN.md "Workers"). A committed result's encode buffer goes
// back to spare for the next extent a worker builds.
func (fin *finState) runExtents(rel relKind, ids []lattice.NodeID, out *extentFile) error {
	lim := par.NewLimiter(fin.workers(len(ids)))
	fws := make([]*finalizeWorker, lim.Slots())
	var (
		spareMu sync.Mutex
		spare   [][]byte
	)
	relName := strings.TrimSuffix(relFiles[rel], ".bin")
	stalls, err := par.Ordered(lim, len(ids), func(slot, i int) (*extentResult, error) {
		defer obsv.CapturePanic(fin.w.opts.Metrics, func() string {
			return fmt.Sprintf("finalize worker slot=%d relation=%s node=%d", slot, relName, ids[i])
		})
		if fws[slot] == nil {
			fws[slot] = &finalizeWorker{}
		}
		var buf []byte
		spareMu.Lock()
		if n := len(spare); n > 0 {
			buf, spare = spare[n-1], spare[:n-1]
		}
		spareMu.Unlock()
		res, err := fin.buildExtent(fws[slot], rel, ids[i], buf)
		if err != nil {
			return nil, err
		}
		res.slot = slot
		return res, nil
	}, func(_ int, res *extentResult) error {
		if err := fin.commit(rel, res, out); err != nil {
			return err
		}
		spareMu.Lock()
		spare = append(spare, res.enc)
		spareMu.Unlock()
		return nil
	})
	fin.cStalls.Add(stalls)
	fin.stats.CommitStalls += stalls
	return err
}
