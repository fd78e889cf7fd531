package storage

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// The extent format. CURE's whole point (§5) is a small stored cube, and
// its relations — 8-byte row-ids and IEEE-754 aggregates — are heavily
// repetitive: CURE+ sorts TT row-ids and format-(a) CAT rows, COUNT
// aggregates are tiny integers, and CURE_DR dimension columns are
// low-cardinality codes. Finalize writes each extent as blocks of
// ZoneBlockRows rows stored column-major; every column of every block
// independently picks the cheapest of a handful of lightweight encodings,
// recorded in a per-block header so the reader dispatches once per
// column, not per row. Block byte offsets live in the manifest
// (ExtentCodec), so zone-map pruning skips the read *and* the decode of
// pruned blocks.
//
// Block layout:
//
//	uvarint rowCount
//	per column: 1 byte encoding tag, uvarint payloadLen
//	payloads, concatenated in column order
//
// Per-column encodings (tag → payload):
//
//	encRaw      fixed-width little-endian values (any column kind)
//	encBitpack  int32: [min int32 LE][width byte][ceil(n·width/8) packed]
//	            (FOR — frame of reference: values stored min-relative in
//	            ceil(log2(range+1)) bits)
//	encRLE      int32: runs of (uvarint len, zigzag-varint value)
//	            float64: runs of (uvarint len, 8-byte LE bit pattern)
//	encDelta    int64: zigzag varints — first the value, then deltas
//	encIntFloat float64 holding exact integers: zigzag varints of int64(v)
//	encBitmap   int64, strictly ascending: [zigzag-varint first][uvarint
//	            span][ceil(span/8) bytes, LSB first] — bit i set means
//	            first+i is in the column, span = last-first+1
//
// Selection is brute force per column per block: encode the applicable
// candidates and keep the shortest. Blocks are small (ZoneBlockRows rows,
// 256 by default), so the write-side cost is negligible next to the
// build's sorts. encBitmap is not a per-block candidate: it is §5.3's
// CURE+ TT bitmap, which Finalize weighs against a whole extent (see
// encodeBitmapBlock).

// Column kinds of the extent schemas.
type colKind uint8

const (
	colI64 colKind = iota // row-ids (8-byte)
	colI32                // dimension-level codes (4-byte, CURE_DR)
	colF64                // aggregates (8-byte IEEE-754)
)

func (k colKind) width() int {
	if k == colI32 {
		return 4
	}
	return 8
}

// Encoding tags recorded in block headers.
const (
	encRaw      byte = 0
	encBitpack  byte = 1
	encRLE      byte = 2
	encDelta    byte = 3
	encIntFloat byte = 4
	encBitmap   byte = 5
)

// encName maps a tag to its histogram name (curectl inspect).
func encName(tag byte) string {
	switch tag {
	case encRaw:
		return "raw"
	case encBitpack:
		return "bitpack"
	case encRLE:
		return "rle"
	case encDelta:
		return "delta"
	case encIntFloat:
		return "intfloat"
	case encBitmap:
		return "bitmap"
	}
	return fmt.Sprintf("enc%d", tag)
}

// ExtentCodec is the manifest record of one compressed extent: the block
// granularity, the pre-compression footprint, the encoding histogram
// (column-blocks per tag name), and the block byte offsets relative to
// the extent's file offset (len = NumBlocks+1, so block b occupies
// [Offs[b], Offs[b+1])). Only an empty extent has a nil *ExtentCodec.
type ExtentCodec struct {
	BlockRows int64            `json:"block_rows"`
	RawBytes  int64            `json:"raw_bytes"`
	Offs      []int64          `json:"offs"`
	Encodings map[string]int64 `json:"encodings,omitempty"`
}

// NumBlocks returns the number of blocks of the extent.
func (c *ExtentCodec) NumBlocks() int {
	if c == nil || len(c.Offs) == 0 {
		return 0
	}
	return len(c.Offs) - 1
}

// check validates the record against its extent's row count, so that
// the read paths can index Offs by block number without further checks.
func (c *ExtentCodec) check(rows int64) error {
	if c == nil {
		if rows != 0 {
			return fmt.Errorf("%d rows but no block index", rows)
		}
		return nil
	}
	blocks := int64(0)
	if rows > 0 && c.BlockRows > 0 {
		blocks = (rows-1)/c.BlockRows + 1
	}
	if rows < 0 || c.BlockRows <= 0 || int64(len(c.Offs)) != blocks+1 || c.Offs[0] != 0 {
		return fmt.Errorf("block index does not cover %d rows", rows)
	}
	for b := 1; b < len(c.Offs); b++ {
		if c.Offs[b] < c.Offs[b-1] {
			return fmt.Errorf("block %d ends before it starts", b-1)
		}
	}
	return nil
}

// EncodedBytes returns the extent's encoded footprint.
func (c *ExtentCodec) EncodedBytes() int64 {
	if c == nil || len(c.Offs) == 0 {
		return 0
	}
	return c.Offs[len(c.Offs)-1]
}

// BytesForRanges returns the encoded bytes of the blocks overlapping the
// given row ranges (nil ranges = the whole extent) — the read cost
// EXPLAIN estimates for an extent.
func (c *ExtentCodec) BytesForRanges(ranges []RowRange) int64 {
	if c == nil {
		return 0
	}
	if ranges == nil {
		return c.EncodedBytes()
	}
	var n int64
	nb := c.NumBlocks()
	for _, rg := range ranges {
		if rg.Lo >= rg.Hi {
			continue
		}
		b0 := int(rg.Lo / c.BlockRows)
		b1 := int((rg.Hi - 1) / c.BlockRows)
		if b0 < 0 {
			b0 = 0
		}
		if b1 >= nb {
			b1 = nb - 1
		}
		for b := b0; b <= b1; b++ {
			n += c.Offs[b+1] - c.Offs[b]
		}
	}
	return n
}

// DecodedBlock is one block decoded column-major into typed buffers. The
// slices are indexed by column position; only the entry matching the
// column's kind is non-nil. Blocks handed out by a BlockCache are shared
// between queries and must be treated as immutable.
type DecodedBlock struct {
	Rows int
	I64  [][]int64
	I32  [][]int32
	F64  [][]float64
}

// reset prepares the block for reuse with the given schema and row count,
// recycling column capacity (zero allocations once warmed up).
func (db *DecodedBlock) reset(kinds []colKind, rows int) {
	db.Rows = rows
	grow := func(n int) {
		if cap(db.I64) < n {
			db.I64 = make([][]int64, n)
			db.I32 = make([][]int32, n)
			db.F64 = make([][]float64, n)
		}
		db.I64, db.I32, db.F64 = db.I64[:n], db.I32[:n], db.F64[:n]
	}
	grow(len(kinds))
	for i, k := range kinds {
		switch k {
		case colI64:
			if cap(db.I64[i]) < rows {
				db.I64[i] = make([]int64, rows)
			}
			db.I64[i] = db.I64[i][:rows]
		case colI32:
			if cap(db.I32[i]) < rows {
				db.I32[i] = make([]int32, rows)
			}
			db.I32[i] = db.I32[i][:rows]
		case colF64:
			if cap(db.F64[i]) < rows {
				db.F64[i] = make([]float64, rows)
			}
			db.F64[i] = db.F64[i][:rows]
		}
	}
}

// --- varint / zigzag primitives -------------------------------------------

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

func appendUvarint(dst []byte, u uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], u)
	return append(dst, tmp[:n]...)
}

// --- int32 codecs ---------------------------------------------------------

// encodeBitpack32 appends the FOR bit-packed payload of vals. An empty
// column encodes to an empty payload.
func encodeBitpack32(dst []byte, vals []int32) []byte {
	if len(vals) == 0 {
		return dst
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	width := uint(bits.Len64(uint64(int64(hi) - int64(lo))))
	var b4 [4]byte
	binary.LittleEndian.PutUint32(b4[:], uint32(lo))
	dst = append(dst, b4[:]...)
	dst = append(dst, byte(width))
	var acc uint64
	var nb uint
	for _, v := range vals {
		acc |= (uint64(int64(v)-int64(lo)) & (1<<width - 1)) << nb
		nb += width
		for nb >= 8 {
			dst = append(dst, byte(acc))
			acc >>= 8
			nb -= 8
		}
	}
	if nb > 0 {
		dst = append(dst, byte(acc))
	}
	return dst
}

func decodeBitpack32(src []byte, dst []int32) error {
	if len(dst) == 0 && len(src) == 0 {
		return nil
	}
	if len(src) < 5 {
		return fmt.Errorf("storage: bitpack payload too short (%d bytes)", len(src))
	}
	base := int64(int32(binary.LittleEndian.Uint32(src)))
	width := uint(src[4])
	if width > 32 {
		return fmt.Errorf("storage: bitpack width %d", width)
	}
	src = src[5:]
	if width == 0 {
		for i := range dst {
			dst[i] = int32(base)
		}
		return nil
	}
	if need := (uint64(len(dst))*uint64(width) + 7) / 8; uint64(len(src)) < need {
		return fmt.Errorf("storage: bitpack payload truncated (%d < %d)", len(src), need)
	}
	mask := uint64(1)<<width - 1
	var acc uint64
	var nb uint
	idx := 0
	for i := range dst {
		for nb < width {
			acc |= uint64(src[idx]) << nb
			idx++
			nb += 8
		}
		dst[i] = int32(base + int64(acc&mask))
		acc >>= width
		nb -= width
	}
	return nil
}

// encodeRLE32 appends runs of (uvarint len, zigzag value).
func encodeRLE32(dst []byte, vals []int32) []byte {
	for i := 0; i < len(vals); {
		j := i + 1
		for j < len(vals) && vals[j] == vals[i] {
			j++
		}
		dst = appendUvarint(dst, uint64(j-i))
		dst = appendUvarint(dst, zigzag(int64(vals[i])))
		i = j
	}
	return dst
}

func decodeRLE32(src []byte, dst []int32) error {
	i := 0
	for i < len(dst) {
		run, n := binary.Uvarint(src)
		if n <= 0 {
			return fmt.Errorf("storage: rle run length at row %d", i)
		}
		src = src[n:]
		u, n := binary.Uvarint(src)
		if n <= 0 {
			return fmt.Errorf("storage: rle value at row %d", i)
		}
		src = src[n:]
		v := int32(unzigzag(u))
		if run > uint64(len(dst)-i) {
			return fmt.Errorf("storage: rle run overflows block (%d > %d)", run, len(dst)-i)
		}
		for k := uint64(0); k < run; k++ {
			dst[i] = v
			i++
		}
	}
	return nil
}

func encodeRaw32(dst []byte, vals []int32) []byte {
	var b4 [4]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint32(b4[:], uint32(v))
		dst = append(dst, b4[:]...)
	}
	return dst
}

func decodeRaw32(src []byte, dst []int32) error {
	if len(src) < 4*len(dst) {
		return fmt.Errorf("storage: raw32 payload truncated")
	}
	for i := range dst {
		dst[i] = int32(binary.LittleEndian.Uint32(src[4*i:]))
	}
	return nil
}

// --- int64 codecs ---------------------------------------------------------

// encodeDelta64 appends zigzag varints: the first value, then deltas.
// Signed wraparound in the delta is fine — decoding adds it back with the
// same two's-complement wraparound.
func encodeDelta64(dst []byte, vals []int64) []byte {
	prev := int64(0)
	for _, v := range vals {
		dst = appendUvarint(dst, zigzag(v-prev))
		prev = v
	}
	return dst
}

func decodeDelta64(src []byte, dst []int64) error {
	prev := int64(0)
	for i := range dst {
		u, n := binary.Uvarint(src)
		if n <= 0 {
			return fmt.Errorf("storage: delta varint at row %d", i)
		}
		src = src[n:]
		prev += unzigzag(u)
		dst[i] = prev
	}
	return nil
}

func encodeRaw64(dst []byte, vals []int64) []byte {
	var b8 [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(b8[:], uint64(v))
		dst = append(dst, b8[:]...)
	}
	return dst
}

func decodeRaw64(src []byte, dst []int64) error {
	if len(src) < 8*len(dst) {
		return fmt.Errorf("storage: raw64 payload truncated")
	}
	for i := range dst {
		dst[i] = int64(binary.LittleEndian.Uint64(src[8*i:]))
	}
	return nil
}

// uvarintLen is the encoded length of u as a uvarint.
func uvarintLen(u uint64) int { return (bits.Len64(u|1) + 6) / 7 }

// encodeBitmap64 appends the bitmap payload of vals, which must be
// non-empty and strictly ascending.
func encodeBitmap64(dst []byte, vals []int64) []byte {
	first := vals[0]
	span := uint64(vals[len(vals)-1]-first) + 1
	dst = appendUvarint(dst, zigzag(first))
	dst = appendUvarint(dst, span)
	n, nb := len(dst), int((span+7)/8)
	dst = slices.Grow(dst, nb)[:n+nb]
	bm := dst[n:]
	clear(bm)
	for _, v := range vals {
		i := uint64(v - first)
		bm[i>>3] |= 1 << (i & 7)
	}
	return dst
}

func decodeBitmap64(src []byte, dst []int64) error {
	u, n := binary.Uvarint(src)
	if n <= 0 {
		return fmt.Errorf("storage: bitmap first value")
	}
	first := unzigzag(u)
	src = src[n:]
	span, n := binary.Uvarint(src)
	if n <= 0 {
		return fmt.Errorf("storage: bitmap span")
	}
	src = src[n:]
	if span > 8*uint64(len(src)) {
		return fmt.Errorf("storage: bitmap span %d longer than its %d-byte payload", span, len(src))
	}
	k := 0
	for bi, b := range src[:(span+7)/8] {
		for ; b != 0; b &= b - 1 {
			i := uint64(bi)*8 + uint64(bits.TrailingZeros8(b))
			if i >= span || k == len(dst) {
				return fmt.Errorf("storage: bitmap sets more than %d bits in a span of %d", len(dst), span)
			}
			dst[k] = first + int64(i)
			k++
		}
	}
	if k != len(dst) {
		return fmt.Errorf("storage: bitmap sets %d bits for %d rows", k, len(dst))
	}
	return nil
}

// encodeBitmapBlock appends ids as one block whose single column is
// encBitmap — §5.3's CURE+ bitmap over [first, last] — provided that
// block is shorter than limit bytes. ok is false, and nothing appended,
// when it is not, or when ids is empty or not strictly ascending.
func encodeBitmapBlock(dst []byte, ids []int64, limit int) (_ []byte, ok bool) {
	if len(ids) == 0 {
		return dst, false
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			return dst, false
		}
	}
	// Past this the bits alone would not be shorter; the check also keeps
	// span from overflowing.
	diff := uint64(ids[len(ids)-1]) - uint64(ids[0])
	if diff >= 8*uint64(limit) {
		return dst, false
	}
	span := diff + 1
	payload := uvarintLen(zigzag(ids[0])) + uvarintLen(span) + int((span+7)/8)
	if uvarintLen(uint64(len(ids)))+1+uvarintLen(uint64(payload))+payload >= limit {
		return dst, false
	}
	dst = appendUvarint(dst, uint64(len(ids)))
	dst = append(dst, encBitmap)
	dst = appendUvarint(dst, uint64(payload))
	return encodeBitmap64(dst, ids), true
}

// --- float64 codecs -------------------------------------------------------

// intFloatOK reports whether v survives an exact round-trip through
// int64: integral, inside the int64 range, not NaN/Inf, and not -0 (whose
// bit pattern the int path would lose).
func intFloatOK(v float64) bool {
	if v != math.Trunc(v) || v < -(1<<62) || v > 1<<62 {
		return false
	}
	if v == 0 && math.Signbit(v) {
		return false
	}
	return float64(int64(v)) == v
}

func encodeIntFloat(dst []byte, vals []float64) []byte {
	for _, v := range vals {
		dst = appendUvarint(dst, zigzag(int64(v)))
	}
	return dst
}

func decodeIntFloat(src []byte, dst []float64) error {
	for i := range dst {
		u, n := binary.Uvarint(src)
		if n <= 0 {
			return fmt.Errorf("storage: intfloat varint at row %d", i)
		}
		src = src[n:]
		dst[i] = float64(unzigzag(u))
	}
	return nil
}

// encodeRLEF64 appends runs of (uvarint len, 8-byte bit pattern) —
// bit-pattern comparison, so NaN payloads and signed zeros round-trip.
func encodeRLEF64(dst []byte, vals []float64) []byte {
	var b8 [8]byte
	for i := 0; i < len(vals); {
		bitsI := math.Float64bits(vals[i])
		j := i + 1
		for j < len(vals) && math.Float64bits(vals[j]) == bitsI {
			j++
		}
		dst = appendUvarint(dst, uint64(j-i))
		binary.LittleEndian.PutUint64(b8[:], bitsI)
		dst = append(dst, b8[:]...)
		i = j
	}
	return dst
}

func decodeRLEF64(src []byte, dst []float64) error {
	i := 0
	for i < len(dst) {
		run, n := binary.Uvarint(src)
		if n <= 0 {
			return fmt.Errorf("storage: f64 rle run length at row %d", i)
		}
		src = src[n:]
		if len(src) < 8 {
			return fmt.Errorf("storage: f64 rle value truncated at row %d", i)
		}
		v := math.Float64frombits(binary.LittleEndian.Uint64(src))
		src = src[8:]
		if run > uint64(len(dst)-i) {
			return fmt.Errorf("storage: f64 rle run overflows block (%d > %d)", run, len(dst)-i)
		}
		for k := uint64(0); k < run; k++ {
			dst[i] = v
			i++
		}
	}
	return nil
}

func encodeRawF64(dst []byte, vals []float64) []byte {
	var b8 [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(b8[:], math.Float64bits(v))
		dst = append(dst, b8[:]...)
	}
	return dst
}

func decodeRawF64(src []byte, dst []float64) error {
	if len(src) < 8*len(dst) {
		return fmt.Errorf("storage: rawf64 payload truncated")
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
	return nil
}

// --- block encode / decode ------------------------------------------------

// blockEncoder turns row-major fixed-width rows into encoded blocks,
// reusing its gather and candidate buffers across blocks.
type blockEncoder struct {
	kinds []colKind
	offs  []int // byte offset of each column inside a row
	width int

	i64 []int64
	i32 []int32
	f64 []float64
	// cand is the candidate payload buffer the selector compares.
	cand []byte
	// tags/payloads of the current block, one per column.
	tags     []byte
	payloads [][]byte
	bufs     [][]byte // retained payload buffers, one per column
}

func newBlockEncoder(kinds []colKind) *blockEncoder {
	be := &blockEncoder{
		kinds:    kinds,
		offs:     make([]int, len(kinds)),
		tags:     make([]byte, len(kinds)),
		payloads: make([][]byte, len(kinds)),
		bufs:     make([][]byte, len(kinds)),
	}
	for i, k := range kinds {
		be.offs[i] = be.width
		be.width += k.width()
	}
	return be
}

// pick chooses the shorter of the current best (tag, payload in bufs[c])
// and the candidate in be.cand, leaving the winner in bufs[c].
func (be *blockEncoder) pick(c int, tag byte) {
	if be.payloads[c] == nil || len(be.cand) < len(be.payloads[c]) {
		be.tags[c] = tag
		be.bufs[c] = append(be.bufs[c][:0], be.cand...)
		be.payloads[c] = be.bufs[c]
	}
}

// encodeI64Col selects and retains column c's encoding of vals.
func (be *blockEncoder) encodeI64Col(c int, vals []int64) {
	be.cand = encodeRaw64(be.cand[:0], vals)
	be.pick(c, encRaw)
	be.cand = encodeDelta64(be.cand[:0], vals)
	be.pick(c, encDelta)
}

// encodeI32Col selects and retains column c's encoding of vals.
func (be *blockEncoder) encodeI32Col(c int, vals []int32) {
	be.cand = encodeRaw32(be.cand[:0], vals)
	be.pick(c, encRaw)
	be.cand = encodeBitpack32(be.cand[:0], vals)
	be.pick(c, encBitpack)
	be.cand = encodeRLE32(be.cand[:0], vals)
	be.pick(c, encRLE)
}

// encodeF64Col selects and retains column c's encoding of vals. intOK
// reports whether every value survives the intfloat round-trip.
func (be *blockEncoder) encodeF64Col(c int, vals []float64, intOK bool) {
	be.cand = encodeRawF64(be.cand[:0], vals)
	be.pick(c, encRaw)
	be.cand = encodeRLEF64(be.cand[:0], vals)
	be.pick(c, encRLE)
	if intOK {
		be.cand = encodeIntFloat(be.cand[:0], vals)
		be.pick(c, encIntFloat)
	}
}

// encodeBlock appends the encoded form of rows[0:n] (row-major, be.width
// bytes each) to dst and returns it.
func (be *blockEncoder) encodeBlock(rows []byte, n int, dst []byte) []byte {
	for c, k := range be.kinds {
		off := be.offs[c]
		be.payloads[c] = nil
		switch k {
		case colI64:
			if cap(be.i64) < n {
				be.i64 = make([]int64, n)
			}
			vals := be.i64[:n]
			for i := range vals {
				vals[i] = int64(binary.LittleEndian.Uint64(rows[i*be.width+off:]))
			}
			be.encodeI64Col(c, vals)
		case colI32:
			if cap(be.i32) < n {
				be.i32 = make([]int32, n)
			}
			vals := be.i32[:n]
			for i := range vals {
				vals[i] = int32(binary.LittleEndian.Uint32(rows[i*be.width+off:]))
			}
			be.encodeI32Col(c, vals)
		case colF64:
			if cap(be.f64) < n {
				be.f64 = make([]float64, n)
			}
			vals := be.f64[:n]
			intOK := true
			for i := range vals {
				vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(rows[i*be.width+off:]))
				intOK = intOK && intFloatOK(vals[i])
			}
			be.encodeF64Col(c, vals, intOK)
		}
	}
	dst = appendUvarint(dst, uint64(n))
	for c := range be.kinds {
		dst = append(dst, be.tags[c])
		dst = appendUvarint(dst, uint64(len(be.payloads[c])))
	}
	for c := range be.kinds {
		dst = append(dst, be.payloads[c]...)
	}
	return dst
}

// decodeBlock decodes one encoded block into db (reusing its buffers) and
// returns the number of bytes consumed from src. wantRows is the row
// count the manifest says the block holds; a mismatch is corruption (and
// the check keeps hostile headers from over-allocating).
func decodeBlock(src []byte, kinds []colKind, wantRows int, db *DecodedBlock) (int, error) {
	total := len(src)
	rows64, n := binary.Uvarint(src)
	if n <= 0 {
		return 0, fmt.Errorf("storage: block row count")
	}
	src = src[n:]
	if rows64 != uint64(wantRows) {
		return 0, fmt.Errorf("storage: block claims %d rows, manifest says %d", rows64, wantRows)
	}
	rows := int(rows64)
	db.reset(kinds, rows)
	type colHdr struct {
		tag byte
		ln  int
	}
	hdrs := make([]colHdr, len(kinds))
	for c := range kinds {
		if len(src) < 1 {
			return 0, fmt.Errorf("storage: block header truncated at column %d", c)
		}
		tag := src[0]
		src = src[1:]
		ln, n := binary.Uvarint(src)
		if n <= 0 || ln > uint64(total) {
			return 0, fmt.Errorf("storage: column %d payload length", c)
		}
		src = src[n:]
		hdrs[c] = colHdr{tag, int(ln)}
	}
	for c, k := range kinds {
		h := hdrs[c]
		if h.ln > len(src) {
			return 0, fmt.Errorf("storage: column %d payload truncated (%d > %d)", c, h.ln, len(src))
		}
		payload := src[:h.ln]
		src = src[h.ln:]
		var err error
		switch k {
		case colI64:
			switch h.tag {
			case encRaw:
				err = decodeRaw64(payload, db.I64[c])
			case encDelta:
				err = decodeDelta64(payload, db.I64[c])
			case encBitmap:
				err = decodeBitmap64(payload, db.I64[c])
			default:
				err = fmt.Errorf("storage: tag %d on int64 column", h.tag)
			}
		case colI32:
			switch h.tag {
			case encRaw:
				err = decodeRaw32(payload, db.I32[c])
			case encBitpack:
				err = decodeBitpack32(payload, db.I32[c])
			case encRLE:
				err = decodeRLE32(payload, db.I32[c])
			default:
				err = fmt.Errorf("storage: tag %d on int32 column", h.tag)
			}
		case colF64:
			switch h.tag {
			case encRaw:
				err = decodeRawF64(payload, db.F64[c])
			case encRLE:
				err = decodeRLEF64(payload, db.F64[c])
			case encIntFloat:
				err = decodeIntFloat(payload, db.F64[c])
			default:
				err = fmt.Errorf("storage: tag %d on float64 column", h.tag)
			}
		}
		if err != nil {
			return 0, fmt.Errorf("storage: decoding column %d: %w", c, err)
		}
	}
	return total - len(src), nil
}

// --- extent schemas -------------------------------------------------------

// ntKinds returns the column schema of an NT extent: <rowid, aggrs…> for
// plain CURE, <dims…, aggrs…> for CURE_DR (arity int32 columns).
func (m *Manifest) ntKinds(arity int) []colKind {
	var kinds []colKind
	if m.DimsInline {
		for i := 0; i < arity; i++ {
			kinds = append(kinds, colI32)
		}
	} else {
		kinds = append(kinds, colI64)
	}
	for i := 0; i < m.NumAggrs(); i++ {
		kinds = append(kinds, colF64)
	}
	return kinds
}

// ttKinds is the TT id-extent schema: one row-id column.
func ttKinds() []colKind { return []colKind{colI64} }

// catKinds returns the CAT extent schema: <A-rowid> under format (a),
// <R-rowid, A-rowid> under format (b).
func (m *Manifest) catKinds() []colKind {
	if m.catRowWidth() == 8 {
		return []colKind{colI64}
	}
	return []colKind{colI64, colI64}
}

// aggKinds returns the AGGREGATES schema: <R-rowid, aggrs…> under format
// (a), <aggrs…> under format (b).
func (m *Manifest) aggKinds() []colKind {
	var kinds []colKind
	if m.aggRowWidth() == 8+8*m.NumAggrs() {
		kinds = append(kinds, colI64)
	}
	for i := 0; i < m.NumAggrs(); i++ {
		kinds = append(kinds, colF64)
	}
	return kinds
}
