package storage

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"testing"

	"cure/internal/lattice"
	"cure/internal/signature"
)

// encodeOneBlock encodes row-major rows through the production encoder
// and decodes them back, returning the decoded block.
func encodeOneBlock(t *testing.T, kinds []colKind, rows []byte, n int) *DecodedBlock {
	t.Helper()
	be := newBlockEncoder(kinds)
	enc := be.encodeBlock(rows, n, nil)
	var db DecodedBlock
	consumed, err := decodeBlock(enc, kinds, n, &db)
	if err != nil {
		t.Fatalf("decodeBlock: %v", err)
	}
	if consumed != len(enc) {
		t.Fatalf("decodeBlock consumed %d of %d bytes", consumed, len(enc))
	}
	return &db
}

func TestCodecColumnShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := map[string]func(i int) int64{
		"constant":  func(i int) int64 { return 42 },
		"sorted":    func(i int) int64 { return int64(i) * 3 },
		"runs":      func(i int) int64 { return int64(i / 17) },
		"random":    func(i int) int64 { return rng.Int63() - rng.Int63() },
		"lowcard":   func(i int) int64 { return int64(rng.Intn(5)) },
		"extremes":  func(i int) int64 { return []int64{math.MinInt64, math.MaxInt64, 0, -1}[i%4] },
		"negatives": func(i int) int64 { return -int64(i) * 1000 },
	}
	for name, gen := range shapes {
		for _, n := range []int{1, 2, 255, 256, 1000} {
			t.Run(fmt.Sprintf("%s/n=%d", name, n), func(t *testing.T) {
				// One block of <i64, i32, f64> columns derived from gen.
				kinds := []colKind{colI64, colI32, colF64}
				width := 8 + 4 + 8
				rows := make([]byte, n*width)
				wantI64 := make([]int64, n)
				wantI32 := make([]int32, n)
				wantF64 := make([]float64, n)
				for i := 0; i < n; i++ {
					v := gen(i)
					wantI64[i] = v
					wantI32[i] = int32(v)
					wantF64[i] = float64(v % 100000)
					rec := rows[i*width:]
					putInt64(rec, v)
					putDims(rec[8:], []int32{int32(v)})
					putAggrs(rec[12:], []float64{wantF64[i]})
				}
				db := encodeOneBlock(t, kinds, rows, n)
				if !reflect.DeepEqual(db.I64[0], wantI64) {
					t.Error("int64 column mismatch")
				}
				if !reflect.DeepEqual(db.I32[1], wantI32) {
					t.Error("int32 column mismatch")
				}
				if !reflect.DeepEqual(db.F64[2], wantF64) {
					t.Error("float64 column mismatch")
				}
			})
		}
	}
}

func TestCodecFloatBitPatterns(t *testing.T) {
	// Values whose bit patterns must survive exactly: -0, NaN (quiet and
	// payload-carrying), ±Inf, denormals, and huge integral floats.
	vals := []float64{
		0, math.Copysign(0, -1), math.NaN(),
		math.Float64frombits(0x7ff8000000000abc), // NaN with payload
		math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, math.MaxFloat64,
		1.5, -2.75, 1e300, float64(1 << 60), -float64(1 << 60),
		123456789, 3, 3, 3, 3, // a run
	}
	n := len(vals)
	kinds := []colKind{colF64}
	rows := make([]byte, n*8)
	for i, v := range vals {
		putAggrs(rows[i*8:], []float64{v})
	}
	db := encodeOneBlock(t, kinds, rows, n)
	for i, want := range vals {
		if math.Float64bits(db.F64[0][i]) != math.Float64bits(want) {
			t.Errorf("row %d: bits %x, want %x (value %v)", i,
				math.Float64bits(db.F64[0][i]), math.Float64bits(want), want)
		}
	}
}

func TestCodecEmptyBlock(t *testing.T) {
	kinds := []colKind{colI64, colF64}
	be := newBlockEncoder(kinds)
	enc := be.encodeBlock(nil, 0, nil)
	var db DecodedBlock
	if _, err := decodeBlock(enc, kinds, 0, &db); err != nil {
		t.Fatalf("empty block: %v", err)
	}
	if db.Rows != 0 {
		t.Errorf("rows = %d", db.Rows)
	}
}

func TestCodecRowCountMismatchRejected(t *testing.T) {
	kinds := []colKind{colI64}
	be := newBlockEncoder(kinds)
	rows := make([]byte, 5*8)
	enc := be.encodeBlock(rows, 5, nil)
	var db DecodedBlock
	if _, err := decodeBlock(enc, kinds, 6, &db); err == nil {
		t.Error("row-count mismatch accepted")
	}
}

// writeWorkload writes one deterministic mixed workload (multi-block NT,
// TT, CAT extents plus AGGREGATES) into w and finalizes it. It returns
// the manifest and every tuple it handed the writer, rendered the way
// collectExtents renders what a Reader gives back.
func writeWorkload(t *testing.T, w *Writer, formatA bool) (*Manifest, []string) {
	t.Helper()
	enum := w.Enum()
	nodeA0B := enum.Encode([]int{0, 0})
	nodeA1 := enum.Encode([]int{1, 1})
	rng := rand.New(rand.NewSource(11))
	var want []string
	writeNT := func(node lattice.NodeID, levels []int) {
		rrowid := int64(rng.Intn(5000))
		aggrs := []float64{float64(rng.Intn(50)), float64(1 + rng.Intn(9))}
		if err := w.WriteNT(node, rrowid, aggrs); err != nil {
			t.Fatal(err)
		}
		var dims []int32
		if w.opts.DimsInline {
			// CURE_DR rows come back as the row's codes at the node's levels.
			base := make([]int32, 2)
			if err := finalizeTestResolver(rrowid, base); err != nil {
				t.Fatal(err)
			}
			for d, l := range levels {
				if !w.opts.Hier.Dims[d].IsAll(l) {
					dims = append(dims, w.opts.Hier.Dims[d].MapCode(base[d], l))
				}
			}
			rrowid = -1
		}
		want = append(want, fmt.Sprintf("nt %d %d %v %v", node, rrowid, dims, aggrs))
	}
	for i := 0; i < 700; i++ {
		writeNT(nodeA0B, []int{0, 0})
	}
	for i := 0; i < 300; i++ {
		writeNT(nodeA1, []int{1, 1})
	}
	// TT row-ids are distinct within a node, as in a real build, and
	// spread over the fact table: over 5,000 rows they are dense enough
	// for a CURE+ bitmap block, over many more they are not.
	stride := max(w.opts.FactRows/5000, 1)
	for _, id := range rng.Perm(5000)[:900] {
		id := int64(id) * stride
		if err := w.WriteTT(nodeA1, id); err != nil {
			t.Fatal(err)
		}
		want = append(want, fmt.Sprintf("tt %d %d", nodeA1, id))
	}
	format := signature.FormatB
	for i := 0; i < 500; i++ {
		rrowid, catSrc := int64(-1), int64(rng.Intn(5000))
		if formatA {
			rrowid, catSrc = catSrc, -1
		}
		aggrs := []float64{float64(rng.Intn(100)) + 0.5, float64(2 + rng.Intn(7))}
		a, err := w.AppendAggregate(rrowid, aggrs)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WriteCAT(nodeA0B, catSrc, a); err != nil {
			t.Fatal(err)
		}
		want = append(want,
			fmt.Sprintf("cat %d %d %d", nodeA0B, catSrc, a),
			fmt.Sprintf("agg %d %d %v", a, rrowid, aggrs),
			fmt.Sprintf("aggraw %d %d %v", a, rrowid, aggrs))
	}
	if formatA {
		format = signature.FormatA
	}
	m, err := w.Finalize(format)
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(want)
	return m, want
}

// collectExtents renders every tuple a Reader returns as strings, sorted:
// NT, TT and CAT rows of every node, and AGGREGATES read both row by row
// and through the pinned raw buffer.
func collectExtents(t *testing.T, dir string) []string {
	t.Helper()
	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var out []string
	m := r.Manifest()
	for k := range m.Nodes {
		n, err := strconv.ParseInt(k, 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		id := lattice.NodeID(n)
		if err := r.NTRows(id, func(nt NTRow) error {
			out = append(out, fmt.Sprintf("nt %s %d %v %v", k, nt.RRowid, nt.Dims, nt.Aggrs))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		ids, err := r.TTRowIDs(id, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range ids {
			out = append(out, fmt.Sprintf("tt %s %d", k, v))
		}
		if err := r.CATRows(id, func(cat CATRow) error {
			out = append(out, fmt.Sprintf("cat %s %d %d", k, cat.RRowid, cat.ARowid))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	aggs := make([]float64, m.NumAggrs())
	for a := int64(0); a < m.AggRows; a++ {
		rrowid, err := r.AggCursor().Read(a, aggs, nil)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, fmt.Sprintf("agg %d %d %v", a, rrowid, aggs))
	}
	raw, err := r.AggregatesRaw()
	if err != nil {
		t.Fatal(err)
	}
	for a := int64(0); a < m.AggRows; a++ {
		rrowid := r.DecodeAggregate(raw, a, aggs)
		out = append(out, fmt.Sprintf("aggraw %d %d %v", a, rrowid, aggs))
	}
	sort.Strings(out)
	return out
}

// TestCubeRoundTrip: what a Reader gives back is, tuple for tuple, what
// the Writer was handed — through the log, every Finalize transform, the
// block codec and the decode paths.
func TestCubeRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name              string
		plus, formatA, dr bool
	}{
		{name: "plain-formatB"},
		{name: "dr-formatB", dr: true},
		{name: "plus-formatB", plus: true},
		{name: "plus-formatA", plus: true, formatA: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			w := newTestWriter(t, Options{
				Dir: dir, plainLayout: !tc.plus, DimsInline: tc.dr, FactRows: 5000,
				ZoneBlockRows: 64, Resolver: perRow(finalizeTestResolver),
			})
			m, want := writeWorkload(t, w, tc.formatA)
			if m.Version != manifestVersion {
				t.Errorf("manifest: version %d", m.Version)
			}
			if m.AggCodec == nil {
				t.Error("cube without AggCodec")
			}
			if got := collectExtents(t, dir); !reflect.DeepEqual(got, want) {
				t.Fatalf("cube reads back differently: %d vs %d tuples", len(got), len(want))
			}
			// The workload is repetitive on purpose: the codec must win.
			var raw int64
			for _, nm := range m.Nodes {
				for _, c := range []*ExtentCodec{nm.NTCodec, nm.TTCodec, nm.CATCodec} {
					if c != nil {
						raw += c.RawBytes
					}
				}
			}
			if raw += m.AggCodec.RawBytes; m.Sizes.Total() >= raw {
				t.Errorf("encoded cube not smaller than its rows: %d >= %d", m.Sizes.Total(), raw)
			}
			r, err := OpenReader(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if bad, err := r.VerifyChecksums(); err != nil || len(bad) != 0 {
				t.Errorf("checksums: bad=%v err=%v", bad, err)
			}
		})
	}
}

func TestExtentCodecMetadata(t *testing.T) {
	dir := t.TempDir()
	w := newTestWriter(t, Options{Dir: dir, FactRows: 5000, ZoneBlockRows: 64})
	m, _ := writeWorkload(t, w, false)
	for k, nm := range m.Nodes {
		if nm.NTRows > 0 {
			c := nm.NTCodec
			if c == nil {
				t.Fatalf("node %s: NT extent without codec", k)
			}
			if got, want := c.NumBlocks(), int((nm.NTRows+63)/64); got != want {
				t.Errorf("node %s: %d blocks, want %d", k, got, want)
			}
			if c.RawBytes != nm.NTRows*int64(m.ntRowWidth(0)) {
				t.Errorf("node %s: RawBytes = %d", k, c.RawBytes)
			}
			if c.EncodedBytes() <= 0 || len(c.Encodings) == 0 {
				t.Errorf("node %s: empty codec record %+v", k, c)
			}
		}
	}
}

// benchRows builds n rows of the mixed <i64, i32, f64> extent schema with
// realistic shapes: sorted row-ids, low-cardinality codes, small-integer
// aggregates (delta, bitpack, and intfloat all in play).
func benchRows(n int) ([]colKind, []byte, int) {
	kinds := []colKind{colI64, colI32, colF64}
	width := 8 + 4 + 8
	rows := make([]byte, n*width)
	for i := 0; i < n; i++ {
		rec := rows[i*width:]
		putInt64(rec, int64(i)*3)
		putDims(rec[8:], []int32{int32(i % 7)})
		putAggrs(rec[12:], []float64{float64(i % 100)})
	}
	return kinds, rows, width
}

func BenchmarkBlockEncode(b *testing.B) {
	const n = 256
	kinds, rows, width := benchRows(n)
	be := newBlockEncoder(kinds)
	enc := be.encodeBlock(rows, n, nil)
	b.ReportAllocs()
	b.SetBytes(int64(n * width))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc = be.encodeBlock(rows, n, enc[:0])
	}
	_ = enc
}

// TestBlockEncodeSteadyStateAllocs pins the encoder's steady state at
// zero allocations per block: every gather buffer, candidate buffer, and
// payload buffer must be recycled once warmed up. A regression here
// multiplies across every block of every extent of a finalize pass.
func TestBlockEncodeSteadyStateAllocs(t *testing.T) {
	const n = 256
	kinds, rows, _ := benchRows(n)
	be := newBlockEncoder(kinds)
	var enc []byte
	for i := 0; i < 4; i++ { // warm up buffers
		enc = be.encodeBlock(rows, n, enc[:0])
	}
	allocs := testing.AllocsPerRun(100, func() {
		enc = be.encodeBlock(rows, n, enc[:0])
	})
	if allocs != 0 {
		t.Errorf("steady-state encodeBlock allocates %.1f times per block, want 0", allocs)
	}
}

// TestBitmapBlockRejectsCorruption: a bitmap payload whose span runs past
// its bytes, or whose set bits do not number the block's rows, is an
// error — including a bit set in the padding past the span.
func TestBitmapBlockRejectsCorruption(t *testing.T) {
	ids := []int64{3, 5, 6} // first 3, span 4: bits 0, 2, 3 of one byte
	block := func(payload []byte) []byte {
		b := appendUvarint(nil, uint64(len(ids)))
		b = append(b, encBitmap)
		b = appendUvarint(b, uint64(len(payload)))
		return append(b, payload...)
	}
	valid := encodeBitmap64(nil, ids)
	var db DecodedBlock
	if _, err := decodeBlock(block(valid), ttKinds(), len(ids), &db); err != nil || !reflect.DeepEqual(db.I64[0], ids) {
		t.Fatalf("valid bitmap: %v, %v", db.I64[0], err)
	}
	last := len(valid) - 1
	for name, payload := range map[string][]byte{
		"span past payload": append(appendUvarint(appendUvarint(nil, zigzag(3)), 9), valid[last]),
		"extra bit":         append(append([]byte(nil), valid[:last]...), valid[last]|0b10),
		"missing bit":       append(append([]byte(nil), valid[:last]...), valid[last]&^0b1000),
		"bit in padding":    append(append([]byte(nil), valid[:last]...), valid[last]&^0b1000|0b1000_0000),
	} {
		if _, err := decodeBlock(block(payload), ttKinds(), len(ids), &db); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, ok := encodeBitmapBlock(nil, []int64{3, 3, 5}, 1<<20); ok {
		t.Error("a column with a repeated value became a bitmap")
	}
}
