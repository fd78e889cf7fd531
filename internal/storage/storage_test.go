package storage

import (
	"bytes"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"cure/internal/hierarchy"
	"cure/internal/lattice"
	"cure/internal/obsv"
	"cure/internal/relation"
	"cure/internal/signature"
)

// testHier builds a 2-dim schema: A with levels A0(8)→A1(2), flat B(4).
func testHier(t *testing.T) *hierarchy.Schema {
	t.Helper()
	a, err := hierarchy.NewLinearDim("A", []string{"A0", "A1"}, []int32{8, 2}, [][]int32{hierarchy.BuildContiguousMap(8, 2)})
	if err != nil {
		t.Fatal(err)
	}
	s, err := hierarchy.NewSchema(a, hierarchy.NewFlatDim("B", 4))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func newTestWriter(t *testing.T, opts Options) *Writer {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	if opts.Hier == nil {
		opts.Hier = testHier(t)
	}
	if opts.AggSpecs == nil {
		opts.AggSpecs = []relation.AggSpec{{Func: relation.AggSum, Measure: 0}, {Func: relation.AggCount}}
	}
	if opts.FactRows == 0 {
		opts.FactRows = 100
	}
	if opts.FactFile == "" {
		opts.FactFile = "fact.bin"
	}
	w, err := NewWriter(opts)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestWriterValidation(t *testing.T) {
	if _, err := NewWriter(Options{Dir: t.TempDir(), Hier: testHier(t)}); err == nil {
		t.Error("writer without aggregates accepted")
	}
	if _, err := NewWriter(Options{
		Dir: t.TempDir(), Hier: testHier(t),
		AggSpecs:   []relation.AggSpec{{Func: relation.AggCount}},
		DimsInline: true,
	}); err == nil {
		t.Error("DimsInline without resolver accepted")
	}
}

func TestRoundTripBasic(t *testing.T) {
	dir := t.TempDir()
	w := newTestWriter(t, Options{Dir: dir})
	// Node ids for the 2-dim schema: A has 3 levels (A0,A1,ALL), B has 2.
	enum := w.Enum()
	nodeA0B := enum.Encode([]int{0, 0}) // A0,B
	nodeA1 := enum.Encode([]int{1, 1})  // A1 only

	if err := w.WriteNT(nodeA0B, 5, []float64{10, 2}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteNT(nodeA0B, 9, []float64{20, 3}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteTT(nodeA1, 17); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteTT(nodeA1, 4); err != nil {
		t.Fatal(err)
	}
	a0, err := w.AppendAggregate(-1, []float64{33, 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteCAT(nodeA0B, 7, a0); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteCAT(nodeA1, 8, a0); err != nil {
		t.Fatal(err)
	}
	m, err := w.Finalize(signature.FormatB)
	if err != nil {
		t.Fatal(err)
	}
	if m.CatFormat != signature.FormatB {
		t.Errorf("CatFormat = %v", m.CatFormat)
	}
	if m.AggRows != 1 {
		t.Errorf("AggRows = %d", m.AggRows)
	}
	// Logs must be gone.
	for _, n := range []string{NTFile + ".log", TTFile + ".log", CATFile + ".log", AggFile + ".log"} {
		if _, err := os.Stat(filepath.Join(dir, n)); !os.IsNotExist(err) {
			t.Errorf("log %s survived finalize", n)
		}
	}

	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ids, err := r.TTRowIDs(nodeA1, nil)
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	if len(ids) != 2 || ids[0] != 4 || ids[1] != 17 {
		t.Errorf("TTRowIDs = %v", ids)
	}
	var nts []NTRow
	if err := r.NTRows(nodeA0B, func(row NTRow) error {
		cp := row
		cp.Aggrs = append([]float64(nil), row.Aggrs...)
		nts = append(nts, cp)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(nts) != 2 {
		t.Fatalf("NT rows = %d", len(nts))
	}
	sort.Slice(nts, func(i, j int) bool { return nts[i].RRowid < nts[j].RRowid })
	if nts[0].RRowid != 5 || nts[0].Aggrs[0] != 10 || nts[1].RRowid != 9 || nts[1].Aggrs[1] != 3 {
		t.Errorf("NT rows = %+v", nts)
	}
	var cats []CATRow
	for _, node := range []lattice.NodeID{nodeA0B, nodeA1} {
		if err := r.CATRows(node, func(row CATRow) error {
			cats = append(cats, row)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if len(cats) != 2 {
		t.Fatalf("CAT rows = %+v", cats)
	}
	aggrs := make([]float64, 2)
	rrowid, err := r.AggCursor().Read(cats[0].ARowid, aggrs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rrowid != -1 || aggrs[0] != 33 || aggrs[1] != 4 {
		t.Errorf("aggregate = rrowid %d, %v", rrowid, aggrs)
	}
	if _, err := r.AggCursor().Read(99, aggrs, nil); err == nil {
		t.Error("out-of-range A-rowid accepted")
	}
	// Relational volume (the paper's size unit): an NT row is 8 + 16
	// bytes, a TT row 8, a format-(b) CAT row 16, an AGGREGATES row 16.
	a0b, _ := m.NodeMeta(nodeA0B)
	a1, _ := m.NodeMeta(nodeA1)
	if a0b.NTCodec.RawBytes != 2*24 || a1.TTCodec.RawBytes != 2*8 ||
		a0b.CATCodec.RawBytes != 16 || a1.CATCodec.RawBytes != 16 || m.AggCodec.RawBytes != 16 {
		t.Errorf("raw bytes: nt=%d tt=%d cat=%d+%d agg=%d", a0b.NTCodec.RawBytes, a1.TTCodec.RawBytes,
			a0b.CATCodec.RawBytes, a1.CATCodec.RawBytes, m.AggCodec.RawBytes)
	}
	// File sizes are what was encoded, extent after extent.
	if m.Sizes.NT != a0b.NTCodec.EncodedBytes() || m.Sizes.CAT != a0b.CATCodec.EncodedBytes()+a1.CATCodec.EncodedBytes() {
		t.Errorf("Sizes = %+v", m.Sizes)
	}
	if m.Sizes.Total() != m.Sizes.NT+m.Sizes.TT+m.Sizes.CAT+m.Sizes.Agg {
		t.Error("Total mismatch")
	}
}

func TestFormatARoundTrip(t *testing.T) {
	dir := t.TempDir()
	w := newTestWriter(t, Options{Dir: dir})
	node := w.Enum().Encode([]int{0, 0})
	a0, err := w.AppendAggregate(42, []float64{7, 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteCAT(node, -1, a0); err != nil {
		t.Fatal(err)
	}
	// Mixing formats must fail loudly.
	if _, err := w.AppendAggregate(-1, []float64{1, 1}); err == nil {
		t.Error("format flip accepted")
	}
	m, err := w.Finalize(signature.FormatA)
	if err != nil {
		t.Fatal(err)
	}
	if m.CatFormat != signature.FormatA {
		t.Fatalf("CatFormat = %v", m.CatFormat)
	}
	// Format (a): CAT rows are 8 bytes, AGGREGATES rows carry rrowid.
	if nm, _ := m.NodeMeta(node); nm.CATCodec.RawBytes != 8 || m.AggCodec.RawBytes != 8+16 {
		t.Errorf("raw bytes: cat=%d agg=%d", nm.CATCodec.RawBytes, m.AggCodec.RawBytes)
	}
	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var got []CATRow
	if err := r.CATRows(node, func(row CATRow) error {
		got = append(got, row)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].RRowid != -1 || got[0].ARowid != a0 {
		t.Errorf("CAT rows = %+v", got)
	}
	aggrs := make([]float64, 2)
	rrowid, err := r.AggCursor().Read(a0, aggrs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rrowid != 42 || aggrs[0] != 7 {
		t.Errorf("aggregate = %d %v", rrowid, aggrs)
	}
}

func TestFinalizeDisagreementRejected(t *testing.T) {
	w := newTestWriter(t, Options{})
	if _, err := w.AppendAggregate(42, []float64{1, 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Finalize(signature.FormatB); err == nil {
		t.Error("format disagreement accepted")
	}
}

func TestFinalizeTwiceRejected(t *testing.T) {
	w := newTestWriter(t, Options{})
	if _, err := w.Finalize(signature.FormatNT); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Finalize(signature.FormatNT); err == nil {
		t.Error("double finalize accepted")
	}
}

func TestDimsInlineProjection(t *testing.T) {
	dir := t.TempDir()
	// The resolver serves base dims for row-ids: row r has A = r%8, B = r%4.
	resolver := func(rrowid int64, dst []int32) error {
		dst[0] = int32(rrowid % 8)
		dst[1] = int32(rrowid % 4)
		return nil
	}
	w := newTestWriter(t, Options{Dir: dir, DimsInline: true, Resolver: perRow(resolver)})
	enum := w.Enum()
	nodeA1B := enum.Encode([]int{1, 0}) // A at level 1, B at base
	// Row-id 5: A0 = 5 → A1 = 5/4 = 1; B = 1.
	if err := w.WriteNT(nodeA1B, 5, []float64{99, 4}); err != nil {
		t.Fatal(err)
	}
	m, err := w.Finalize(signature.FormatNT)
	if err != nil {
		t.Fatal(err)
	}
	if !m.DimsInline {
		t.Fatal("manifest lost DimsInline")
	}
	// Row width: 2 dims × 4 + 2 aggrs × 8 = 24.
	if nm, _ := m.NodeMeta(nodeA1B); nm.NTCodec.RawBytes != 24 {
		t.Errorf("NT raw bytes = %d, want 24", nm.NTCodec.RawBytes)
	}
	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var rows []NTRow
	if err := r.NTRows(nodeA1B, func(row NTRow) error {
		cp := row
		cp.Dims = append([]int32(nil), row.Dims...)
		cp.Aggrs = append([]float64(nil), row.Aggrs...)
		rows = append(rows, cp)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].RRowid != -1 || rows[0].Dims[0] != 1 || rows[0].Dims[1] != 1 || rows[0].Aggrs[0] != 99 {
		t.Errorf("DR row = %+v", rows[0])
	}
}

func TestPlusSortsTTIDs(t *testing.T) {
	dir := t.TempDir()
	w := newTestWriter(t, Options{Dir: dir, FactRows: 1 << 20})
	node := w.Enum().Encode([]int{0, 0})
	for _, id := range []int64{50, 3, 17, 99, 1} {
		if err := w.WriteTT(node, id); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.Finalize(signature.FormatNT); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ids, err := r.TTRowIDs(node, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{1, 3, 17, 50, 99}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("TT ids not sorted: %v", ids)
		}
	}
}

func TestPlusConvertsDenseTTsToBitmap(t *testing.T) {
	dir := t.TempDir()
	const factRows = 256
	w := newTestWriter(t, Options{Dir: dir, FactRows: factRows})
	node := w.Enum().Encode([]int{0, 0})
	// 200 of 256 rows are TTs: dense, so one bitmap block (about 40 bytes)
	// beats the delta-encoded ids (about 200).
	for id := int64(0); id < 200; id++ {
		if err := w.WriteTT(node, id*7%factRows); err != nil {
			t.Fatal(err)
		}
	}
	m, err := w.Finalize(signature.FormatNT)
	if err != nil {
		t.Fatal(err)
	}
	nm, ok := m.NodeMeta(node)
	if !ok || nm.TTCodec.NumBlocks() != 1 || nm.TTCodec.Encodings[encName(encBitmap)] != 1 {
		t.Fatalf("node meta = %+v, codec %+v, want one bitmap block", nm, nm.TTCodec)
	}
	if m.Sizes.TT != nm.TTCodec.EncodedBytes() {
		t.Errorf("tt.bin holds %d bytes, the bitmap block %d", m.Sizes.TT, nm.TTCodec.EncodedBytes())
	}
	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ids, err := r.TTRowIDs(node, nil)
	if err != nil {
		t.Fatal(err)
	}
	// id*7 mod 256: 7 is odd and coprime with 256 → 200 distinct ids.
	if len(ids) != 200 {
		t.Fatalf("bitmap TT count = %d, want 200", len(ids))
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatal("bitmap ids not ascending")
		}
	}
}

// TestPlusTTKeepsTheSmallerForm: a CURE+ TT extent is written in
// whichever form is shorter — delta-encoded id blocks for a sparse id set,
// one bitmap block for a dense one — and reads back the same either way.
func TestPlusTTKeepsTheSmallerForm(t *testing.T) {
	const n = 2000
	for _, tc := range []struct {
		name   string
		stride int64 // one TT row per stride fact rows
		bitmap bool
	}{
		{"density-1/32", 32, false},
		{"density-1/2", 2, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			w := newTestWriter(t, Options{Dir: dir, FactRows: n * tc.stride})
			node := w.Enum().Encode([]int{0, 0})
			want := make([]int64, n)
			for i := range want {
				want[i] = int64(i) * tc.stride
			}
			for _, i := range rand.New(rand.NewSource(3)).Perm(n) {
				if err := w.WriteTT(node, want[i]); err != nil {
					t.Fatal(err)
				}
			}
			m, err := w.Finalize(signature.FormatNT)
			if err != nil {
				t.Fatal(err)
			}
			c := m.Nodes[nodeKey(node)].TTCodec
			bm, _ := encodeBitmapBlock(nil, want, math.MaxInt)
			var delta []byte
			be := newBlockEncoder(ttKinds())
			rows := make([]byte, 8*n)
			for i, v := range want {
				putInt64(rows[8*i:], v)
			}
			for r0 := 0; r0 < n; r0 += DefaultZoneBlockRows {
				delta = be.encodeBlock(rows[8*r0:], min(DefaultZoneBlockRows, n-r0), delta)
			}
			if tc.bitmap {
				if c.NumBlocks() != 1 || c.Encodings[encName(encBitmap)] != 1 || c.EncodedBytes() != int64(len(bm)) {
					t.Errorf("codec %+v, want one %d-byte bitmap block", c, len(bm))
				}
				if len(bm) >= len(delta) {
					t.Errorf("bitmap block %d bytes, delta blocks %d: the bitmap should be smaller", len(bm), len(delta))
				}
			} else {
				if c.NumBlocks() != (n+DefaultZoneBlockRows-1)/DefaultZoneBlockRows || c.Encodings[encName(encBitmap)] != 0 {
					t.Errorf("codec %+v, want %d-row delta blocks", c, DefaultZoneBlockRows)
				}
				if c.EncodedBytes() != int64(len(delta)) || len(delta) >= len(bm) {
					t.Errorf("extent %d bytes, delta blocks %d, bitmap %d: delta should be written and smaller", c.EncodedBytes(), len(delta), len(bm))
				}
			}
			r, err := OpenReader(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			got, err := r.TTRowIDs(node, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("TT ids read back differently (%d ids, want %d)", len(got), len(want))
			}
		})
	}
}

func TestPlusSortsCATFormatA(t *testing.T) {
	dir := t.TempDir()
	w := newTestWriter(t, Options{Dir: dir})
	node := w.Enum().Encode([]int{0, 0})
	// Append aggregates 0..4, reference them in reverse order.
	var arowids []int64
	for i := 0; i < 5; i++ {
		a, err := w.AppendAggregate(int64(i*10), []float64{float64(i), 1})
		if err != nil {
			t.Fatal(err)
		}
		arowids = append(arowids, a)
	}
	for i := 4; i >= 0; i-- {
		if err := w.WriteCAT(node, -1, arowids[i]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.Finalize(signature.FormatA); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var got []int64
	if err := r.CATRows(node, func(row CATRow) error {
		got = append(got, row.ARowid)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("CAT A-rowids not sorted: %v", got)
		}
	}
}

func TestStageSpillPreservesData(t *testing.T) {
	// A tiny stage budget forces many spills and multi-block nodes; the
	// extents must still hold every row, in arrival order.
	dir := t.TempDir()
	w := newTestWriter(t, Options{Dir: dir, StageBudget: 64})
	enum := w.Enum()
	nodes := []lattice.NodeID{
		enum.Encode([]int{0, 0}),
		enum.Encode([]int{1, 0}),
		enum.Encode([]int{0, 1}),
	}
	const perNode = 100
	for i := 0; i < perNode; i++ {
		for _, n := range nodes {
			if err := w.WriteNT(n, int64(i), []float64{float64(i), 1}); err != nil {
				t.Fatal(err)
			}
			if err := w.WriteTT(n, int64(i+1000)); err != nil {
				t.Fatal(err)
			}
		}
	}
	m, err := w.Finalize(signature.FormatNT)
	if err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, n := range nodes {
		nm, ok := m.NodeMeta(n)
		if !ok || nm.NTRows != perNode || nm.TTRows != perNode {
			t.Fatalf("node %d meta = %+v", n, nm)
		}
		next := int64(0)
		if err := r.NTRows(n, func(row NTRow) error {
			if row.RRowid != next {
				t.Fatalf("node %d: NT row %d arrived where %d was written", n, row.RRowid, next)
			}
			next++
			if row.Aggrs[0] != float64(row.RRowid) {
				t.Fatalf("row %d has aggr %v", row.RRowid, row.Aggrs)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if next != perNode {
			t.Fatalf("node %d: %d NT rows", n, next)
		}
	}
}

func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m := &Manifest{
		Version:     manifestVersion,
		AggSpecs:    []relation.AggSpec{{Func: relation.AggSum}},
		CatFormat:   signature.FormatA,
		PlanParents: map[string]lattice.NodeID{"7": PlanRoot, "3": 5},
		FactFile:    "fact.bin",
		FactRows:    1234,
		Nodes: map[string]NodeMeta{"7": {NTRows: 3, NTOff: 24,
			NTCodec: &ExtentCodec{BlockRows: 256, RawBytes: 72, Offs: []int64{0, 40}}}},
		Iceberg: 1,
	}
	if err := WriteManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	back, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !maps.Equal(back.PlanParents, m.PlanParents) || back.FactRows != 1234 {
		t.Errorf("manifest fields lost: %+v", back)
	}
	nm, ok := back.NodeMeta(7)
	if !ok || nm.NTRows != 3 {
		t.Errorf("node meta lost: %+v ok=%v", nm, ok)
	}
	if _, ok := back.NodeMeta(8); ok {
		t.Error("phantom node meta")
	}
	// The manifest lands by rename: no temporary survives.
	if _, err := os.Stat(filepath.Join(dir, ManifestFile+".tmp")); !os.IsNotExist(err) {
		t.Errorf("manifest temporary left behind: %v", err)
	}
}

// TestReadManifestRejectsUnreadableExtents: rows without a block index
// covering them cannot be read, so the manifest must not load.
func TestReadManifestRejectsUnreadableExtents(t *testing.T) {
	for name, nm := range map[string]NodeMeta{
		"no codec":        {NTRows: 3},
		"short offsets":   {NTRows: 600, NTCodec: &ExtentCodec{BlockRows: 256, Offs: []int64{0, 40}}},
		"zero block rows": {CATRows: 3, CATCodec: &ExtentCodec{Offs: []int64{0, 40}}},
		"offsets go back": {TTRows: 300, TTCodec: &ExtentCodec{BlockRows: 256, Offs: []int64{0, 40, 30}}},
	} {
		dir := t.TempDir()
		m := &Manifest{Version: manifestVersion, Nodes: map[string]NodeMeta{"7": nm}}
		if err := WriteManifest(dir, m); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadManifest(dir); err == nil {
			t.Errorf("%s: manifest accepted", name)
		}
	}
}

// TestReadManifestRefusesBitmapTTKind: a cube written when CURE+ bitmaps
// lived in a file of their own records a bitmap TT as tt_kind 1 with no
// block index; it is refused with an error.
func TestReadManifestRefusesBitmapTTKind(t *testing.T) {
	dir := t.TempDir()
	old := `{"version":4,"nodes":{"7":{"tt_off":0,"tt_rows":200,"tt_kind":1,"tt_bm_len":48}}}`
	if err := os.WriteFile(filepath.Join(dir, ManifestFile), []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifest(dir); err == nil || !strings.Contains(err.Error(), "no block index") {
		t.Errorf("error = %v, want the missing block index named", err)
	}
}

func TestReadManifestRejectsBadVersion(t *testing.T) {
	dir := t.TempDir()
	for _, v := range []string{"0", "5", "99"} {
		if err := os.WriteFile(filepath.Join(dir, ManifestFile), []byte(`{"version": `+v+`}`), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadManifest(dir); err == nil {
			t.Errorf("version %s accepted", v)
		}
	}
	// Version 1 was the fixed-width format. Version 2 recorded partition
	// levels, not the plan: read as version 3 it would share trivial tuples
	// across its phase roots and count them twice. Version 3 kept a zone
	// slot per level: read in today's layout, a level's bounds would prune
	// as another dimension's base. The error must name the version and say
	// what to do.
	for v, old := range map[int]string{
		1: `{"version": 1}`,
		2: `{"version":2,"partition_level":1,"partition_level_b":-1,"compression":"block","nodes":{"7":{"nt_rows":3}}}`,
		3: `{"version":3,"nodes":{"7":{"nt_rows":300,"nt_zones":{"block_rows":256,"slots":12,"lo":[0],"hi":[0]}}}}`,
	} {
		if err := os.WriteFile(filepath.Join(dir, ManifestFile), []byte(old), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := ReadManifest(dir)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("version-%d cube", v)) || !strings.Contains(err.Error(), "rebuild the cube") {
			t.Errorf("version %d: error = %v, want one that names the version and says to rebuild", v, err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, ManifestFile), []byte(`{not json`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifest(dir); err == nil {
		t.Error("bad json accepted")
	}
}

// TestOpenReaderDecodesPlanParents: the reader walks the recorded plan
// tree — a recorded parent, PlanRoot, else lattice.PlanParent — and
// refuses a record whose walk could leave the lattice or never end.
func TestOpenReaderDecodesPlanParents(t *testing.T) {
	// testHier's nodes: A0B0 0, A1B0 1, B0 2, A0 3, A1 4, ∅ 5.
	dir := t.TempDir()
	w := newTestWriter(t, Options{Dir: dir})
	w.SetPlanParent(3, PlanRoot)
	w.SetPlanParent(0, 3)
	m, err := w.Finalize(signature.FormatNT)
	if err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		id, want lattice.NodeID
		ok       bool
	}{{0, 3, true}, {3, 0, false}, {1, 4, true}, {4, 5, true}, {5, 0, false}} { // want is unused when !ok
		if p, ok := r.PlanParent(c.id); ok != c.ok || ok && p != c.want {
			t.Errorf("PlanParent(%d) = %d, %v; want %d, %v", c.id, p, ok, c.want, c.ok)
		}
	}
	if got := r.PlanRoots(); !slices.Equal(got, []lattice.NodeID{3}) {
		t.Errorf("PlanRoots = %v, want [3]", got)
	}
	r.Close()
	for name, bad := range map[string]map[string]lattice.NodeID{
		"self":          {"0": 0},
		"finer":         {"3": 0},
		"incomparable":  {"3": 2},
		"padded key":    {"03": PlanRoot},
		"node outside":  {"6": PlanRoot},
		"parent beyond": {"0": 99},
		"negative":      {"0": -2},
	} {
		m.PlanParents = bad
		if err := WriteManifest(dir, m); err != nil {
			t.Fatal(err)
		}
		if r, err := OpenReader(dir); err == nil || !strings.Contains(err.Error(), "plan_parents") {
			t.Errorf("%s: OpenReader error = %v, want plan_parents refused", name, err)
			if err == nil {
				r.Close()
			}
		}
	}
}

func TestHierSchemaSidecarRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w := newTestWriter(t, Options{Dir: dir})
	if _, err := w.Finalize(signature.FormatNT); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	h := r.Hier()
	if h.NumDims() != 2 || h.Dims[0].Name != "A" || h.Dims[0].NumLevels() != 3 {
		t.Errorf("hierarchy lost in round trip: %+v", h)
	}
	// Level maps survive too.
	if h.Dims[0].MapCode(7, 1) != 1 {
		t.Error("level map lost")
	}
}

func TestAggregatesRawDecode(t *testing.T) {
	dir := t.TempDir()
	w := newTestWriter(t, Options{Dir: dir})
	for i := 0; i < 10; i++ {
		if _, err := w.AppendAggregate(-1, []float64{float64(i), float64(i * 2)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.Finalize(signature.FormatB); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	raw, err := r.AggregatesRaw()
	if err != nil {
		t.Fatal(err)
	}
	aggrs := make([]float64, 2)
	for i := int64(0); i < 10; i++ {
		if rr := r.DecodeAggregate(raw, i, aggrs); rr != -1 {
			t.Errorf("format-B decode returned rrowid %d", rr)
		}
		if aggrs[0] != float64(i) || aggrs[1] != float64(i*2) {
			t.Errorf("agg %d = %v", i, aggrs)
		}
	}
}

func TestOpenReaderMissingFiles(t *testing.T) {
	dir := t.TempDir()
	w := newTestWriter(t, Options{Dir: dir})
	if err := w.WriteTT(w.Enum().Encode([]int{0, 0}), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Finalize(signature.FormatNT); err != nil {
		t.Fatal(err)
	}
	// Removing a required relation file must fail OpenReader cleanly.
	if err := os.Remove(filepath.Join(dir, NTFile)); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenReader(dir); err == nil {
		t.Error("reader opened a cube with a missing relation file")
	}
}

// TestReaderTruncatedExtent: a relation file or hierarchy sidecar whose
// size differs from the manifest's record — cut short, or grown by one
// byte — does not open, and the error names the file. The sidecar is one
// gob value, which decodes the same with bytes appended to it.
func TestReaderTruncatedExtent(t *testing.T) {
	for name, resize := range map[string]func(path string) error{
		"truncated": func(path string) error { return os.Truncate(path, 10) },
		"appended": func(path string) error {
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				return err
			}
			if _, err := f.Write([]byte{0}); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		},
	} {
		t.Run(name, func(t *testing.T) {
			for _, file := range []string{NTFile, HierFile} {
				t.Run(file, func(t *testing.T) {
					dir := t.TempDir()
					w := newTestWriter(t, Options{Dir: dir})
					node := w.Enum().Encode([]int{0, 0})
					for i := 0; i < 50; i++ {
						if err := w.WriteNT(node, int64(i), []float64{1, 1}); err != nil {
							t.Fatal(err)
						}
					}
					if _, err := w.Finalize(signature.FormatNT); err != nil {
						t.Fatal(err)
					}
					if err := resize(filepath.Join(dir, file)); err != nil {
						t.Fatal(err)
					}
					r, err := OpenReader(dir)
					if err == nil {
						r.Close()
						t.Fatalf("a resized %s opened", file)
					}
					if !strings.Contains(err.Error(), file) {
						t.Errorf("error %q does not name %s", err, file)
					}
				})
			}
		})
	}
}

func TestAbortLeavesNothing(t *testing.T) {
	dir := t.TempDir()
	w := newTestWriter(t, Options{Dir: dir})
	if err := w.WriteTT(w.Enum().Encode([]int{0, 0}), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := w.AppendAggregate(-1, []float64{1, 1}); err != nil {
		t.Fatal(err)
	}
	w.Abort()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("%s survived Abort", e.Name())
	}
	// Abort after Finalize is a no-op.
	w2 := newTestWriter(t, Options{Dir: t.TempDir()})
	if _, err := w2.Finalize(signature.FormatNT); err != nil {
		t.Fatal(err)
	}
	w2.Abort()
}

func TestWriterEmptyCube(t *testing.T) {
	dir := t.TempDir()
	w := newTestWriter(t, Options{Dir: dir})
	m, err := w.Finalize(signature.FormatUndecided)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Nodes) != 0 || m.Sizes.Total() != 0 {
		t.Errorf("empty cube has %d nodes, %d bytes", len(m.Nodes), m.Sizes.Total())
	}
	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ids, err := r.TTRowIDs(0, nil)
	if err != nil || len(ids) != 0 {
		t.Errorf("empty cube TTs = %v, %v", ids, err)
	}
}

func TestChecksums(t *testing.T) {
	dir := t.TempDir()
	w := newTestWriter(t, Options{Dir: dir})
	node := w.Enum().Encode([]int{0, 0})
	for i := 0; i < 10; i++ {
		if err := w.WriteNT(node, int64(i), []float64{float64(i), 1}); err != nil {
			t.Fatal(err)
		}
		if err := w.WriteTT(node, int64(i+100)); err != nil {
			t.Fatal(err)
		}
	}
	m, err := w.Finalize(signature.FormatNT)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Checksums) == 0 {
		t.Fatal("no checksums recorded")
	}
	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := r.VerifyChecksums()
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 0 {
		t.Fatalf("clean cube reports corrupted files: %v", bad)
	}
	r.Close()

	// Flip a byte in the NT relation, then one in the hierarchy sidecar
	// that still decodes (a level name): each checksum must catch its file.
	flips := []struct {
		name string
		at   func([]byte) int
		want []string // VerifyChecksums' verdict after the flip, sorted
	}{
		{NTFile, func(data []byte) int { return len(data) / 2 }, []string{NTFile}},
		{HierFile, func(data []byte) int { return bytes.LastIndex(data, []byte("A1")) }, []string{HierFile, NTFile}},
	}
	for _, fl := range flips {
		path := filepath.Join(dir, fl.name)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		at := fl.at(data)
		if at < 0 {
			t.Fatalf("%s: nothing to flip", fl.name)
		}
		data[at] ^= 0x20
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		r2, err := OpenReader(dir)
		if err != nil {
			t.Fatal(err)
		}
		bad, err = r2.VerifyChecksums()
		r2.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(bad, fl.want) {
			t.Fatalf("after flipping %s: corrupted files %v, want %v", fl.name, bad, fl.want)
		}
	}
}

func TestRandomizedWriteReadRoundTrip(t *testing.T) {
	// Property: arbitrary interleavings of NT/TT/CAT writes across nodes
	// survive spill, compaction, and (optionally) CURE+ post-processing.
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 8; trial++ {
		dir := t.TempDir()
		plus := trial%2 == 0
		w := newTestWriter(t, Options{Dir: dir, plainLayout: !plus, StageBudget: int64(64 + rng.Intn(4096)), FactRows: 10_000})
		enum := w.Enum()
		numNodes := int(enum.NumNodes())

		type ntRec struct {
			rrowid int64
			aggrs  [2]float64
		}
		wantNT := map[lattice.NodeID][]ntRec{}
		seenNT := map[lattice.NodeID]map[int64]bool{}
		wantTT := map[lattice.NodeID]map[int64]bool{}
		wantCAT := map[lattice.NodeID]int{}
		n := 200 + rng.Intn(800)
		var arowid int64 = -1
		for i := 0; i < n; i++ {
			node := lattice.NodeID(rng.Intn(numNodes))
			switch rng.Intn(3) {
			case 0:
				rec := ntRec{int64(rng.Intn(10_000)), [2]float64{float64(rng.Intn(50)), float64(rng.Intn(5))}}
				if seenNT[node] == nil {
					seenNT[node] = map[int64]bool{}
				}
				if seenNT[node][rec.rrowid] {
					continue // one tuple per source group per node, as in real builds
				}
				seenNT[node][rec.rrowid] = true
				if err := w.WriteNT(node, rec.rrowid, rec.aggrs[:]); err != nil {
					t.Fatal(err)
				}
				wantNT[node] = append(wantNT[node], rec)
			case 1:
				id := int64(rng.Intn(10_000))
				if wantTT[node] == nil {
					wantTT[node] = map[int64]bool{}
				}
				if wantTT[node][id] {
					continue // TT ids are unique per node in real builds
				}
				wantTT[node][id] = true
				if err := w.WriteTT(node, id); err != nil {
					t.Fatal(err)
				}
			case 2:
				if arowid < 0 || rng.Intn(3) == 0 {
					var err error
					if arowid, err = w.AppendAggregate(-1, []float64{float64(rng.Intn(9)), 1}); err != nil {
						t.Fatal(err)
					}
				}
				if err := w.WriteCAT(node, int64(rng.Intn(10_000)), arowid); err != nil {
					t.Fatal(err)
				}
				wantCAT[node]++
			}
		}
		m, err := w.Finalize(signature.FormatB)
		if err != nil {
			t.Fatal(err)
		}
		r, err := OpenReader(dir)
		if err != nil {
			t.Fatal(err)
		}
		for node, want := range wantNT {
			got := map[int64][2]float64{}
			if err := r.NTRows(node, func(row NTRow) error {
				got[row.RRowid] = [2]float64{row.Aggrs[0], row.Aggrs[1]}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			for _, rec := range want {
				g, ok := got[rec.rrowid]
				if !ok || g != rec.aggrs {
					t.Fatalf("trial %d node %d: NT %d = %v, want %v", trial, node, rec.rrowid, g, rec.aggrs)
				}
			}
		}
		for node, want := range wantTT {
			ids, err := r.TTRowIDs(node, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(ids) != len(want) {
				t.Fatalf("trial %d node %d: %d TTs, want %d", trial, node, len(ids), len(want))
			}
			for _, id := range ids {
				if !want[id] {
					t.Fatalf("trial %d node %d: unexpected TT %d", trial, node, id)
				}
			}
		}
		for node, want := range wantCAT {
			got := 0
			if err := r.CATRows(node, func(CATRow) error { got++; return nil }); err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("trial %d node %d: %d CATs, want %d", trial, node, got, want)
			}
		}
		// Checksums hold for every trial.
		bad, err := r.VerifyChecksums()
		if err != nil {
			t.Fatal(err)
		}
		if len(bad) > 0 {
			t.Fatalf("trial %d: corrupted files %v", trial, bad)
		}
		r.Close()
		_ = m
	}
}

// TestConcurrentWritersCountLockTraffic hammers one armed writer from
// several goroutines and checks (a) every tuple survives into the cube
// and (b) the storage.lock.acquired counter accounts for every sink
// call, with contended ≤ acquired. Run under -race this doubles as the
// writer's concurrency regression test.
func TestConcurrentWritersCountLockTraffic(t *testing.T) {
	reg := obsv.NewRegistry()
	w := newTestWriter(t, Options{Metrics: reg})
	w.Lock()
	enum := w.Enum()
	node := enum.Encode([]int{0, 0})
	const workers, perWorker = 8, 200
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				rid := int64(g*perWorker + i)
				var err error
				if i%2 == 0 {
					err = w.WriteNT(node, rid, []float64{float64(rid), 1})
				} else {
					err = w.WriteTT(node, rid)
				}
				if err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	m, err := w.Finalize(signature.FormatB)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, nm := range m.Nodes {
		total += nm.NTRows + nm.TTRows
	}
	if want := int64(workers * perWorker); total != want {
		t.Fatalf("cube holds %d tuples, want %d", total, want)
	}
	acq := reg.Counter("storage.lock.acquired").Value()
	cont := reg.Counter("storage.lock.contended").Value()
	if acq != int64(workers*perWorker) {
		t.Fatalf("lock.acquired = %d, want %d", acq, workers*perWorker)
	}
	if cont < 0 || cont > acq {
		t.Fatalf("lock.contended = %d out of range [0, %d]", cont, acq)
	}
}

// TestUnarmedWriterSkipsLockCounters pins the sequential fast path: a
// writer that was never Lock()ed must not touch the lock counters.
func TestUnarmedWriterSkipsLockCounters(t *testing.T) {
	reg := obsv.NewRegistry()
	w := newTestWriter(t, Options{Metrics: reg})
	node := w.Enum().Encode([]int{0, 0})
	if err := w.WriteNT(node, 1, []float64{1, 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Finalize(signature.FormatB); err != nil {
		t.Fatal(err)
	}
	if v := reg.Counter("storage.lock.acquired").Value(); v != 0 {
		t.Fatalf("unarmed writer recorded %d lock acquisitions", v)
	}
}
