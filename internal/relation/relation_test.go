package relation

import (
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"testing/quick"
)

func testSchema() *Schema {
	return &Schema{
		DimNames:     []string{"A", "B", "C"},
		MeasureNames: []string{"M1", "M2"},
	}
}

func TestSchemaValidate(t *testing.T) {
	tests := []struct {
		name    string
		schema  Schema
		wantErr bool
	}{
		{"ok", *testSchema(), false},
		{"no dims", Schema{MeasureNames: []string{"M"}}, true},
		{"dup dim", Schema{DimNames: []string{"A", "A"}}, true},
		{"dup across", Schema{DimNames: []string{"A"}, MeasureNames: []string{"A"}}, true},
		{"empty dim name", Schema{DimNames: []string{""}}, true},
		{"empty measure name", Schema{DimNames: []string{"A"}, MeasureNames: []string{""}}, true},
		{"no measures ok", Schema{DimNames: []string{"A"}}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.schema.Validate(); (err != nil) != tt.wantErr {
				t.Errorf("Validate() error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestSchemaRowWidth(t *testing.T) {
	s := testSchema()
	if got, want := s.RowWidth(), 3*4+2*8; got != want {
		t.Errorf("RowWidth() = %d, want %d", got, want)
	}
}

func TestAggSpecValidate(t *testing.T) {
	if err := (AggSpec{Func: AggSum, Measure: 1}).Validate(2); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	if err := (AggSpec{Func: AggSum, Measure: 2}).Validate(2); err == nil {
		t.Error("out-of-range measure accepted")
	}
	if err := (AggSpec{Func: AggCount, Measure: 99}).Validate(2); err != nil {
		t.Errorf("COUNT should ignore measure index: %v", err)
	}
}

func TestAggFuncString(t *testing.T) {
	for f, want := range map[AggFunc]string{AggSum: "SUM", AggCount: "COUNT", AggMin: "MIN", AggMax: "MAX"} {
		if got := f.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", f, got, want)
		}
	}
}

func TestFactTableAppendAndAccess(t *testing.T) {
	ft := NewFactTable(testSchema(), 4)
	ft.Append([]int32{1, 2, 3}, []float64{10, 20})
	ft.Append([]int32{4, 5, 6}, []float64{30, 40})
	if ft.Len() != 2 {
		t.Fatalf("Len = %d, want 2", ft.Len())
	}
	if err := ft.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := ft.DimRow(1, nil); !reflect.DeepEqual(got, []int32{4, 5, 6}) {
		t.Errorf("DimRow(1) = %v", got)
	}
	if got := ft.MeasureRow(0, nil); !reflect.DeepEqual(got, []float64{10, 20}) {
		t.Errorf("MeasureRow(0) = %v", got)
	}
	if ft.RowID(1) != 1 {
		t.Errorf("identity RowID(1) = %d", ft.RowID(1))
	}
}

func TestFactTableRowIDs(t *testing.T) {
	ft := NewFactTable(testSchema(), 2)
	ft.AppendWithRowID([]int32{1, 1, 1}, []float64{1, 1}, 42)
	ft.AppendWithRowID([]int32{2, 2, 2}, []float64{2, 2}, 7)
	if ft.RowID(0) != 42 || ft.RowID(1) != 7 {
		t.Errorf("RowIDs = %d,%d, want 42,7", ft.RowID(0), ft.RowID(1))
	}
	if err := ft.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

// TestFactTableSizeBytes: a table's bytes are Len × Schema.RowWidth() —
// 4 per dimension and 8 per measure — after the file header, the volume
// the build's memory budget and the partitioner account with.
func TestFactTableSizeBytes(t *testing.T) {
	ft := NewFactTable(testSchema(), 0)
	for i := 0; i < 10; i++ {
		ft.Append([]int32{0, 0, 0}, []float64{0, 0})
	}
	path := filepath.Join(t.TempDir(), "size.bin")
	if err := WriteFactFile(path, ft); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := info.Size()-int64(headerSize(ft.Schema)), int64(ft.Len()*ft.Schema.RowWidth()); got != want || want != 10*(3*4+2*8) {
		t.Errorf("fact file holds %d row bytes, want %d = 10 × (3×4 + 2×8)", got, want)
	}
}

func TestAggregator(t *testing.T) {
	specs := []AggSpec{
		{Func: AggSum, Measure: 0},
		{Func: AggCount},
		{Func: AggMin, Measure: 1},
		{Func: AggMax, Measure: 1},
	}
	ft := NewFactTable(testSchema(), 3)
	ft.Append([]int32{1, 1, 1}, []float64{10, 5})
	ft.Append([]int32{1, 1, 1}, []float64{20, -3})
	ft.Append([]int32{1, 1, 1}, []float64{30, 8})
	a := NewAggregator(specs)
	for r := 0; r < 3; r++ {
		a.AddValues(ft.MeasureRow(r, nil))
	}
	got := a.Values(nil)
	want := []float64{60, 3, -3, 8}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Values = %v, want %v", got, want)
	}
	if a.Count() != 3 {
		t.Errorf("Count = %d", a.Count())
	}
	a = NewAggregator(specs)
	a.AddValues([]float64{5, 2})
	a.AddValues([]float64{7, 9})
	got = a.Values(got)
	want = []float64{12, 2, 2, 9}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("after AddValues: Values = %v, want %v", got, want)
	}
}

func TestAggregateRange(t *testing.T) {
	specs := []AggSpec{{Func: AggSum, Measure: 0}, {Func: AggCount}, {Func: AggMin, Measure: 0}, {Func: AggMax, Measure: 0}}
	ft := NewFactTable(testSchema(), 5)
	for i := 0; i < 5; i++ {
		ft.Append([]int32{0, 0, 0}, []float64{float64(i + 1), 0})
	}
	idx := []int32{4, 2, 0, 1, 3}
	got := AggregateRange(ft, specs, idx, 1, 4, nil)
	// Rows 2, 0, 1 → measures 3, 1, 2.
	want := []float64{6, 3, 1, 3}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("AggregateRange = %v, want %v", got, want)
	}
}

func TestAggregateRangeMatchesAggregator(t *testing.T) {
	// Property: AggregateRange over a segment equals incremental AddValues.
	specs := []AggSpec{{Func: AggSum, Measure: 0}, {Func: AggMin, Measure: 1}, {Func: AggMax, Measure: 0}, {Func: AggCount}}
	rng := rand.New(rand.NewSource(1))
	ft := NewFactTable(testSchema(), 100)
	for i := 0; i < 100; i++ {
		ft.Append([]int32{0, 0, 0}, []float64{rng.NormFloat64() * 10, rng.NormFloat64()})
	}
	idx := make([]int32, 100)
	for i := range idx {
		idx[i] = int32(rng.Intn(100))
	}
	for trial := 0; trial < 20; trial++ {
		lo := rng.Intn(99)
		hi := lo + 1 + rng.Intn(100-lo-1)
		fast := AggregateRange(ft, specs, idx, lo, hi, nil)
		a := NewAggregator(specs)
		for j := lo; j < hi; j++ {
			a.AddValues(ft.MeasureRow(int(idx[j]), nil))
		}
		slow := a.Values(nil)
		for k := range fast {
			if math.Abs(fast[k]-slow[k]) > 1e-9 {
				t.Fatalf("trial %d agg %d: fast %v slow %v", trial, k, fast, slow)
			}
		}
	}
}

func TestFactFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fact.bin")
	ft := NewFactTable(testSchema(), 100)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		ft.Append(
			[]int32{int32(rng.Intn(50)), int32(rng.Intn(20)), int32(rng.Intn(5))},
			[]float64{rng.Float64() * 100, float64(rng.Intn(1000))},
		)
	}
	if err := WriteFactFile(path, ft); err != nil {
		t.Fatalf("WriteFactFile: %v", err)
	}
	back, err := ReadFactFile(path)
	if err != nil {
		t.Fatalf("ReadFactFile: %v", err)
	}
	if back.Len() != ft.Len() {
		t.Fatalf("rows = %d, want %d", back.Len(), ft.Len())
	}
	if !reflect.DeepEqual(back.Schema, ft.Schema) {
		t.Errorf("schema mismatch: %+v vs %+v", back.Schema, ft.Schema)
	}
	if !reflect.DeepEqual(back.Dims, ft.Dims) || !reflect.DeepEqual(back.Measures, ft.Measures) {
		t.Error("data mismatch after round trip")
	}
}

func TestFactWriterStreamsAndPatchesCount(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "stream.bin")
	s := testSchema()
	fw, err := NewFactWriter(path, s, false)
	if err != nil {
		t.Fatalf("NewFactWriter: %v", err)
	}
	for i := 0; i < 37; i++ {
		if err := fw.Write([]int32{int32(i), int32(i * 2), int32(i % 3)}, []float64{float64(i), -float64(i)}); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	if fw.Rows() != 37 {
		t.Errorf("Rows = %d", fw.Rows())
	}
	if err := fw.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	back, err := ReadFactFile(path)
	if err != nil {
		t.Fatalf("ReadFactFile: %v", err)
	}
	if back.Len() != 37 {
		t.Fatalf("rows = %d, want 37", back.Len())
	}
	if back.Dims[0][36] != 36 || back.Measures[1][36] != -36 {
		t.Error("last row corrupted")
	}
}

func TestFactReaderRandomAccess(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ra.bin")
	ft := NewFactTable(testSchema(), 64)
	for i := 0; i < 64; i++ {
		ft.Append([]int32{int32(i), int32(i * i), 0}, []float64{float64(i) / 3, float64(-i)})
	}
	if err := WriteFactFile(path, ft); err != nil {
		t.Fatalf("WriteFactFile: %v", err)
	}
	fr, err := OpenFactReader(path)
	if err != nil {
		t.Fatalf("OpenFactReader: %v", err)
	}
	defer fr.Close()
	if fr.Rows() != 64 {
		t.Fatalf("Rows = %d", fr.Rows())
	}
	dims := make([]int32, 3)
	meas := make([]float64, 2)
	row := make([]byte, fr.RowWidth())
	for _, id := range []int64{0, 63, 17, 31, 1} {
		if err := fr.ReadRaw(id, row); err != nil {
			t.Fatalf("ReadRaw(%d): %v", id, err)
		}
		decodeRow(row, dims, meas)
		if dims[0] != int32(id) || dims[1] != int32(id*id) || meas[1] != float64(-id) {
			t.Errorf("row %d decoded as dims=%v meas=%v", id, dims, meas)
		}
	}
	if err := fr.ReadRaw(64, row); err == nil {
		t.Error("out-of-range read succeeded")
	}
	if err := fr.ReadRaw(-1, row); err == nil {
		t.Error("negative read succeeded")
	}
	// Batch read of three consecutive rows.
	buf := make([]byte, fr.RowWidth()*3)
	if err := fr.ReadRawAt(10, 3, buf); err != nil {
		t.Fatalf("ReadRawAt: %v", err)
	}
	decodeRow(buf[fr.RowWidth():2*fr.RowWidth()], dims, meas)
	if dims[0] != 11 {
		t.Errorf("batch middle row dims=%v", dims)
	}
}

func TestOpenFactReaderRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "garbage.bin")
	if err := os.WriteFile(path, []byte("this is not a fact file at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFactReader(path); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ReadFactFile(path); err == nil {
		t.Error("garbage accepted by ReadFactFile")
	}
}

func TestRowCodecProperty(t *testing.T) {
	// Property: encodeRow/decodeRow round-trips arbitrary values,
	// including NaN payloads and negative codes.
	f := func(a, b int32, m1, m2 float64) bool {
		buf := make([]byte, 2*4+2*8)
		encodeRow(buf, []int32{a, b}, []float64{m1, m2})
		dims := make([]int32, 2)
		meas := make([]float64, 2)
		decodeRow(buf, dims, meas)
		same := func(x, y float64) bool {
			return x == y || (math.IsNaN(x) && math.IsNaN(y))
		}
		return dims[0] == a && dims[1] == b && same(meas[0], m1) && same(meas[1], m2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestFactFileWithRowIDsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "part.bin")
	ft := NewFactTable(testSchema(), 8)
	for i := 0; i < 8; i++ {
		ft.AppendWithRowID([]int32{int32(i), 0, 0}, []float64{float64(i), 0}, int64(i*100+7))
	}
	if err := WriteFactFile(path, ft); err != nil {
		t.Fatalf("WriteFactFile: %v", err)
	}
	back, err := ReadFactFile(path)
	if err != nil {
		t.Fatalf("ReadFactFile: %v", err)
	}
	if back.RowIDs == nil {
		t.Fatal("row-ids lost")
	}
	for i := 0; i < 8; i++ {
		if back.RowID(i) != int64(i*100+7) {
			t.Errorf("RowID(%d) = %d", i, back.RowID(i))
		}
	}
	fr, err := OpenFactReader(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Close()
	if !fr.HasRowIDs() {
		t.Fatal("reader lost row-id flag")
	}
	buf := make([]byte, fr.RowWidth())
	if err := fr.ReadRaw(3, buf); err != nil {
		t.Fatal(err)
	}
	if id := int64(binary.LittleEndian.Uint64(buf[fr.Schema().RowWidth():])); id != 307 {
		t.Errorf("row 3 carries row-id %d, want 307", id)
	}
}

func TestFactWriterRowIDModeEnforced(t *testing.T) {
	dir := t.TempDir()
	s := testSchema()
	fw, err := NewFactWriter(filepath.Join(dir, "a.bin"), s, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.Write([]int32{0, 0, 0}, []float64{0, 0}); err == nil {
		t.Error("Write accepted on row-id writer")
	}
	raw := make([]byte, s.RowWidth()+8)
	encodeRow(raw, []int32{0, 0, 0}, []float64{0, 0})
	binary.LittleEndian.PutUint64(raw[s.RowWidth():], 5)
	if err := fw.WriteRawRows(raw, 1); err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	fw2, err := NewFactWriter(filepath.Join(dir, "b.bin"), s, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := fw2.WriteRawRows(raw, 1); err == nil {
		t.Error("row-id-tagged raw row accepted by a plain writer")
	}
	fw2.Close()
}

func TestAppendToFactFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "grow.bin")
	base := NewFactTable(testSchema(), 5)
	for i := 0; i < 5; i++ {
		base.Append([]int32{int32(i), 0, 0}, []float64{float64(i), 0})
	}
	if err := WriteFactFile(path, base); err != nil {
		t.Fatal(err)
	}
	delta := NewFactTable(testSchema(), 3)
	for i := 0; i < 3; i++ {
		delta.Append([]int32{int32(100 + i), 1, 1}, []float64{float64(i), 1})
	}
	firstID, err := AppendToFactFile(path, delta)
	if err != nil {
		t.Fatal(err)
	}
	if firstID != 5 {
		t.Errorf("firstID = %d, want 5", firstID)
	}
	back, err := ReadFactFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 8 {
		t.Fatalf("rows = %d, want 8", back.Len())
	}
	if back.Dims[0][5] != 100 || back.Dims[0][7] != 102 || back.Measures[1][6] != 1 {
		t.Error("appended rows corrupted")
	}
	// Original rows untouched.
	if back.Dims[0][4] != 4 || back.Measures[0][4] != 4 {
		t.Error("original rows corrupted")
	}

	// Mismatched schema rejected.
	bad := NewFactTable(&Schema{DimNames: []string{"A"}, MeasureNames: []string{"M"}}, 1)
	bad.Append([]int32{0}, []float64{0})
	if _, err := AppendToFactFile(path, bad); err == nil {
		t.Error("schema mismatch accepted")
	}
	// Row-id-tagged target rejected.
	tagged := NewFactTable(testSchema(), 1)
	tagged.AppendWithRowID([]int32{0, 0, 0}, []float64{0, 0}, 9)
	taggedPath := filepath.Join(dir, "tagged.bin")
	if err := WriteFactFile(taggedPath, tagged); err != nil {
		t.Fatal(err)
	}
	if _, err := AppendToFactFile(taggedPath, delta); err == nil {
		t.Error("append to row-id file accepted")
	}
	// Missing file rejected.
	if _, err := AppendToFactFile(filepath.Join(dir, "absent.bin"), delta); err == nil {
		t.Error("missing target accepted")
	}
}

func TestFactReaderSchemaAccessor(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.bin")
	ft := NewFactTable(testSchema(), 1)
	ft.Append([]int32{1, 2, 3}, []float64{4, 5})
	if err := WriteFactFile(path, ft); err != nil {
		t.Fatal(err)
	}
	fr, err := OpenFactReader(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Close()
	if fr.Schema().NumDims() != 3 || fr.Schema().MeasureNames[1] != "M2" {
		t.Errorf("Schema = %+v", fr.Schema())
	}
	if ft.Len() != 1 {
		t.Error("Len wrong")
	}
	empty := NewFactTable(testSchema(), 0)
	if empty.Len() != 0 {
		t.Error("empty Len wrong")
	}
	var zero FactTable
	if zero.Len() != 0 {
		t.Error("zero-value Len wrong")
	}
}
