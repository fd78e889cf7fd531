package relation

import (
	"math/rand"
	"path/filepath"
	"testing"
)

// scanTestFact writes a fact file with rows random rows (tagged row-ids
// when withIDs) and returns its path plus the in-memory ground truth.
func scanTestFact(t *testing.T, rows int, withIDs bool) (string, *FactTable) {
	t.Helper()
	s := &Schema{DimNames: []string{"a", "b", "c"}, MeasureNames: []string{"x", "y"}}
	ft := NewFactTable(s, rows)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < rows; i++ {
		dims := []int32{rng.Int31n(100), rng.Int31n(50), rng.Int31n(10)}
		meas := []float64{float64(rng.Intn(1000)), float64(rng.Intn(9))}
		if withIDs {
			// Non-trivial ids: reversed order, so Start+i would be wrong.
			ft.AppendWithRowID(dims, meas, int64(rows-i))
		} else {
			ft.Append(dims, meas)
		}
	}
	path := filepath.Join(t.TempDir(), "fact.bin")
	if err := WriteFactFile(path, ft); err != nil {
		t.Fatalf("WriteFactFile: %v", err)
	}
	return path, ft
}

func TestScanBatchesMatchesRowReads(t *testing.T) {
	for _, withIDs := range []bool{false, true} {
		path, want := scanTestFact(t, 337, withIDs)
		fr, err := OpenFactReader(path)
		if err != nil {
			t.Fatalf("OpenFactReader: %v", err)
		}
		defer fr.Close()
		// Deliberately awkward batch size so the last batch is partial.
		for _, batchRows := range []int{1, 7, 64, 337, 10_000, 0} {
			var got int64
			err := fr.ScanBatches(0, fr.Rows(), batchRows, func(b *Batch) error {
				if b.Start != got {
					t.Fatalf("batch start %d, want %d", b.Start, got)
				}
				for i := 0; i < b.N; i++ {
					r := int(b.Start) + i
					for d := range b.Dims {
						if b.Dims[d][i] != want.Dims[d][r] {
							t.Fatalf("ids=%v batch=%d row %d dim %d: got %d want %d",
								withIDs, batchRows, r, d, b.Dims[d][i], want.Dims[d][r])
						}
					}
					for m := range b.Meas {
						if b.Meas[m][i] != want.Measures[m][r] {
							t.Fatalf("row %d measure %d: got %v want %v", r, m, b.Meas[m][i], want.Measures[m][r])
						}
					}
					wantID := int64(r)
					if withIDs {
						wantID = want.RowIDs[r]
					}
					if b.RowID(i) != wantID {
						t.Fatalf("row %d: RowID=%d want %d", r, b.RowID(i), wantID)
					}
					// Raw bytes must round-trip through the row decoder too.
					dims := make([]int32, 3)
					meas := make([]float64, 2)
					decodeRow(b.Raw[i*b.Width:(i+1)*b.Width], dims, meas)
					if dims[0] != want.Dims[0][r] {
						t.Fatalf("row %d raw decode mismatch", r)
					}
				}
				got += int64(b.N)
				return nil
			})
			if err != nil {
				t.Fatalf("ScanBatches(batchRows=%d): %v", batchRows, err)
			}
			if got != fr.Rows() {
				t.Fatalf("scanned %d rows, want %d", got, fr.Rows())
			}
		}
	}
}

func TestScanBatchesSubrange(t *testing.T) {
	path, want := scanTestFact(t, 100, false)
	fr, err := OpenFactReader(path)
	if err != nil {
		t.Fatalf("OpenFactReader: %v", err)
	}
	defer fr.Close()
	var rows []int32
	if err := fr.ScanBatches(25, 60, 8, func(b *Batch) error {
		rows = append(rows, b.Dims[0][:b.N]...)
		return nil
	}); err != nil {
		t.Fatalf("ScanBatches: %v", err)
	}
	if len(rows) != 35 {
		t.Fatalf("got %d rows, want 35", len(rows))
	}
	for i, v := range rows {
		if v != want.Dims[0][25+i] {
			t.Fatalf("row %d: got %d want %d", 25+i, v, want.Dims[0][25+i])
		}
	}
	if err := fr.ScanBatches(-1, 10, 0, func(*Batch) error { return nil }); err == nil {
		t.Fatal("negative start accepted")
	}
	if err := fr.ScanBatches(0, fr.Rows()+1, 0, func(*Batch) error { return nil }); err == nil {
		t.Fatal("end past EOF accepted")
	}
}

func TestLoadFactRowsPrefixAndAll(t *testing.T) {
	for _, withIDs := range []bool{false, true} {
		path, want := scanTestFact(t, 211, withIDs)
		full, err := LoadFactRows(path, -1)
		if err != nil {
			t.Fatalf("LoadFactRows(-1): %v", err)
		}
		if full.Len() != want.Len() {
			t.Fatalf("full load: %d rows, want %d", full.Len(), want.Len())
		}
		prefix, err := LoadFactRows(path, 50)
		if err != nil {
			t.Fatalf("LoadFactRows(50): %v", err)
		}
		if prefix.Len() != 50 {
			t.Fatalf("prefix load: %d rows, want 50", prefix.Len())
		}
		for r := 0; r < 50; r++ {
			for d := range want.Dims {
				if prefix.Dims[d][r] != want.Dims[d][r] {
					t.Fatalf("prefix row %d dim %d mismatch", r, d)
				}
			}
		}
		if withIDs {
			if len(full.RowIDs) != want.Len() || full.RowIDs[0] != want.RowIDs[0] {
				t.Fatalf("row-ids not preserved: %v", full.RowIDs[:3])
			}
		} else if full.RowIDs != nil {
			t.Fatal("plain file grew row-ids")
		}
		// Over-large request clamps to the file.
		over, err := LoadFactRows(path, 10_000)
		if err != nil || over.Len() != want.Len() {
			t.Fatalf("over-large load: %d rows, err %v", over.Len(), err)
		}
	}
}

func TestWriteRawRowsRoundTrip(t *testing.T) {
	for _, withIDs := range []bool{false, true} {
		src, want := scanTestFact(t, 150, withIDs)
		fr, err := OpenFactReader(src)
		if err != nil {
			t.Fatalf("OpenFactReader: %v", err)
		}
		dst := filepath.Join(t.TempDir(), "copy.bin")
		fw, err := NewFactWriter(dst, fr.Schema(), withIDs)
		if err != nil {
			t.Fatalf("NewFactWriter: %v", err)
		}
		if err := fr.ScanBatches(0, fr.Rows(), 32, func(b *Batch) error {
			return fw.WriteRawRows(b.Raw[:b.N*b.Width], b.N)
		}); err != nil {
			t.Fatalf("copy: %v", err)
		}
		if err := fw.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		fr.Close()
		got, err := ReadFactFile(dst)
		if err != nil {
			t.Fatalf("ReadFactFile(copy): %v", err)
		}
		if got.Len() != want.Len() {
			t.Fatalf("copy has %d rows, want %d", got.Len(), want.Len())
		}
		for r := 0; r < want.Len(); r++ {
			for d := range want.Dims {
				if got.Dims[d][r] != want.Dims[d][r] {
					t.Fatalf("row %d dim %d mismatch", r, d)
				}
			}
			for m := range want.Measures {
				if got.Measures[m][r] != want.Measures[m][r] {
					t.Fatalf("row %d measure %d mismatch", r, m)
				}
			}
			if withIDs && got.RowIDs[r] != want.RowIDs[r] {
				t.Fatalf("row %d id %d, want %d", r, got.RowIDs[r], want.RowIDs[r])
			}
		}
		// A mis-sized raw buffer must be rejected, not silently written.
		fw2, err := NewFactWriter(filepath.Join(t.TempDir(), "bad.bin"), fr.Schema(), withIDs)
		if err != nil {
			t.Fatalf("NewFactWriter: %v", err)
		}
		if err := fw2.WriteRawRows(make([]byte, fr.RowWidth()+1), 1); err == nil {
			t.Fatal("mis-sized raw batch accepted")
		}
		fw2.Close()
	}
}

func TestBatchRowsFor(t *testing.T) {
	if got := BatchRowsFor(0); got != 1 {
		t.Fatalf("BatchRowsFor(0) = %d", got)
	}
	if got := BatchRowsFor(DefaultScanBatchBytes * 2); got != 1 {
		t.Fatalf("huge row width: %d", got)
	}
	if got := BatchRowsFor(32); got != DefaultScanBatchBytes/32 {
		t.Fatalf("BatchRowsFor(32) = %d", got)
	}
}
