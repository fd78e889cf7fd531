package storage

import (
	"encoding/binary"
	"math"
	"reflect"
	"testing"
)

// Fuzz targets for every extent codec: each derives a typed column from
// the fuzzer's bytes, encodes it with the production encoder, decodes it
// back, and demands an exact round-trip. Seeds cover the edge shapes the
// issue calls out — empty blocks, single-row blocks, and maximum-range
// values.

func bytesToI32(data []byte) []int32 {
	vals := make([]int32, len(data)/4)
	for i := range vals {
		vals[i] = int32(binary.LittleEndian.Uint32(data[4*i:]))
	}
	return vals
}

func bytesToI64(data []byte) []int64 {
	vals := make([]int64, len(data)/8)
	for i := range vals {
		vals[i] = int64(binary.LittleEndian.Uint64(data[8*i:]))
	}
	return vals
}

func seedI32(f *testing.F) {
	f.Add([]byte{})           // empty block
	f.Add([]byte{1, 2, 3, 4}) // single row
	var maxRange [8]byte      // MinInt32 followed by MaxInt32
	lo, hi := int32(math.MinInt32), int32(math.MaxInt32)
	binary.LittleEndian.PutUint32(maxRange[0:], uint32(lo))
	binary.LittleEndian.PutUint32(maxRange[4:], uint32(hi))
	f.Add(maxRange[:])
	f.Add(append(maxRange[:], maxRange[:]...))
}

func FuzzBitpack32RoundTrip(f *testing.F) {
	seedI32(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		vals := bytesToI32(data)
		if len(vals) == 0 {
			return // bitpack payloads are per-block; empty blocks skip the column
		}
		enc := encodeBitpack32(nil, vals)
		got := make([]int32, len(vals))
		if err := decodeBitpack32(enc, got); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !reflect.DeepEqual(got, vals) {
			t.Fatalf("round trip: got %v, want %v", got, vals)
		}
	})
}

func FuzzRLE32RoundTrip(f *testing.F) {
	seedI32(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		vals := bytesToI32(data)
		enc := encodeRLE32(nil, vals)
		got := make([]int32, len(vals))
		if err := decodeRLE32(enc, got); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !reflect.DeepEqual(got, vals) {
			t.Fatalf("round trip: got %v, want %v", got, vals)
		}
	})
}

func FuzzDelta64RoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}) // single row
	var extremes [16]byte                 // MinInt64 then MaxInt64: wraparound deltas
	lo, hi := int64(math.MinInt64), int64(math.MaxInt64)
	binary.LittleEndian.PutUint64(extremes[0:], uint64(lo))
	binary.LittleEndian.PutUint64(extremes[8:], uint64(hi))
	f.Add(extremes[:])
	f.Fuzz(func(t *testing.T, data []byte) {
		vals := bytesToI64(data)
		enc := encodeDelta64(nil, vals)
		got := make([]int64, len(vals))
		if err := decodeDelta64(enc, got); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !reflect.DeepEqual(got, vals) {
			t.Fatalf("round trip: got %v, want %v", got, vals)
		}
	})
}

// FuzzFloatColumnRoundTrip drives the full float column path — candidate
// selection included — demanding bit-exact reconstruction (NaN payloads,
// signed zeros).
func FuzzFloatColumnRoundTrip(f *testing.F) {
	f.Add([]byte{})
	var one [8]byte
	binary.LittleEndian.PutUint64(one[:], math.Float64bits(3))
	f.Add(one[:]) // single row, integral (intfloat candidate)
	var special [32]byte
	binary.LittleEndian.PutUint64(special[0:], math.Float64bits(math.Copysign(0, -1)))
	binary.LittleEndian.PutUint64(special[8:], 0x7ff8000000000abc) // NaN payload
	binary.LittleEndian.PutUint64(special[16:], math.Float64bits(math.Inf(-1)))
	binary.LittleEndian.PutUint64(special[24:], math.Float64bits(math.MaxFloat64))
	f.Add(special[:])
	f.Fuzz(func(t *testing.T, data []byte) {
		n := len(data) / 8
		if n == 0 {
			return
		}
		rows := data[:n*8]
		kinds := []colKind{colF64}
		be := newBlockEncoder(kinds)
		enc := be.encodeBlock(rows, n, nil)
		var db DecodedBlock
		if _, err := decodeBlock(enc, kinds, n, &db); err != nil {
			t.Fatalf("decode: %v", err)
		}
		for i := 0; i < n; i++ {
			want := binary.LittleEndian.Uint64(rows[8*i:])
			if got := math.Float64bits(db.F64[0][i]); got != want {
				t.Fatalf("row %d: bits %x, want %x", i, got, want)
			}
		}
	})
}

// FuzzBlockRoundTrip drives the whole block format over a mixed
// <i64, i32, f64> schema.
func FuzzBlockRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, 20))  // single row of zeros
	f.Add(make([]byte, 400)) // 20 rows of zeros
	f.Fuzz(func(t *testing.T, data []byte) {
		kinds := []colKind{colI64, colI32, colF64}
		const width = 20
		n := len(data) / width
		rows := data[:n*width]
		be := newBlockEncoder(kinds)
		enc := be.encodeBlock(rows, n, nil)
		var db DecodedBlock
		if _, err := decodeBlock(enc, kinds, n, &db); err != nil {
			t.Fatalf("decode: %v", err)
		}
		for i := 0; i < n; i++ {
			rec := rows[i*width:]
			if got, want := db.I64[0][i], int64(binary.LittleEndian.Uint64(rec)); got != want {
				t.Fatalf("row %d i64: %d, want %d", i, got, want)
			}
			if got, want := db.I32[1][i], int32(binary.LittleEndian.Uint32(rec[8:])); got != want {
				t.Fatalf("row %d i32: %d, want %d", i, got, want)
			}
			if got, want := math.Float64bits(db.F64[2][i]), binary.LittleEndian.Uint64(rec[12:]); got != want {
				t.Fatalf("row %d f64 bits: %x, want %x", i, got, want)
			}
		}
	})
}

// ascendingFromBytes derives a strictly ascending column from fuzz bytes:
// the first 8 bytes are the first value, every later byte a gap of 1–256.
// It stops short of int64 overflow.
func ascendingFromBytes(data []byte) []int64 {
	if len(data) < 8 {
		return nil
	}
	vals := []int64{int64(binary.LittleEndian.Uint64(data))}
	for _, b := range data[8:] {
		prev := vals[len(vals)-1]
		next := prev + int64(b) + 1
		if next <= prev {
			break
		}
		vals = append(vals, next)
	}
	return vals
}

// FuzzBitmap64RoundTrip encodes a strictly ascending column as one bitmap
// block — extreme first values and sparse gaps included — and demands the
// block decoder give it back exactly.
func FuzzBitmap64RoundTrip(f *testing.F) {
	f.Add([]byte{3, 0, 0, 0, 0, 0, 0, 0})                                  // single row
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0x80, 0, 0, 1, 255})                 // MinInt64, then gaps
	f.Add([]byte{0xf0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 0, 0, 0}) // near MaxInt64
	f.Fuzz(func(t *testing.T, data []byte) {
		vals := ascendingFromBytes(data)
		if len(vals) == 0 {
			return
		}
		enc, ok := encodeBitmapBlock(nil, vals, 1<<40)
		if !ok {
			t.Fatalf("strictly ascending column of %d values refused", len(vals))
		}
		var db DecodedBlock
		n, err := decodeBlock(enc, ttKinds(), len(vals), &db)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if n != len(enc) || !reflect.DeepEqual(db.I64[0], vals) {
			t.Fatalf("round trip: consumed %d of %d bytes, got %v, want %v", n, len(enc), db.I64[0], vals)
		}
	})
}

// FuzzDecodeBlockBytes feeds arbitrary bytes to the block decoder, under
// a two-column schema and under the TT schema a bitmap block has: it must
// reject corruption with an error, never panic or over-allocate.
func FuzzDecodeBlockBytes(f *testing.F) {
	kinds := []colKind{colI64, colF64}
	be := newBlockEncoder(kinds)
	valid := be.encodeBlock(make([]byte, 16*4), 4, nil)
	f.Add(valid, 4)
	f.Add([]byte{}, 0)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff}, 1)
	bm, _ := encodeBitmapBlock(nil, []int64{3, 5, 6, 10, 700}, 1<<20)
	f.Add(bm, 5)
	f.Add(bm[:len(bm)-20], 5) // span longer than the payload
	f.Fuzz(func(t *testing.T, data []byte, wantRows int) {
		if wantRows < 0 || wantRows > 1<<16 {
			return
		}
		var db DecodedBlock
		decodeBlock(data, kinds, wantRows, &db)     //nolint:errcheck // errors expected; panics are the bug
		decodeBlock(data, ttKinds(), wantRows, &db) //nolint:errcheck
	})
}
