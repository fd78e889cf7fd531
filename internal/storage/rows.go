package storage

import (
	"encoding/binary"
	"math"

	"cure/internal/lattice"
)

// Row codecs shared by the writer (logs, finalize) and the reader.
// All integers are little endian; aggregates are IEEE-754 bit patterns.

func putInt64(b []byte, v int64) { binary.LittleEndian.PutUint64(b, uint64(v)) }
func getInt64(b []byte) int64    { return int64(binary.LittleEndian.Uint64(b)) }

func putAggrs(b []byte, aggrs []float64) {
	for i, v := range aggrs {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
	}
}

func getAggrs(b []byte, dst []float64) {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
}

func putDims(b []byte, dims []int32) {
	for i, v := range dims {
		binary.LittleEndian.PutUint32(b[4*i:], uint32(v))
	}
}

func getDims(b []byte, dst []int32) {
	for i := range dst {
		dst[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
}

// Log row widths (logs always carry the widest shape so that no ordering
// constraint exists between format lock and first write).
func ntLogRowWidth(numAggrs int) int  { return 8 + 8*numAggrs } // R-rowid, aggrs
func aggLogRowWidth(numAggrs int) int { return 8 + 8*numAggrs } // R-rowid (or -1), aggrs

const (
	ttLogRowWidth  = 8  // R-rowid
	catLogRowWidth = 16 // R-rowid (or -1), A-rowid

	// aggNode is the one node AGGREGATES rows are logged under: the
	// relation is shared by the whole cube.
	aggNode lattice.NodeID = 0
)
