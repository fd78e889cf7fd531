package query

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"

	"cure/internal/lattice"
	"cure/internal/relation"
)

// VerifyReport summarizes a cube integrity check.
type VerifyReport struct {
	// NodesChecked is the number of lattice nodes verified.
	NodesChecked int
	// TuplesChecked is the total number of cube tuples compared.
	TuplesChecked int64
	// Errors lists the first few discrepancies found (empty when the
	// cube is consistent).
	Errors []string
}

// OK reports whether verification found no discrepancies.
func (r *VerifyReport) OK() bool { return len(r.Errors) == 0 }

// maxVerifyErrors bounds the discrepancy list.
const maxVerifyErrors = 20

// Verify recomputes sampleNodes randomly chosen lattice nodes (all of
// them when sampleNodes ≤ 0 or exceeds the lattice) directly from the
// fact table and compares them against the cube's query results — an
// end-to-end integrity check over every storage component (TT sharing,
// NT references, CAT indirection, AGGREGATES, bitmaps). Iceberg cubes
// are verified against the thresholded ground truth. It is the one
// brute-force CUBE operator in the repository: the build tests check
// every variant, path and worker count against it too.
func (e *Engine) Verify(sampleNodes int, seed int64) (*VerifyReport, error) {
	// The manifest pins the cube's row count; load exactly that prefix via
	// the chunked scan path, ignoring rows appended later (incremental
	// updates extend the file before the cube is swapped).
	rows := int(e.Manifest().FactRows)
	ft, err := relation.LoadFactRows(e.FactPath(), int64(rows))
	if err != nil {
		return nil, err
	}
	if ft.Len() < rows {
		return nil, fmt.Errorf("query: cube expects %d fact rows, file has %d", rows, ft.Len())
	}

	var nodes []lattice.NodeID
	all := e.enum.AllNodes()
	if sampleNodes <= 0 || sampleNodes >= len(all) {
		nodes = all
	} else {
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
		nodes = all[:sampleNodes]
	}

	report := &VerifyReport{}
	specs := e.Manifest().AggSpecs
	hier := e.Hier()
	minCount := e.Manifest().Iceberg
	if minCount < 1 {
		minCount = 1
	}
	for _, id := range nodes {
		levels := e.enum.Decode(id, nil)
		// Ground truth for this node.
		type group struct {
			agg   *relation.Aggregator
			count int64
		}
		want := map[string]*group{}
		var keyBuf []byte
		meas := make([]float64, len(ft.Measures))
		for r := 0; r < rows; r++ {
			keyBuf = keyBuf[:0]
			for d, l := range levels {
				if hier.Dims[d].IsAll(l) {
					continue
				}
				var b [4]byte
				binary.LittleEndian.PutUint32(b[:], uint32(hier.Dims[d].MapCode(ft.Dims[d][r], l)))
				keyBuf = append(keyBuf, b[:]...)
			}
			g, ok := want[string(keyBuf)]
			if !ok {
				g = &group{agg: relation.NewAggregator(specs)}
				want[string(keyBuf)] = g
			}
			meas = ft.MeasureRow(r, meas)
			g.agg.AddValues(meas)
			g.count++
		}
		for k, g := range want {
			if g.count < minCount {
				delete(want, k)
			}
		}
		// Compare against the cube.
		seen := map[string]bool{}
		err := e.NodeQuery(id, func(row Row) error {
			keyBuf = keyBuf[:0]
			for _, d := range row.Dims {
				var b [4]byte
				binary.LittleEndian.PutUint32(b[:], uint32(d))
				keyBuf = append(keyBuf, b[:]...)
			}
			k := string(keyBuf)
			report.TuplesChecked++
			g, ok := want[k]
			if !ok {
				report.addError("node %s: unexpected tuple %v", e.enum.Name(id), row.Dims)
				return nil
			}
			if seen[k] {
				report.addError("node %s: duplicate tuple %v", e.enum.Name(id), row.Dims)
				return nil
			}
			seen[k] = true
			vals := g.agg.Values(nil)
			for i := range vals {
				if !sameAggr(vals[i], row.Aggrs[i]) {
					report.addError("node %s tuple %v: aggregate %d is %v, want %v",
						e.enum.Name(id), row.Dims, i, row.Aggrs[i], vals[i])
					return nil
				}
			}
			return nil
		})
		if err != nil {
			// A scan that cannot even read its extents is corruption
			// evidence, not a verifier failure — compressed extents turn
			// flipped bytes into decode errors rather than bad tuples.
			report.addError("node %s: scan failed: %v", e.enum.Name(id), err)
			report.NodesChecked++
			continue
		}
		if len(seen) != len(want) {
			report.addError("node %s: cube holds %d tuples, fact table implies %d",
				e.enum.Name(id), len(seen), len(want))
		}
		report.NodesChecked++
	}
	return report, nil
}

// sameAggr reports whether two aggregate values agree: equal, or both
// NaN (a NaN measure makes every SUM, MIN and MAX over it NaN).
func sameAggr(a, b float64) bool { return a == b || math.IsNaN(a) && math.IsNaN(b) }

func (r *VerifyReport) addError(format string, args ...any) {
	if len(r.Errors) < maxVerifyErrors {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}
