package query

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"

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
// fact table and compares them against the cube's answers — an
// end-to-end integrity check over every storage component (TT sharing,
// NT references, CAT indirection, AGGREGATES, bitmaps, zone maps). Each
// node is checked whole, NodeCount included, and then under one Spec
// drawn from seed: the predicates of drawWhere and, on a cube with a
// COUNT, half the time a MinCount equal to one of the node's group
// counts. Both answers come from one group-by pass, so predicates, zone
// pruning and iceberg thresholds (the cube's own included) are held to
// the same ground truth. It is the one brute-force CUBE operator in the
// repository: the build tests check every variant, path and worker count
// against it too.
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

	rng := rand.New(rand.NewSource(seed))
	nodes := e.enum.AllNodes()
	if sampleNodes > 0 && sampleNodes < len(nodes) {
		rng.Shuffle(len(nodes), func(i, j int) { nodes[i], nodes[j] = nodes[j], nodes[i] })
		nodes = nodes[:sampleNodes]
	}
	report := &VerifyReport{}
	for _, id := range nodes {
		where := e.drawWhere(rng, ft, id)
		truth := e.groupBy(ft, id, where)
		counts := e.compare(Spec{Node: id}, truth, 0, report)
		if n, err := e.NodeCount(id); err != nil || n != int64(len(counts)) {
			report.addError("node %s: NodeCount = %d (err %v), the fact table implies %d tuples", e.enum.Name(id), n, err, len(counts))
		}
		s := Spec{Node: id, Where: where}
		if e.countAgg >= 0 && len(counts) > 0 && rng.Intn(2) == 0 {
			// A threshold at a real group count puts groups exactly on it.
			s.MinCount = float64(counts[rng.Intn(len(counts))])
		}
		e.compare(s, truth, 1, report)
		report.NodesChecked++
	}
	return report, nil
}

// verifySpec compares the cube's answer to s with the brute-force one
// over ft, adding every discrepancy to rep.
func (e *Engine) verifySpec(ft *relation.FactTable, s Spec, rep *VerifyReport) {
	e.compare(s, e.groupBy(ft, s.Node, s.Where), 1, rep)
}

// compare holds the cube's answer to s to the groups of truth's column
// col (0: every row, 1: the rows s.Where selects), adding every
// discrepancy to rep; it returns the sorted row counts of the groups the
// answer must hold, those that pass the cube's iceberg threshold (count ≥
// Iceberg) and s's (count > MinCount).
func (e *Engine) compare(s Spec, truth map[string]*[2]*relation.Aggregator, col int, rep *VerifyReport) []int64 {
	iceberg := max(e.Manifest().Iceberg, 1)
	want := make(map[string]*relation.Aggregator, len(truth))
	var counts []int64
	for k, g := range truth {
		if g[col] == nil {
			continue
		}
		n := g[col].Count()
		if n < iceberg || s.MinCount > 0 && float64(n) <= s.MinCount {
			continue
		}
		want[k] = g[col]
		counts = append(counts, n)
	}
	slices.Sort(counts)
	label := "node " + e.enum.Name(s.Node)
	if w := e.whereString(s); w != "" {
		label += " where " + w
	}
	seen := make(map[string]bool, len(want))
	var keyBuf []byte
	var vals []float64
	if err := e.Query(s, func(row Row) error {
		keyBuf = keyBuf[:0]
		for _, d := range row.Dims {
			keyBuf = binary.LittleEndian.AppendUint32(keyBuf, uint32(d))
		}
		rep.TuplesChecked++
		g, ok := want[string(keyBuf)]
		switch {
		case !ok:
			rep.addError("%s: unexpected tuple %v", label, row.Dims)
		case seen[string(keyBuf)]:
			rep.addError("%s: duplicate tuple %v", label, row.Dims)
		default:
			seen[string(keyBuf)] = true
			vals = g.Values(vals)
			for i, v := range vals {
				if !sameAggr(v, row.Aggrs[i]) {
					rep.addError("%s tuple %v: aggregate %d is %v, want %v", label, row.Dims, i, row.Aggrs[i], v)
					break
				}
			}
		}
		return nil
	}); err != nil {
		// A scan that cannot even read its extents is corruption
		// evidence, not a verifier failure — compressed extents turn
		// flipped bytes into decode errors rather than bad tuples.
		rep.addError("%s: scan failed: %v", label, err)
		return counts
	}
	if len(seen) != len(want) {
		rep.addError("%s: cube answers %d tuples, fact table implies %d", label, len(seen), len(want))
	}
	return counts
}

// groupBy is the brute-force group-by behind Verify: in one pass over ft,
// the groups of node id keyed like a Row's Dims, each with its aggregates
// over every row [0] and over the rows whose code at each predicate's
// level falls in its range [1] (nil when there are none).
func (e *Engine) groupBy(ft *relation.FactTable, id lattice.NodeID, where []Predicate) map[string]*[2]*relation.Aggregator {
	hier := e.Hier()
	levels := e.enum.Decode(id, nil)
	specs := e.Manifest().AggSpecs
	groups := map[string]*[2]*relation.Aggregator{}
	var keyBuf []byte
	var meas []float64
	for r := range ft.Len() {
		keyBuf = keyBuf[:0]
		for d, l := range levels {
			if !hier.Dims[d].IsAll(l) {
				keyBuf = binary.LittleEndian.AppendUint32(keyBuf, uint32(hier.Dims[d].MapCode(ft.Dims[d][r], l)))
			}
		}
		g, ok := groups[string(keyBuf)]
		if !ok {
			g = &[2]*relation.Aggregator{relation.NewAggregator(specs)}
			groups[string(keyBuf)] = g
		}
		meas = ft.MeasureRow(r, meas)
		g[0].AddValues(meas)
		if slices.ContainsFunc(where, func(p Predicate) bool {
			return !p.Match(hier.Dims[p.Dim].MapCode(ft.Dims[p.Dim][r], p.Level))
		}) {
			continue
		}
		if g[1] == nil {
			g[1] = relation.NewAggregator(specs)
		}
		g[1].AddValues(meas)
	}
	return groups
}

// drawWhere draws the predicates of the Spec Verify checks on node id:
// 0–3 of them, each at the node's level of its dimension or a level that
// one rolls up into (on CURE_DR cubes, only at the node's level of a
// grouped dimension), and each a point, a range, an in-domain range no
// row holds, or the whole domain.
func (e *Engine) drawWhere(rng *rand.Rand, ft *relation.FactTable, id lattice.NodeID) []Predicate {
	hier := e.Hier()
	levels := e.enum.Decode(id, nil)
	var where []Predicate
	for n := rng.Intn(4); n > 0; n-- {
		d := rng.Intn(hier.NumDims())
		dim := hier.Dims[d]
		var choices []int
		for l := levels[d]; l <= dim.AllLevel(); l++ {
			if e.Manifest().DimsInline && (l != levels[d] || dim.IsAll(l)) {
				continue
			}
			if rollsInto(dim, levels[d], l) {
				choices = append(choices, l)
			}
		}
		if len(choices) == 0 {
			continue
		}
		p := Predicate{Dim: d, Level: choices[rng.Intn(len(choices))]}
		card := dim.Card(p.Level)
		held := func(c int32) bool {
			return slices.ContainsFunc(ft.Dims[d], func(b int32) bool { return dim.MapCode(b, p.Level) == c })
		}
		rowCode := func() int32 {
			if ft.Len() == 0 {
				return rng.Int31n(card)
			}
			return dim.MapCode(ft.Dims[d][rng.Intn(ft.Len())], p.Level)
		}
		switch rng.Intn(4) {
		case 0:
			p.Lo = rowCode()
			p.Hi = p.Lo
		case 1:
			a, b := rowCode(), rowCode()
			p.Lo, p.Hi = min(a, b), max(a, b)
		case 2:
			// An in-domain code no row holds, when a few draws find one;
			// otherwise a point.
			p.Lo = rng.Int31n(card)
			for try := 0; try < 4 && held(p.Lo); try++ {
				p.Lo = rng.Int31n(card)
			}
			p.Hi = p.Lo
		default:
			p.Lo, p.Hi = 0, card-1
		}
		where = append(where, p)
	}
	return where
}

// sameAggr reports whether two aggregate values agree: equal, or both
// NaN (a NaN measure makes every SUM, MIN and MAX over it NaN).
func sameAggr(a, b float64) bool { return a == b || math.IsNaN(a) && math.IsNaN(b) }

func (r *VerifyReport) addError(format string, args ...any) {
	if len(r.Errors) < maxVerifyErrors {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}
