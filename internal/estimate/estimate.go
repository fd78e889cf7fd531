// Package estimate predicts cube sizes and partitioning plans before
// anything is built — the planning arithmetic behind §4's observations
// and Table 1, generalized to whole schemas. Group counts use Cardenas'
// formula under the uniformity/independence assumptions the paper's own
// partition sizing makes; the estimates are advisory (real data with
// correlations or skew produces fewer distinct groups and more trivial
// tuples) and are validated against measured builds in the tests.
package estimate

import (
	"fmt"
	"math"
	"sort"

	"cure/internal/core"
	"cure/internal/hierarchy"
	"cure/internal/lattice"
	"cure/internal/relation"
)

// Groups is Cardenas' formula: the expected number of distinct cells hit
// when t tuples are thrown uniformly into g cells.
func Groups(g float64, t int64) float64 {
	if g <= 0 || t <= 0 {
		return 0
	}
	if g == 1 {
		return 1
	}
	// g·(1 − (1 − 1/g)^t), computed in log space for large t.
	exp := float64(t) * math.Log1p(-1/g)
	return g * (1 - math.Exp(exp))
}

// Singletons is the expected number of cells holding exactly one tuple:
// t · (1 − 1/g)^(t−1).
func Singletons(g float64, t int64) float64 {
	if g <= 0 || t <= 0 {
		return 0
	}
	if g == 1 {
		if t == 1 {
			return 1
		}
		return 0
	}
	return float64(t) * math.Exp(float64(t-1)*math.Log1p(-1/g))
}

// NodeEstimate predicts one lattice node.
type NodeEstimate struct {
	ID lattice.NodeID
	// Name is the node's grouping in the paper's notation.
	Name string
	// Cells is the size of the node's value space (∏ level cards).
	Cells float64
	// Tuples is the expected distinct-group count (the node's size in a
	// fully materialized cube).
	Tuples float64
	// TrivialFraction is the expected share of groups with a single
	// source tuple (CURE stores those as shared row-ids, not rows).
	TrivialFraction float64
}

// CubeEstimate predicts a whole cube.
type CubeEstimate struct {
	Rows int64
	// Nodes holds one estimate per lattice node, largest first.
	Nodes []NodeEstimate
	// FullTuples is the expected tuple count of the uncondensed cube
	// (what BUC materializes).
	FullTuples float64
	// AggregatedTuples is the expected count of non-trivial tuples (what
	// flows through CURE's signature pool).
	AggregatedTuples float64
	// FullBytes estimates the uncondensed relational cube size using
	// per-node row widths (arity·4 + Y·8).
	FullBytes float64
	// CondensedBytes is a lower-bound estimate of a CURE cube: trivial
	// tuples as one 8-byte row-id at their least detailed node, others
	// as NT rows (8 + 8Y) — CAT savings would shrink it further.
	CondensedBytes float64
}

// Cube predicts the cube of a schema for a fact table of rows tuples with
// numAggrs aggregate columns. The lattice must be materializable (it is
// enumerated node by node).
func Cube(hier *hierarchy.Schema, rows int64, numAggrs int) (*CubeEstimate, error) {
	if rows < 0 {
		return nil, fmt.Errorf("estimate: negative row count %d", rows)
	}
	if numAggrs < 1 {
		return nil, fmt.Errorf("estimate: need at least one aggregate")
	}
	enum := lattice.NewEnum(hier)
	if enum.NumNodes() > 1<<22 {
		return nil, fmt.Errorf("estimate: lattice has %d nodes; refusing to enumerate", enum.NumNodes())
	}
	est := &CubeEstimate{Rows: rows}
	levels := make([]int, hier.NumDims())
	for _, id := range enum.AllNodes() {
		levels = enum.Decode(id, levels)
		cells := 1.0
		arity := 0
		for d, l := range levels {
			if hier.Dims[d].IsAll(l) {
				continue
			}
			cells *= float64(hier.Dims[d].Card(l))
			arity++
		}
		tuples := Groups(cells, rows)
		singles := Singletons(cells, rows)
		ne := NodeEstimate{
			ID:     id,
			Name:   enum.Name(id),
			Cells:  cells,
			Tuples: tuples,
		}
		if tuples > 0 {
			ne.TrivialFraction = singles / tuples
			if ne.TrivialFraction > 1 {
				ne.TrivialFraction = 1
			}
		}
		est.Nodes = append(est.Nodes, ne)
		est.FullTuples += tuples
		est.AggregatedTuples += tuples - singles
		est.FullBytes += tuples * float64(4*arity+8*numAggrs)
		// Condensed: non-singleton groups as NT rows; singleton groups
		// approximated as one shared 8-byte row-id when this node is
		// where they first become singletons — bounded by charging each
		// node only the singletons its plan parent did not have.
		est.CondensedBytes += (tuples - singles) * float64(8+8*numAggrs)
	}
	// Shared trivial tuples: each fact tuple is stored at most once per
	// minimal singleton node; a safe (and empirically close) lower bound
	// charges one row-id per expected singleton of the most detailed
	// node of each solid-edge chain — approximated here as the total
	// singleton count of the base node plus 10% slack.
	base := est.Nodes[0]
	for _, ne := range est.Nodes {
		if ne.Cells > base.Cells {
			base = ne
		}
	}
	est.CondensedBytes += Singletons(base.Cells, rows) * 8 * 1.1
	sort.Slice(est.Nodes, func(i, j int) bool { return est.Nodes[i].Tuples > est.Nodes[j].Tuples })
	return est, nil
}

// Plan combines the cube estimate with the strategy core.Build would
// take for a given memory budget: in memory, or partitioned on the prefix
// levels of Choice (a level of dimension 0, or a pair of levels).
type Plan struct {
	RowBytes   int64
	TableBytes int64
	core.Strategy
	// ChoiceErr is why no partitioning is feasible ("" when one is).
	ChoiceErr string
	Estimate  *CubeEstimate
}

// BuildPlan predicts the execution strategy of core.Build for a table of
// rows tuples under the given memory budget (bytes; 0 = unlimited) by
// asking core.ChooseStrategy, the function Build itself decides with.
// The relational schema supplies the row width.
func BuildPlan(hier *hierarchy.Schema, schema *relation.Schema, rows int64, memoryBudget int64, numAggrs int) (*Plan, error) {
	est, err := Cube(hier, rows, numAggrs)
	if err != nil {
		return nil, err
	}
	p := &Plan{
		RowBytes:   int64(schema.RowWidth()),
		TableBytes: rows * int64(schema.RowWidth()),
		Estimate:   est,
	}
	if p.Strategy, err = core.ChooseStrategy(hier, p.TableBytes, memoryBudget, nil); err != nil {
		p.ChoiceErr = err.Error()
	}
	return p, nil
}
