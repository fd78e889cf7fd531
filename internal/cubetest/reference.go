// Package cubetest holds the reference the test suites compare cubes
// against: the CUBE operator's semantics computed by brute force.
package cubetest

import (
	"fmt"
	"strings"

	"cure/internal/hierarchy"
	"cure/internal/lattice"
	"cure/internal/relation"
)

// ReferenceNode computes node id by brute force: group the fact table on
// the node's projected dims and aggregate. Groups are keyed by RowKey of
// their codes.
func ReferenceNode(hier *hierarchy.Schema, enum *lattice.Enum, ft *relation.FactTable, specs []relation.AggSpec, id lattice.NodeID) map[string][]float64 {
	levels := enum.Decode(id, nil)
	groups := map[string]*relation.Aggregator{}
	meas := make([]float64, len(ft.Measures))
	var dims []int32
	for r := 0; r < ft.Len(); r++ {
		dims = dims[:0]
		for d, l := range levels {
			if !hier.Dims[d].IsAll(l) {
				dims = append(dims, hier.Dims[d].MapCode(ft.Dims[d][r], l))
			}
		}
		k := RowKey(dims)
		a, ok := groups[k]
		if !ok {
			a = relation.NewAggregator(specs)
			groups[k] = a
		}
		meas = ft.MeasureRow(r, meas)
		a.AddValues(meas)
	}
	out := make(map[string][]float64, len(groups))
	for k, a := range groups {
		out[k] = a.Values(nil)
	}
	return out
}

// RowKey renders a tuple's dimension codes as a map key.
func RowKey(dims []int32) string {
	var b strings.Builder
	for _, d := range dims {
		fmt.Fprintf(&b, "%d|", d)
	}
	return b.String()
}
