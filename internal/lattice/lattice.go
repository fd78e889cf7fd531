// Package lattice models the hierarchical cube lattice and CURE's
// execution plan over it: the mixed-radix node enumeration of §3.3
// (formulas (1) and (2)), the solid/dashed edge rules of §3.1–3.2, the
// plan-tree parent relation used by trivial-tuple sharing and query
// answering, and full node enumeration for small lattices.
//
// A node is identified by its level vector: levels[d] is the hierarchy
// level of dimension d in the node's grouping attributes, with the value
// Dim.AllLevel() meaning the dimension is absent (aggregated away).
package lattice

import (
	"fmt"
	"strings"

	"cure/internal/hierarchy"
)

// NodeID is the unique integer identifier of a lattice node, computed by
// the paper's formula (2).
type NodeID int64

// Enum encodes and decodes node identifiers for one hierarchical schema.
// Following §3.3, dimension i with 𝓛_i levels (including ALL) gets a
// factor F_i where F_1 = 1 and F_i = F_{i-1}·𝓛_{i-1}; the id of a node
// with level vector L is Σ F_i·L_i.
//
// Note: the paper's worked decode example contains a typo (it writes
// "L3 = 21 mod F3", which evaluates to 9, not the stated 1); the correct
// mixed-radix decode divides by the factor of the most significant digit
// first, which is what Decode implements and what round-trips Encode.
type Enum struct {
	schema  *hierarchy.Schema
	factors []int64
	radices []int64
	total   int64
}

// NewEnum builds the enumeration for a schema.
func NewEnum(s *hierarchy.Schema) *Enum {
	e := &Enum{schema: s}
	e.factors = make([]int64, s.NumDims())
	e.radices = make([]int64, s.NumDims())
	f := int64(1)
	for i, d := range s.Dims {
		e.factors[i] = f
		e.radices[i] = int64(d.NumLevels())
		f *= e.radices[i]
	}
	e.total = f
	return e
}

// Schema returns the schema the enumeration was built for.
func (e *Enum) Schema() *hierarchy.Schema { return e.schema }

// NumNodes returns the total number of lattice nodes, ∏ 𝓛_i.
func (e *Enum) NumNodes() int64 { return e.total }

// Encode computes the node id of a level vector (formula (2)).
func (e *Enum) Encode(levels []int) NodeID {
	var id int64
	for i, l := range levels {
		id += e.factors[i] * int64(l)
	}
	return NodeID(id)
}

// Decode writes the level vector of id into dst and returns it.
func (e *Enum) Decode(id NodeID, dst []int) []int {
	if cap(dst) < len(e.factors) {
		dst = make([]int, len(e.factors))
	}
	dst = dst[:len(e.factors)]
	rem := int64(id)
	for i := len(e.factors) - 1; i >= 0; i-- {
		dst[i] = int(rem / e.factors[i])
		rem %= e.factors[i]
	}
	return dst
}

// Valid reports whether id identifies a lattice node.
func (e *Enum) Valid(id NodeID) bool { return id >= 0 && int64(id) < e.total }

// Name renders a node id in the paper's notation, e.g. "A1B0" or "∅" for
// the all-ALL node.
func (e *Enum) Name(id NodeID) string {
	levels := e.Decode(id, nil)
	var b strings.Builder
	for i, l := range levels {
		d := e.schema.Dims[i]
		if d.IsAll(l) {
			continue
		}
		fmt.Fprintf(&b, "%s[%s]", d.Name, d.LevelName(l))
	}
	if b.Len() == 0 {
		return "∅"
	}
	return b.String()
}

// GroupingArity returns the number of dimensions present (not at ALL) in
// the node.
func (e *Enum) GroupingArity(id NodeID) int {
	levels := e.Decode(id, nil)
	n := 0
	for i, l := range levels {
		if !e.schema.Dims[i].IsAll(l) {
			n++
		}
	}
	return n
}

// PlanParent returns the parent of a node in CURE's execution-plan tree
// (plan P3), or false for the root. The plan is the BUC-style pruning of
// the hierarchical lattice: a node is entered either by a solid edge from
// the node lacking its rightmost grouping dimension (when that dimension
// sits at a level directly under ALL in the dashed-edge tree) or by a
// dashed edge from the node whose rightmost dimension is one dashed-tree
// step coarser.
func (e *Enum) PlanParent(id NodeID) (NodeID, bool) {
	levels := e.Decode(id, nil)
	dmax := -1
	for i, l := range levels {
		if !e.schema.Dims[i].IsAll(l) {
			dmax = i
		}
	}
	if dmax < 0 {
		return 0, false // root
	}
	d := e.schema.Dims[dmax]
	p := d.DashParent(levels[dmax])
	levels[dmax] = p // p may be AllLevel, which removes the dimension
	return e.Encode(levels), true
}

// PlanPath returns the node ids on the plan-tree path from the root (∅)
// to id, inclusive, in root-first order. Query answering collects trivial
// tuples from exactly these nodes.
func (e *Enum) PlanPath(id NodeID) []NodeID {
	var rev []NodeID
	cur := id
	for {
		rev = append(rev, cur)
		p, ok := e.PlanParent(cur)
		if !ok {
			break
		}
		cur = p
	}
	// Reverse into root-first order.
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// AllNodes enumerates every node id of the lattice. It materializes the
// full node set and must only be used when NumNodes is small (query
// workloads, plan inspection); construction never calls it.
func (e *Enum) AllNodes() []NodeID {
	out := make([]NodeID, 0, e.total)
	for id := int64(0); id < e.total; id++ {
		out = append(out, NodeID(id))
	}
	return out
}

// PlanChildren returns the children of a node in the plan tree. Like
// AllNodes it is intended for inspection and tests on small lattices; the
// cubing recursion derives children implicitly.
func (e *Enum) PlanChildren(id NodeID) []NodeID {
	var out []NodeID
	levels := e.Decode(id, nil)
	dmax := -1
	for i, l := range levels {
		if !e.schema.Dims[i].IsAll(l) {
			dmax = i
		}
	}
	// Solid edges: add any dimension to the right of dmax at a level
	// directly under ALL in its dashed tree.
	for dd := dmax + 1; dd < e.schema.NumDims(); dd++ {
		d := e.schema.Dims[dd]
		for _, top := range d.TopUnderAll() {
			levels[dd] = top
			out = append(out, e.Encode(levels))
			levels[dd] = d.AllLevel()
		}
	}
	// Dashed edges: refine the rightmost grouping dimension one
	// dashed-tree step.
	if dmax >= 0 {
		d := e.schema.Dims[dmax]
		saved := levels[dmax]
		for _, c := range d.DashChildren(saved) {
			levels[dmax] = c
			out = append(out, e.Encode(levels))
		}
		levels[dmax] = saved
	}
	return out
}

// PlanHeight returns the height of the plan tree rooted at id (a single
// node has height 1). The paper's P3 is the tallest BUC-style plan; tests
// verify the expected heights of the running example.
func (e *Enum) PlanHeight(id NodeID) int {
	h := 0
	for _, c := range e.PlanChildren(id) {
		if ch := e.PlanHeight(c); ch > h {
			h = ch
		}
	}
	return h + 1
}

// Refines reports whether node a refines node b in the lattice: every
// grouping attribute of b appears in a at the same or a more detailed
// level. Equivalently, b is an ancestor-or-self of a in the cube lattice
// (b is computable from a).
func (e *Enum) Refines(a, b NodeID) bool {
	la := e.Decode(a, nil)
	lb := e.Decode(b, nil)
	for i := range la {
		if la[i] > lb[i] {
			return false
		}
	}
	return true
}
