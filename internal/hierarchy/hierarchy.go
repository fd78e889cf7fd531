// Package hierarchy models dimension hierarchies: ordered levels from the
// most detailed (base, level 0) upward, the base→level code mappings used
// to aggregate at coarser granularities, and — for complex (non-linear)
// hierarchies — the roll-up DAG between sibling levels together with the
// dashed-edge tree that CURE's modified rule 2 derives from it.
package hierarchy

import (
	"errors"
	"fmt"
)

// Level is one granularity of a dimension.
type Level struct {
	// Name identifies the level, e.g. "City" or "Month".
	Name string
	// Card is the number of distinct codes at this level; codes are the
	// dense range [0, Card).
	Card int32
	// Map translates a base-level code into this level's code. It is nil
	// for the base level itself (identity).
	Map []int32
	// RollsUpTo lists the indices of the levels this level aggregates
	// into in one step. For a linear hierarchy it is {i+1} (or empty for
	// the top real level, which rolls up only into ALL). Complex
	// hierarchies may list several, e.g. Day → {Week, Month}.
	RollsUpTo []int
}

// Dim is one dimension of a fact table together with its hierarchy.
// Levels[0] is the base level; higher indices are coarser. The implicit
// ALL level (a single value) sits above every top level and is addressed
// by level index len(Levels).
type Dim struct {
	Name   string
	Levels []Level
	// dashChildren[l] lists the levels reached from level l by CURE's
	// dashed edges (modified rule 2): among the levels that roll up into
	// l's "parents"... computed by computeDashTree; see that function.
	dashChildren [][]int
	// dashParent[l] is the level whose dashed edge leads to l, or -1 for
	// the level(s) hanging directly under ALL.
	dashParent []int
}

// NewLinearDim builds a dimension with a simple (linear) hierarchy from
// base-level cardinality and a chain of maps. maps[i] translates base
// codes to level-(i+1) codes and must have length baseCard; cards[i] is
// the cardinality of level i (cards[0] = baseCard).
func NewLinearDim(name string, levelNames []string, cards []int32, maps [][]int32) (*Dim, error) {
	if len(levelNames) != len(cards) {
		return nil, fmt.Errorf("hierarchy: %s: %d level names for %d cardinalities", name, len(levelNames), len(cards))
	}
	if len(maps) != len(cards)-1 {
		return nil, fmt.Errorf("hierarchy: %s: need %d maps, got %d", name, len(cards)-1, len(maps))
	}
	d := &Dim{Name: name}
	for i := range levelNames {
		lv := Level{Name: levelNames[i], Card: cards[i]}
		if i > 0 {
			lv.Map = maps[i-1]
		}
		if i+1 < len(levelNames) {
			lv.RollsUpTo = []int{i + 1}
		}
		d.Levels = append(d.Levels, lv)
	}
	if err := d.Finalize(); err != nil {
		return nil, err
	}
	return d, nil
}

// NewFlatDim builds a dimension with no hierarchy (a single base level).
func NewFlatDim(name string, card int32) *Dim {
	d := &Dim{Name: name, Levels: []Level{{Name: name, Card: card}}}
	// A single level cannot fail validation.
	if err := d.Finalize(); err != nil {
		panic("hierarchy: flat dim finalize: " + err.Error())
	}
	return d
}

// NumLevels returns the number of levels including the implicit ALL level;
// this is the quantity the paper calls 𝓛_i and what the node-enumeration
// formulas consume.
func (d *Dim) NumLevels() int { return len(d.Levels) + 1 }

// AllLevel returns the level index of the implicit ALL level.
func (d *Dim) AllLevel() int { return len(d.Levels) }

// IsAll reports whether level l is the implicit ALL level.
func (d *Dim) IsAll(l int) bool { return l == len(d.Levels) }

// Card returns the cardinality of level l (1 for ALL).
func (d *Dim) Card(l int) int32 {
	if d.IsAll(l) {
		return 1
	}
	return d.Levels[l].Card
}

// MapCode translates a base-level code to its code at level l.
func (d *Dim) MapCode(base int32, l int) int32 {
	if d.IsAll(l) {
		return 0
	}
	if l == 0 {
		return base
	}
	return d.Levels[l].Map[base]
}

// LevelName returns the name of level l ("ALL" for the implicit top).
func (d *Dim) LevelName(l int) string {
	if d.IsAll(l) {
		return "ALL"
	}
	return d.Levels[l].Name
}

// Finalize validates the dimension and computes the dashed-edge tree. It
// must be called after the Levels slice is fully populated and before the
// dimension is used to build a plan.
func (d *Dim) Finalize() error {
	if len(d.Levels) == 0 {
		return fmt.Errorf("hierarchy: %s: no levels", d.Name)
	}
	base := d.Levels[0]
	if base.Map != nil {
		return fmt.Errorf("hierarchy: %s: base level must not have a map", d.Name)
	}
	if base.Card <= 0 {
		return fmt.Errorf("hierarchy: %s: base cardinality %d", d.Name, base.Card)
	}
	for i := 1; i < len(d.Levels); i++ {
		lv := d.Levels[i]
		if lv.Card <= 0 {
			return fmt.Errorf("hierarchy: %s/%s: cardinality %d", d.Name, lv.Name, lv.Card)
		}
		if int32(len(lv.Map)) != base.Card {
			return fmt.Errorf("hierarchy: %s/%s: map covers %d base codes, want %d", d.Name, lv.Name, len(lv.Map), base.Card)
		}
		for _, c := range lv.Map {
			if c < 0 || c >= lv.Card {
				return fmt.Errorf("hierarchy: %s/%s: mapped code %d outside [0,%d)", d.Name, lv.Name, c, lv.Card)
			}
		}
	}
	for i, lv := range d.Levels {
		for _, p := range lv.RollsUpTo {
			if p <= i || p >= len(d.Levels) {
				return fmt.Errorf("hierarchy: %s/%s: rolls up to invalid level %d", d.Name, lv.Name, p)
			}
			if m := d.splitMember(i, p); m >= 0 {
				return fmt.Errorf("hierarchy: %s/%s: rolls up to %s, but its member %d maps to two %s members",
					d.Name, lv.Name, d.Levels[p].Name, m, d.Levels[p].Name)
			}
		}
	}
	return d.computeDashTree()
}

// computeDashTree derives the per-dimension dashed-edge tree of CURE's
// execution plan. A dashed edge runs from a node at level l to a node at a
// level one step more detailed. In a linear hierarchy the tree is the
// chain ALL → top → … → base. In a complex hierarchy a level c may roll
// up into several coarser levels; the modified rule 2 keeps only the
// incoming edge from the sibling with maximum cardinality, so that each
// level is reached exactly once and the plan remains a tree.
func (d *Dim) computeDashTree() error {
	n := len(d.Levels)
	d.dashParent = make([]int, n)
	d.dashChildren = make([][]int, n+1) // index n = ALL
	for c := 0; c < n; c++ {
		parents := d.Levels[c].RollsUpTo
		if len(parents) == 0 {
			// Top real level(s): hang directly under ALL.
			d.dashParent[c] = n
			d.dashChildren[n] = append(d.dashChildren[n], c)
			continue
		}
		best := parents[0]
		for _, p := range parents[1:] {
			if d.Levels[p].Card > d.Levels[best].Card {
				best = p
			}
		}
		d.dashParent[c] = best
		d.dashChildren[best] = append(d.dashChildren[best], c)
	}
	// Every level must be reachable from ALL through the tree, otherwise
	// the plan would miss nodes.
	seen := make([]bool, n+1)
	var walk func(l int)
	walk = func(l int) {
		seen[l] = true
		for _, c := range d.dashChildren[l] {
			walk(c)
		}
	}
	walk(n)
	for l := 0; l < n; l++ {
		if !seen[l] {
			return fmt.Errorf("hierarchy: %s: level %s unreachable from ALL in dashed-edge tree", d.Name, d.Levels[l].Name)
		}
	}
	return nil
}

// DashChildren returns the levels reached from level l by dashed edges in
// CURE's plan. l may be the ALL level.
func (d *Dim) DashChildren(l int) []int { return d.dashChildren[l] }

// DashParent returns the level whose dashed edge leads to l, or AllLevel()
// if l hangs directly under ALL.
func (d *Dim) DashParent(l int) int { return d.dashParent[l] }

// TopUnderAll returns the level(s) directly below ALL in the dashed tree.
// For a linear hierarchy this is the single top level.
func (d *Dim) TopUnderAll() []int { return d.dashChildren[len(d.Levels)] }

// Schema is the ordered list of dimensions of a fact table, i.e. the
// hierarchical metadata the cube is built over.
type Schema struct {
	Dims []*Dim
}

// NewSchema validates and wraps a list of dimensions.
func NewSchema(dims ...*Dim) (*Schema, error) {
	if len(dims) == 0 {
		return nil, errors.New("hierarchy: schema needs at least one dimension")
	}
	names := make(map[string]bool, len(dims))
	for _, d := range dims {
		if names[d.Name] {
			return nil, fmt.Errorf("hierarchy: duplicate dimension %q", d.Name)
		}
		names[d.Name] = true
		if d.dashParent == nil {
			return nil, fmt.Errorf("hierarchy: dimension %q not finalized", d.Name)
		}
	}
	return &Schema{Dims: dims}, nil
}

// NumDims returns the number of dimensions.
func (s *Schema) NumDims() int { return len(s.Dims) }

// Flatten returns a copy of the schema with every dimension reduced to its
// base level only. It is what the flat-cube variants (BUC, BU-BST, FCURE)
// operate on.
func (s *Schema) Flatten() *Schema {
	dims := make([]*Dim, len(s.Dims))
	for i, d := range s.Dims {
		dims[i] = NewFlatDim(d.Name, d.Levels[0].Card)
	}
	return &Schema{Dims: dims}
}

// BuildContiguousMap is a helper for generators and tests: it maps a base
// domain of size baseCard onto parentCard contiguous ranges of (nearly)
// equal size, preserving roll-up monotonicity.
func BuildContiguousMap(baseCard, parentCard int32) []int32 {
	m := make([]int32, baseCard)
	for c := int32(0); c < baseCard; c++ {
		p := int32(int64(c) * int64(parentCard) / int64(baseCard))
		if p >= parentCard {
			p = parentCard - 1
		}
		m[c] = p
	}
	return m
}

// ComposeMaps composes a base→mid map with a mid→top map into a base→top
// map, letting linear hierarchies be specified one step at a time.
func ComposeMaps(baseToMid, midToTop []int32) []int32 {
	out := make([]int32, len(baseToMid))
	for i, m := range baseToMid {
		out[i] = midToTop[m]
	}
	return out
}

// FactorsThrough reports whether level upper's map factors through level
// lower's map: base codes with equal codes at lower always have equal
// codes at upper. The external partitioner relies on this to group the
// in-memory node N by representative base codes; it holds for any
// consistent hierarchy (each lower-level member rolls up to a single
// upper-level member).
func (d *Dim) FactorsThrough(lower, upper int) bool {
	return upper > lower && d.splitMember(lower, upper) < 0
}

// splitMember returns a level-lower code whose base codes reach two
// different level-upper codes, or -1 when every one reaches a single
// code (upper's map factors through lower's).
func (d *Dim) splitMember(lower, upper int) int32 {
	if d.IsAll(upper) {
		return -1
	}
	rep := make([]int32, d.Card(lower))
	for i := range rep {
		rep[i] = -1
	}
	for base := int32(0); base < d.Levels[0].Card; base++ {
		lo := d.MapCode(base, lower)
		up := d.MapCode(base, upper)
		if rep[lo] == -1 {
			rep[lo] = up
		} else if rep[lo] != up {
			return lo
		}
	}
	return -1
}
