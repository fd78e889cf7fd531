package query

import (
	"fmt"

	"cure/internal/hierarchy"
	"cure/internal/lattice"
)

// Predicate restricts a query to tuples whose value of one dimension at
// some hierarchy level falls into a code range — the paper's "queries
// combined with some selection of specific ranges" (§7). Predicates are
// evaluated on the tuples' base-level source rows, so the level may be
// the node's own level for the dimension or any level it rolls up into
// (e.g. select a Division while grouping by Code). CURE_DR cubes evaluate
// predicates on their inline codes and therefore accept only predicates
// at exactly the node's level of a grouped dimension.
type Predicate struct {
	// Dim is the dimension index.
	Dim int
	// Level is the hierarchy level the codes refer to.
	Level int
	// Lo and Hi bound the accepted code range, inclusive. For a single
	// value set Lo == Hi.
	Lo, Hi int32
}

// Match reports whether a code satisfies the predicate.
func (p Predicate) Match(code int32) bool { return code >= p.Lo && code <= p.Hi }

// NodeQueryWhere is Query(Spec{Node: id, Where: preds}). It exists only
// for benchmarks/cubemark, until that harness calls Query.
func (e *Engine) NodeQueryWhere(id lattice.NodeID, preds []Predicate, fn func(Row) error) error {
	return e.Query(Spec{Node: id, Where: preds}, fn)
}

// compileFilter is the one compile step of a query: it validates s — the
// node, each predicate against the node's levels, the iceberg threshold —
// and lowers it into a scanFilter (nil when s selects the whole node): the
// tuple predicates, the CURE_DR dimension→position map, the zone-map slot
// predicates block pruning uses (unless indexing is disabled) and the
// COUNT threshold. The node's decoded levels are returned alongside.
func (e *Engine) compileFilter(s Spec) (*scanFilter, []int, error) {
	if !e.enum.Valid(s.Node) {
		return nil, nil, fmt.Errorf("query: invalid node id %d", s.Node)
	}
	levels := e.enum.Decode(s.Node, nil)
	if len(s.Where) == 0 && s.MinCount == 0 {
		return nil, levels, nil
	}
	preds := s.Where
	f := &scanFilter{preds: preds}
	if s.MinCount != 0 {
		if !(s.MinCount >= 1) {
			return nil, nil, fmt.Errorf("query: iceberg threshold %v below 1 matches everything", s.MinCount)
		}
		if e.countAgg < 0 {
			return nil, nil, fmt.Errorf("query: iceberg queries need a COUNT aggregate; the cube has none")
		}
		f.countAgg, f.minCount = e.countAgg, s.MinCount
	}
	hier := e.r.Hier()
	for _, p := range preds {
		if p.Dim < 0 || p.Dim >= hier.NumDims() {
			return nil, nil, fmt.Errorf("query: predicate dimension %d out of range", p.Dim)
		}
		d := hier.Dims[p.Dim]
		if p.Level < 0 || p.Level > d.AllLevel() {
			return nil, nil, fmt.Errorf("query: predicate level %d out of range for %s", p.Level, d.Name)
		}
		if !rollsInto(d, levels[p.Dim], p.Level) {
			return nil, nil, fmt.Errorf("query: predicate on %s at level %s does not aggregate the node's level %s",
				d.Name, d.LevelName(p.Level), d.LevelName(levels[p.Dim]))
		}
		if p.Lo > p.Hi {
			return nil, nil, fmt.Errorf("query: empty predicate range [%d,%d]", p.Lo, p.Hi)
		}
	}
	if e.r.Manifest().DimsInline && len(preds) > 0 {
		// CURE_DR: predicates evaluate against inline codes, so each must
		// target exactly the node's level of a grouped dimension (coarser
		// levels would need base codes, which DR rows no longer
		// reference). Map dimension index → grouped position.
		pos := make([]int, hier.NumDims())
		idx := 0
		for d, l := range levels {
			if hier.Dims[d].IsAll(l) {
				pos[d] = -1
			} else {
				pos[d] = idx
				idx++
			}
		}
		for _, p := range preds {
			if pos[p.Dim] < 0 || p.Level != levels[p.Dim] {
				return nil, nil, fmt.Errorf("query: CURE_DR cubes only support predicates at the node's own level (dim %s, level %s)",
					hier.Dims[p.Dim].Name, hier.Dims[p.Dim].LevelName(levels[p.Dim]))
			}
		}
		f.drPos = pos
	}
	// Lower predicates onto zone-map slots: a coarser level becomes a
	// base-code range unless it keeps its own slot. Predicates at the ALL
	// level accept everything and have no slot; they contribute no pruning.
	if !e.noIndex {
		for _, p := range preds {
			if p.Level < hier.Dims[p.Dim].AllLevel() {
				f.zp = append(f.zp, e.zones.Lower(p.Dim, p.Level, p.Lo, p.Hi))
			}
		}
	}
	return f, levels, nil
}

// rollsInto reports whether every level-l member of d lies inside one
// level-u member: u is l itself, ALL, or reached from l along declared
// roll-up edges. Only then is a level-u predicate decided by a level-l
// tuple's source row; a coarser index alone is not enough in a complex
// hierarchy (a week need not lie inside one month).
func rollsInto(d *hierarchy.Dim, l, u int) bool {
	if l == u || d.IsAll(u) {
		return true
	}
	if d.IsAll(l) {
		return false
	}
	for _, p := range d.Levels[l].RollsUpTo {
		if p <= u && rollsInto(d, p, u) {
			return true
		}
	}
	return false
}

// SliceQuery is the common OLAP slice: the grouping of node id with
// dimension dim fixed to one code at the given level, answered from the
// node that still groups dim at that level (a node that aggregates dim
// away cannot be filtered on it after the fact), so the rows include the
// fixed dimension's constant code. It exists only for
// benchmarks/cubemark, until that harness calls Query.
func (e *Engine) SliceQuery(id lattice.NodeID, dim, level int, code int32, fn func(Row) error) error {
	_, levels, err := e.compileFilter(Spec{Node: id})
	if err != nil {
		return err
	}
	if dim < 0 || dim >= len(levels) {
		return fmt.Errorf("query: slice dimension %d out of range", dim)
	}
	if level >= 0 && level < levels[dim] {
		levels[dim] = level
	}
	return e.Query(Spec{Node: e.enum.Encode(levels), Where: []Predicate{{Dim: dim, Level: level, Lo: code, Hi: code}}}, fn)
}
