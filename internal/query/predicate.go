package query

import (
	"fmt"

	"cure/internal/lattice"
	"cure/internal/storage"
)

// Predicate restricts a node query to tuples whose value of one dimension
// at some hierarchy level falls into a code set or range — the paper's
// "queries combined with some selection of specific ranges" (§7). The
// predicate level may be the node's own level or any coarser one (e.g.
// select a Division while grouping by Code).
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

// NodeQueryWhere streams the tuples of node id that satisfy every
// predicate. Predicates are evaluated against the tuples' base-level
// source rows, so they may reference any level at or above the node's
// granularity for the dimension. CURE_DR cubes evaluate predicates on
// their inline codes and therefore only accept predicates at exactly the
// node's level for grouped dimensions.
func (e *Engine) NodeQueryWhere(id lattice.NodeID, preds []Predicate, fn func(Row) error) error {
	if len(preds) == 0 {
		return e.NodeQuery(id, fn)
	}
	f, levels, err := e.compileFilter(id, preds)
	if err != nil {
		return err
	}
	var where string
	if e.queries != nil {
		where = e.whereString(preds)
	}
	return e.runQuery("where", id, where, e.cWhere, e.hWhere, fn, func(q *qctx, fn func(Row) error) error {
		return e.scanNode(id, levels, f, q, fn)
	})
}

// compileFilter validates preds against node id and lowers them into a
// scanFilter: tuple predicates, the CURE_DR dimension→position map, and
// (unless indexing is disabled) the zone-map slot predicates block
// pruning uses. The node's decoded levels are returned alongside.
func (e *Engine) compileFilter(id lattice.NodeID, preds []Predicate) (*scanFilter, []int, error) {
	if !e.enum.Valid(id) {
		return nil, nil, fmt.Errorf("query: invalid node id %d", id)
	}
	levels := e.enum.Decode(id, nil)
	if len(preds) == 0 {
		return nil, levels, nil
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
		if p.Level < levels[p.Dim] {
			return nil, nil, fmt.Errorf("query: predicate on %s at level %s is finer than the node's level %s",
				d.Name, d.LevelName(p.Level), d.LevelName(levels[p.Dim]))
		}
		if p.Lo > p.Hi {
			return nil, nil, fmt.Errorf("query: empty predicate range [%d,%d]", p.Lo, p.Hi)
		}
	}
	f := &scanFilter{preds: preds}
	if e.r.Manifest().DimsInline {
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
	// Lower predicates onto zone-map slots. Predicates at the ALL level
	// accept everything and have no slot; they contribute no pruning.
	if !e.noIndex {
		for _, p := range preds {
			if p.Level < hier.Dims[p.Dim].AllLevel() {
				f.zp = append(f.zp, storage.ZonePred{Slot: e.zoneOffs[p.Dim] + p.Level, Lo: p.Lo, Hi: p.Hi})
			}
		}
	}
	return f, levels, nil
}

// SliceQuery is the common OLAP slice: the grouping of node id with
// dimension dim additionally fixed to a single value at the given level.
// A node that aggregates dim away cannot be filtered on it after the
// fact (its tuples mix all of dim's values), so the query is answered
// from the node that still groups dim at that level; the returned rows
// therefore include the fixed dimension's (constant) code among their
// grouping attributes.
func (e *Engine) SliceQuery(id lattice.NodeID, dim, level int, code int32, fn func(Row) error) error {
	if dim < 0 || dim >= e.r.Hier().NumDims() {
		return fmt.Errorf("query: slice dimension %d out of range", dim)
	}
	levels := e.enum.Decode(id, nil)
	if level < levels[dim] {
		// The node aggregates dim more coarsely than the slice asks for:
		// refine the grouping so the selection is answerable.
		levels[dim] = level
	}
	target := e.enum.Encode(levels)
	return e.NodeQueryWhere(target, []Predicate{{Dim: dim, Level: level, Lo: code, Hi: code}}, fn)
}
