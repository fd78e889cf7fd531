package main

import (
	"fmt"
	"math/rand"
	"sort"

	"cure/internal/hierarchy"
	"cure/internal/lattice"
	"cure/internal/query"
	"cure/internal/relation"
)

// The oracle answers group-by queries by brute force over the generated
// fact rows, following the CUBE operator's definition (Gray et al.): a
// node is GROUP BY its non-ALL dimensions at their levels. It shares
// nothing with the library but the hierarchy's roll-up maps, which are
// part of the input.

// oracleNodes is how many lattice nodes are compared group by group.
const oracleNodes = 6

type oracle struct {
	hier  *hierarchy.Schema
	aggs  []relation.AggSpec
	facts []*relation.FactTable // base, then delta on apb-update
}

// nodeAnswer is the full group-by of one node: packed group keys in
// ascending order and len(aggs) aggregate values per group.
type nodeAnswer struct {
	Node   int64
	Levels []int
	Keys   []uint64
	Aggs   []float64
}

// strides returns the mixed-radix weights that pack a node's group into
// one uint64 (ALL levels have cardinality 1 and contribute nothing).
func strides(h *hierarchy.Schema, levels []int) ([]uint64, uint64) {
	out := make([]uint64, len(levels))
	space := uint64(1)
	for d := len(levels) - 1; d >= 0; d-- {
		out[d] = space
		space *= uint64(h.Dims[d].Card(levels[d]))
	}
	return out, space
}

// forEachKey calls fn with the packed group key of every fact row at the
// node's levels.
func (o *oracle) forEachKey(levels []int, fn func(t *relation.FactTable, r int, key uint64)) {
	st, _ := strides(o.hier, levels)
	for _, t := range o.facts {
		for r := 0; r < t.Len(); r++ {
			var key uint64
			for d, l := range levels {
				key += uint64(o.hier.Dims[d].MapCode(t.Dims[d][r], l)) * st[d]
			}
			fn(t, r, key)
		}
	}
}

// groupBy computes the node's complete answer.
func (o *oracle) groupBy(node lattice.NodeID, levels []int) nodeAnswer {
	index := map[uint64]int{}
	var sums []float64
	o.forEachKey(levels, func(t *relation.FactTable, r int, key uint64) {
		g, ok := index[key]
		if !ok {
			g = len(index)
			index[key] = g
			sums = append(sums, make([]float64, len(o.aggs))...)
		}
		for a, spec := range o.aggs {
			switch spec.Func {
			case relation.AggSum:
				sums[g*len(o.aggs)+a] += t.Measures[spec.Measure][r]
			case relation.AggCount:
				sums[g*len(o.aggs)+a]++
			default:
				panic(fmt.Sprintf("oracle: unsupported aggregate %s", spec.Func))
			}
		}
	})
	ans := nodeAnswer{Node: int64(node), Levels: levels, Keys: make([]uint64, 0, len(index))}
	for k := range index {
		ans.Keys = append(ans.Keys, k)
	}
	sort.Slice(ans.Keys, func(i, j int) bool { return ans.Keys[i] < ans.Keys[j] })
	ans.Aggs = make([]float64, 0, len(sums))
	for _, k := range ans.Keys {
		g := index[k]
		ans.Aggs = append(ans.Aggs, sums[g*len(o.aggs):(g+1)*len(o.aggs)]...)
	}
	return ans
}

// countBy returns how many distinct groups the node has for each code of
// dimension 0 at predLevel (which must not be finer than levels[0]):
// the expected row count of any selection on that level is a sum of its
// entries, and their total is the node's size.
func (o *oracle) countBy(levels []int, predLevel int) []int64 {
	counts := make([]int64, o.hier.Dims[0].Card(predLevel))
	_, space := strides(o.hier, levels)
	var seenBits []uint64
	var seenMap map[uint64]struct{}
	if space <= 1<<27 {
		seenBits = make([]uint64, space/64+1)
	} else {
		seenMap = map[uint64]struct{}{}
	}
	o.forEachKey(levels, func(t *relation.FactTable, r int, key uint64) {
		if seenBits != nil {
			if seenBits[key/64]&(1<<(key%64)) != 0 {
				return
			}
			seenBits[key/64] |= 1 << (key % 64)
		} else {
			if _, ok := seenMap[key]; ok {
				return
			}
			seenMap[key] = struct{}{}
		}
		counts[o.hier.Dims[0].MapCode(t.Dims[0][r], predLevel)]++
	})
	return counts
}

// Op kinds of the serve phases.
const (
	opPoint  = iota // SliceQuery on one member of dimension 0
	opRange         // NodeQueryWhere with a range on dimension 0
	opRollup        // NodeQuery full scan
)

// op is one pre-generated query with the row count the oracle expects.
type op struct {
	Kind   int
	Node   int64
	Level  int // predicate level on dimension 0 (point, range)
	Lo, Hi int32
	Want   int64
}

// plan is the op lists set-up hands to the timed children. It holds no
// path, so the same seed writes the same bytes.
type plan struct {
	Point, Range, Rollup, Mixed []op
}

// opGen makes ops of the workload's shape and prices them with the
// oracle. The seed decides the data and the order of the ops, never
// which ops there are: a list visits every member of a level, every
// range start and every roll-up node equally often, so lists made from
// different seeds cost the same but for the data.
type opGen struct {
	o      *oracle
	enum   *lattice.Enum
	rng    *rand.Rand
	coarse []lattice.NodeID
	counts map[string][]int64

	pointLevels []int
	rangeLevel  int
	rangeNodeL0 int
	otherDims   []int // grouped at their base level in the nodes point and range ops select from
}

func newOpGen(s *spec, o *oracle, seed int64) *opGen {
	g := &opGen{o: o, enum: lattice.NewEnum(o.hier), rng: rand.New(rand.NewSource(seed + 41)), counts: map[string][]int64{}}
	if s.flatTuples > 0 {
		// Four grouped dimensions, so a selection returns hundreds of
		// rows instead of a handful.
		g.pointLevels, g.rangeLevel, g.rangeNodeL0, g.otherDims = []int{0}, 0, 0, []int{1, 2, 3}
	} else {
		// APB Product: Family is the coarse level ranges select on,
		// Time.Month the second grouped dimension.
		g.pointLevels, g.rangeLevel, g.rangeNodeL0, g.otherDims = s.pointLevels, 3, 1, []int{2}
	}
	for _, id := range g.enum.AllNodes() {
		if g.enum.GroupingArity(id) <= s.rollupArity && g.enum.Decode(id, nil)[0] >= s.rollupLevel0 {
			g.coarse = append(g.coarse, id)
		}
	}
	return g
}

// selNode is the node point and range ops select from: dimension 0 at
// l0, otherDims at their base level, everything else ALL.
func (g *opGen) selNode(l0 int) []int {
	levels := make([]int, g.o.hier.NumDims())
	for d := range levels {
		levels[d] = g.o.hier.Dims[d].AllLevel()
	}
	levels[0] = l0
	for _, d := range g.otherDims {
		levels[d] = 0
	}
	return levels
}

func (g *opGen) countsFor(levels []int, predLevel int) []int64 {
	key := fmt.Sprint(levels, predLevel)
	c, ok := g.counts[key]
	if !ok {
		c = g.o.countBy(levels, predLevel)
		g.counts[key] = c
	}
	return c
}

// cycle returns n ops: mk(i) for i over seeded permutations of [0, m),
// repeated as often as needed.
func (g *opGen) cycle(n, m int, mk func(i int) op) []op {
	ops := make([]op, 0, n)
	for len(ops) < n {
		for _, i := range g.rng.Perm(m) {
			if len(ops) == n {
				break
			}
			ops = append(ops, mk(i))
		}
	}
	return ops
}

// points selects one member of dimension 0 at a mid level.
func (g *opGen) points(n int) []op {
	dim := g.o.hier.Dims[0]
	var members []op
	for _, l := range g.pointLevels {
		levels := g.selNode(l)
		counts := g.countsFor(levels, l)
		for code := int32(0); code < dim.Card(l); code++ {
			members = append(members, op{Kind: opPoint, Node: int64(g.enum.Encode(levels)), Level: l, Lo: code, Hi: code, Want: counts[code]})
		}
	}
	return g.cycle(n, len(members), func(i int) op { return members[i] })
}

// ranges selects an eighth of the coarse level's codes.
func (g *opGen) ranges(n int) []op {
	levels := g.selNode(g.rangeNodeL0)
	counts := g.countsFor(levels, g.rangeLevel)
	card := g.o.hier.Dims[0].Card(g.rangeLevel)
	width := max(card/8, 1)
	return g.cycle(n, int(card-width+1), func(i int) op {
		o := op{Kind: opRange, Node: int64(g.enum.Encode(levels)), Level: g.rangeLevel, Lo: int32(i), Hi: int32(i) + width - 1}
		for _, c := range counts[o.Lo : o.Hi+1] {
			o.Want += c
		}
		return o
	})
}

// rollups scans every coarse node, n times over.
func (g *opGen) rollups(n int) []op {
	return g.cycle(n*len(g.coarse), len(g.coarse), func(i int) op {
		o := op{Kind: opRollup, Node: int64(g.coarse[i])}
		for _, c := range g.countsFor(g.enum.Decode(g.coarse[i], nil), g.o.hier.Dims[0].AllLevel()) {
			o.Want += c
		}
		return o
	})
}

// lists fills the plan's four op lists: the three pure phases and the
// mix, which holds mixedRollups passes over the roll-up nodes as its 30%
// and points and ranges as 40% and 30%, shuffled.
func (g *opGen) lists(s *spec, p *plan) {
	p.Point = g.points(s.nPoint)
	p.Range = g.ranges(s.nRange)
	p.Rollup = g.rollups(s.rollupPasses)
	p.Mixed = g.rollups(s.mixedRollups)
	n := len(p.Mixed)
	p.Mixed = append(p.Mixed, g.points(n*4/3)...)
	p.Mixed = append(p.Mixed, g.ranges(n)...)
	g.rng.Shuffle(len(p.Mixed), func(i, j int) { p.Mixed[i], p.Mixed[j] = p.Mixed[j], p.Mixed[i] })
}

// sampleNodes picks the nodes compared group by group: the base node,
// ALL, and seeded others.
func sampleNodes(h *hierarchy.Schema, seed int64) []lattice.NodeID {
	enum := lattice.NewEnum(h)
	base := make([]int, h.NumDims())
	all := make([]int, h.NumDims())
	for d := range all {
		all[d] = h.Dims[d].AllLevel()
	}
	picked := []lattice.NodeID{enum.Encode(base), enum.Encode(all)}
	rng := rand.New(rand.NewSource(seed + 97))
	for _, i := range rng.Perm(int(enum.NumNodes())) {
		if len(picked) == oracleNodes {
			break
		}
		if id := lattice.NodeID(i); id != picked[0] && id != picked[1] {
			picked = append(picked, id)
		}
	}
	return picked
}

// checkNode compares the engine's answer for one node with the oracle's,
// group by group and aggregate by aggregate.
func checkNode(e *query.Engine, h *hierarchy.Schema, ans nodeAnswer) error {
	st, _ := strides(h, ans.Levels)
	var grouped []int
	for d, l := range ans.Levels {
		if !h.Dims[d].IsAll(l) {
			grouped = append(grouped, d)
		}
	}
	numAggs := len(ans.Aggs) / max(len(ans.Keys), 1)
	seen := make([]bool, len(ans.Keys))
	matched := 0
	err := e.NodeQuery(lattice.NodeID(ans.Node), func(row query.Row) error {
		var key uint64
		for i, d := range grouped {
			key += uint64(row.Dims[i]) * st[d]
		}
		g := sort.Search(len(ans.Keys), func(i int) bool { return ans.Keys[i] >= key })
		if g == len(ans.Keys) || ans.Keys[g] != key {
			return fmt.Errorf("group %v is not in the oracle's answer", row.Dims)
		}
		if seen[g] {
			return fmt.Errorf("group %v returned twice", row.Dims)
		}
		seen[g] = true
		for a := 0; a < numAggs; a++ {
			if row.Aggrs[a] != ans.Aggs[g*numAggs+a] {
				return fmt.Errorf("group %v aggregate %d = %v, oracle says %v", row.Dims, a, row.Aggrs[a], ans.Aggs[g*numAggs+a])
			}
		}
		matched++
		return nil
	})
	if err != nil {
		return err
	}
	if matched != len(ans.Keys) {
		return fmt.Errorf("%d groups returned, oracle has %d", matched, len(ans.Keys))
	}
	return nil
}
