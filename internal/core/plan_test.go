package core

import (
	"fmt"
	"maps"
	"path/filepath"
	"slices"
	"strconv"
	"testing"

	"cure/internal/hierarchy"
	"cure/internal/lattice"
	"cure/internal/relation"
	"cure/internal/storage"
)

// TestPlanParentsRecord pins the plan record of every build path: an
// in-memory build records nothing, a partitioned one exactly the phase
// roots its executors entered, and the shortest-plan ablation every node
// whose P2 parent differs from its P3 one, with that parent.
func TestPlanParentsRecord(t *testing.T) {
	const root = storage.PlanRoot
	// paperNode and pairNode encode level vectors of paperHier (ALL is
	// A3, B2, C1) and pairHier (ALL is A2, B2, C1).
	paperNode := func(a, b, c int) lattice.NodeID { return lattice.NodeID(a + 4*b + 12*c) }
	pairNode := func(a, b, c int) lattice.NodeID { return lattice.NodeID(a + 3*b + 9*c) }
	for _, tc := range []struct {
		name   string
		hier   *hierarchy.Schema
		ft     *relation.FactTable
		mod    func(*Options)
		levels [2]int // the partition levels the fixture takes (-1: none)
		want   map[lattice.NodeID]lattice.NodeID
	}{
		{"in-memory", paperHier(t), randomFact(t, 800, 7), func(*Options) {}, [2]int{-1, -1}, nil},
		{"partitioned", paperHier(t), randomFact(t, 800, 7),
			func(o *Options) { o.MemoryBudget = 16_000 }, [2]int{1, -1},
			map[lattice.NodeID]lattice.NodeID{paperNode(1, 2, 1): root}},
		{"pair-partitioned", pairHier(t), pairEquivFact(t, 8),
			func(o *Options) { o.MemoryBudget = 5_600 }, [2]int{1, 1},
			map[lattice.NodeID]lattice.NodeID{
				pairNode(0, 1, 1): root, pairNode(1, 1, 1): root, // phase 1: {A_l, B_M}
				pairNode(0, 2, 1): root, pairNode(1, 2, 1): root, // N_1: {A_l}
			}},
		// Under P2 a node's parent drops its rightmost grouping dimension;
		// under P3 it coarsens it one level. They differ wherever that
		// dimension sits below its top level: A0, A1 and B0 (C0 is C's top).
		{"shortplan", paperHier(t), randomFact(t, 800, 7), ShortestPlan, [2]int{-1, -1},
			map[lattice.NodeID]lattice.NodeID{
				paperNode(0, 0, 1): paperNode(0, 2, 1), paperNode(1, 0, 1): paperNode(1, 2, 1),
				paperNode(2, 0, 1): paperNode(2, 2, 1), paperNode(3, 0, 1): paperNode(3, 2, 1),
				paperNode(0, 2, 1): paperNode(3, 2, 1), paperNode(1, 2, 1): paperNode(3, 2, 1),
			}},
	} {
		for _, par := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/P%d", tc.name, par), func(t *testing.T) {
				opts := Options{Hier: tc.hier, AggSpecs: testSpecs(), Parallelism: par}
				tc.mod(&opts)
				dir := t.TempDir()
				stats := buildAt(t, dir, tc.ft, opts)
				if got := [2]int{stats.PartitionLevel, stats.PartitionLevelB}; got != tc.levels {
					t.Fatalf("fixture partitioned on %v, want %v", got, tc.levels)
				}
				m, err := storage.ReadManifest(filepath.Join(dir, "cube"))
				if err != nil {
					t.Fatal(err)
				}
				want := map[string]lattice.NodeID{}
				for id, p := range tc.want {
					want[strconv.FormatInt(int64(id), 10)] = p
				}
				if !maps.Equal(m.PlanParents, want) {
					t.Errorf("plan_parents = %v, want %v", m.PlanParents, want)
				}
			})
		}
	}
}

// TestPlanPathShort: under P2 a node's parent drops its rightmost grouping
// dimension whole, so A0B0C0's path is A0B0C0 → A0B0 → A0 → ∅ (P3's has
// seven nodes). ∅ has no parent, and every node's P2 ancestors are valid
// nodes it refines.
func TestPlanPathShort(t *testing.T) {
	e := lattice.NewEnum(paperHier(t))
	path := func(id lattice.NodeID) []lattice.NodeID {
		out := []lattice.NodeID{id}
		for p, ok := planParentShort(e, id); ok; p, ok = planParentShort(e, p) {
			out = append(out, p)
		}
		return out
	}
	if got, want := path(0), []lattice.NodeID{0, 12, 20, 23}; !slices.Equal(got, want) {
		t.Errorf("P2 path of A0B0C0 = %v, want %v", got, want)
	}
	if _, ok := planParentShort(e, lattice.NodeID(e.NumNodes()-1)); ok {
		t.Error("∅ has a P2 parent")
	}
	for _, id := range e.AllNodes() {
		for _, anc := range path(id)[1:] {
			if !e.Valid(anc) || !e.Refines(id, anc) {
				t.Errorf("%s does not refine P2 ancestor %d", e.Name(id), anc)
			}
		}
	}
}
