package lattice

import (
	"testing"

	"cure/internal/hierarchy"
)

// FuzzEncodeDecode checks the mixed-radix node enumeration over arbitrary
// ids: valid ids must round-trip, and plan parents must stay valid.
func FuzzEncodeDecode(f *testing.F) {
	am := hierarchy.BuildContiguousMap(8, 4)
	a, err := hierarchy.NewLinearDim("A", []string{"A0", "A1"}, []int32{8, 4}, [][]int32{am})
	if err != nil {
		f.Fatal(err)
	}
	s, err := hierarchy.NewSchema(a, hierarchy.NewFlatDim("B", 5), hierarchy.NewFlatDim("C", 3))
	if err != nil {
		f.Fatal(err)
	}
	e := NewEnum(s)
	f.Add(int64(0))
	f.Add(int64(11))
	f.Fuzz(func(t *testing.T, raw int64) {
		id := NodeID(raw)
		if !e.Valid(id) {
			return
		}
		if e.Encode(e.Decode(id, nil)) != id {
			t.Fatalf("round trip failed for %d", id)
		}
		if p, ok := e.PlanParent(id); ok && !e.Valid(p) {
			t.Fatalf("plan parent of %d is invalid: %d", id, p)
		}
	})
}
