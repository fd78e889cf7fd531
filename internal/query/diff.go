package query

import (
	"encoding/binary"
	"fmt"
)

// DiffReport summarizes a node-by-node comparison of two cubes.
type DiffReport struct {
	// NodesCompared is the number of lattice nodes examined.
	NodesCompared int
	// TuplesA and TuplesB are the total tuple counts of each cube.
	TuplesA, TuplesB int64
	// Differences lists the first few discrepancies (empty when the two
	// cubes answer every node query identically).
	Differences []string
}

// Equal reports whether the two cubes are query-equivalent.
func (r *DiffReport) Equal() bool { return len(r.Differences) == 0 }

const maxDiffErrors = 20

// Diff compares two cubes node by node on their query results (dims +
// aggregates) — storage layout, variant, CAT format, and partitioning may
// all differ; only the answers matter. The schemas must have identical
// lattice shapes.
func Diff(a, b *Engine) (*DiffReport, error) {
	if a.Enum().NumNodes() != b.Enum().NumNodes() {
		return nil, fmt.Errorf("query: lattices differ: %d vs %d nodes", a.Enum().NumNodes(), b.Enum().NumNodes())
	}
	if a.Manifest().NumAggrs() != b.Manifest().NumAggrs() {
		return nil, fmt.Errorf("query: aggregate counts differ: %d vs %d", a.Manifest().NumAggrs(), b.Manifest().NumAggrs())
	}
	rep := &DiffReport{}
	var keyBuf []byte
	key := func(dims []int32) string {
		keyBuf = keyBuf[:0]
		for _, d := range dims {
			var buf [4]byte
			binary.LittleEndian.PutUint32(buf[:], uint32(d))
			keyBuf = append(keyBuf, buf[:]...)
		}
		return string(keyBuf)
	}
	for _, id := range a.Enum().AllNodes() {
		rep.NodesCompared++
		rowsA := map[string][]float64{}
		if err := a.Query(Spec{Node: id}, func(row Row) error {
			rep.TuplesA++
			rowsA[key(row.Dims)] = append([]float64(nil), row.Aggrs...)
			return nil
		}); err != nil {
			return nil, err
		}
		matched := 0
		if err := b.Query(Spec{Node: id}, func(row Row) error {
			rep.TuplesB++
			k := key(row.Dims)
			w, ok := rowsA[k]
			if !ok {
				rep.addDiff("node %s: tuple %v only in B", a.Enum().Name(id), row.Dims)
				return nil
			}
			matched++
			for i := range w {
				if !sameAggr(w[i], row.Aggrs[i]) {
					rep.addDiff("node %s tuple %v: aggregate %d differs (%v vs %v)",
						a.Enum().Name(id), row.Dims, i, w[i], row.Aggrs[i])
					return nil
				}
			}
			return nil
		}); err != nil {
			return nil, err
		}
		if matched != len(rowsA) {
			rep.addDiff("node %s: %d tuples only in A", a.Enum().Name(id), len(rowsA)-matched)
		}
	}
	return rep, nil
}

func (r *DiffReport) addDiff(format string, args ...any) {
	if len(r.Differences) < maxDiffErrors {
		r.Differences = append(r.Differences, fmt.Sprintf(format, args...))
	}
}
