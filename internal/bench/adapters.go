package bench

import (
	"fmt"
	"path/filepath"
	"time"

	"cure/internal/bubst"
	"cure/internal/buc"
	"cure/internal/core"
	"cure/internal/hierarchy"
	"cure/internal/lattice"
	"cure/internal/query"
	"cure/internal/relation"
)

// stdSpecs is the aggregate set used by the comparative experiments: one
// SUM and one COUNT, like the paper's measures.
func stdSpecs() []relation.AggSpec {
	return []relation.AggSpec{{Func: relation.AggSum, Measure: 0}, {Func: relation.AggCount}}
}

// flatQuerier is the uniform node-query surface over the three cube
// formats, used to time workloads.
type flatQuerier interface {
	Query(id lattice.NodeID, fn func(dims []int32, aggrs []float64) error) error
	Close() error
}

type bucQuerier struct{ e *buc.Engine }

func (q bucQuerier) Query(id lattice.NodeID, fn func([]int32, []float64) error) error {
	return q.e.NodeQuery(id, func(row buc.Row) error { return fn(row.Dims, row.Aggrs) })
}
func (q bucQuerier) Close() error { return q.e.Close() }

type bubstQuerier struct{ e *bubst.Engine }

func (q bubstQuerier) Query(id lattice.NodeID, fn func([]int32, []float64) error) error {
	return q.e.NodeQuery(id, func(row bubst.Row) error { return fn(row.Dims, row.Aggrs) })
}
func (q bubstQuerier) Close() error { return q.e.Close() }

type cureQuerier struct{ e *query.Engine }

func (q cureQuerier) Query(id lattice.NodeID, fn func([]int32, []float64) error) error {
	return q.e.NodeQuery(id, func(row query.Row) error { return fn(row.Dims, row.Aggrs) })
}
func (q cureQuerier) Close() error { return q.e.Close() }

// buildCURE runs a CURE variant over the table, instrumented with the
// harness registry.
func (h *Harness) buildCURE(dir string, ft *relation.FactTable, hier *hierarchy.Schema, mod func(*core.Options)) (*core.BuildStats, error) {
	opts := core.Options{
		Dir: dir, Hier: hier, AggSpecs: stdSpecs(), Metrics: h.reg,
		Parallelism: h.cfg.Parallelism,
	}
	if mod != nil {
		mod(&opts)
	}
	return core.BuildFromTable(ft, opts)
}

// timeWorkload measures the average per-query wall time of a node-query
// workload, returning (avg seconds, total rows visited).
func timeWorkload(q flatQuerier, workload []lattice.NodeID) (float64, int64, error) {
	var rows int64
	start := time.Now()
	for _, id := range workload {
		if err := q.Query(id, func([]int32, []float64) error {
			rows++
			return nil
		}); err != nil {
			return 0, 0, err
		}
	}
	return time.Since(start).Seconds() / float64(len(workload)), rows, nil
}

// mergeAggs folds one already-aggregated tuple into dst under the given
// specs (COUNT values add, SUM adds, MIN/MAX compare). first marks the
// first contribution to dst.
func mergeAggs(dst, src []float64, specs []relation.AggSpec, first bool) {
	for i, s := range specs {
		switch s.Func {
		case relation.AggSum, relation.AggCount:
			if first {
				dst[i] = src[i]
			} else {
				dst[i] += src[i]
			}
		case relation.AggMin:
			if first {
				dst[i] = src[i]
			} else {
				dst[i] = min(dst[i], src[i])
			}
		case relation.AggMax:
			if first {
				dst[i] = src[i]
			} else {
				dst[i] = max(dst[i], src[i])
			}
		}
	}
}

// hierOverFlat answers a hierarchical node query against a flat cube: it
// queries the flat node grouping the same dimensions at base level, maps
// every base code to the requested hierarchy level, and re-aggregates on
// the fly — exactly the work the paper argues flat cubes force on
// roll-up/drill-down operations (Figure 28).
func hierOverFlat(q flatQuerier, flatEnum *lattice.Enum, hier *hierarchy.Schema, levels []int, specs []relation.AggSpec) (int64, error) {
	active := make([]int, 0, len(levels))
	flatLevels := make([]int, len(levels))
	for d, l := range levels {
		if hier.Dims[d].IsAll(l) {
			flatLevels[d] = 1
		} else {
			flatLevels[d] = 0
			active = append(active, d)
		}
	}
	flatID := flatEnum.Encode(flatLevels)
	groups := map[string][]float64{}
	var keyBuf []byte
	err := q.Query(flatID, func(dims []int32, aggrs []float64) error {
		keyBuf = keyBuf[:0]
		for i, d := range active {
			code := hier.Dims[d].MapCode(dims[i], levels[d])
			keyBuf = append(keyBuf, byte(code), byte(code>>8), byte(code>>16), byte(code>>24))
		}
		g, ok := groups[string(keyBuf)]
		if !ok {
			g = make([]float64, len(specs))
			mergeAggs(g, aggrs, specs, true)
			groups[string(keyBuf)] = g
			return nil
		}
		mergeAggs(g, aggrs, specs, false)
		return nil
	})
	if err != nil {
		return 0, err
	}
	return int64(len(groups)), nil
}

// writeFact persists a generated table under the work dir and returns its
// path.
func writeFact(workDir, name string, ft *relation.FactTable) (string, error) {
	path := filepath.Join(workDir, name)
	if err := relation.WriteFactFile(path, ft); err != nil {
		return "", fmt.Errorf("bench: writing %s: %w", name, err)
	}
	return path, nil
}
