package query

import (
	"runtime"

	"cure/internal/lattice"
	"cure/internal/par"
)

// NodeQueryBatch answers the given node queries concurrently on up to
// `workers` goroutines (workers <= 0 uses GOMAXPROCS; 1 runs them in
// order) over one shared engine, which is safe for concurrent use. fn
// is invoked concurrently for different qi but sequentially within
// one. The first error stops new queries; every error is returned.
func (e *Engine) NodeQueryBatch(workers int, ids []lattice.NodeID, fn func(qi int, row Row) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return par.Do(par.NewLimiter(workers), len(ids), func(_, qi int) error {
		return e.NodeQuery(ids[qi], func(r Row) error { return fn(qi, r) })
	})
}
