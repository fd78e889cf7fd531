package query

import (
	"fmt"
	"strings"
	"testing"
)

// TestForEachPropagatesPanic pins the batch's crash contract: a panic
// in any query's consumer stops new claims, the workers drain, and the
// first panic re-raises on the calling goroutine, annotated by the
// engine's obsv.CapturePanic wrapper.
func TestForEachPropagatesPanic(t *testing.T) {
	eng, ids := batchOf(t, 100)
	for _, workers := range []int{1, 4} {
		ran := newFirstRows(len(ids))
		var recovered any
		func() {
			defer func() { recovered = recover() }()
			eng.NodeQueryBatch(workers, ids, func(qi int, _ Row) error {
				if qi == 3 {
					panic("kaboom-3")
				}
				ran.first(qi)
				return nil
			})
		}()
		if recovered == nil || !strings.Contains(fmt.Sprint(recovered), "kaboom-3") {
			t.Fatalf("workers=%d: recovered %v, want the consumer's panic value", workers, recovered)
		}
		if n := ran.n.Load(); n >= int64(len(ids)) {
			t.Fatalf("workers=%d: all %d queries ran despite a panic stopping claims", workers, n)
		}
	}
}
