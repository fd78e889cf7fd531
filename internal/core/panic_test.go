package core

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"cure/internal/par"
)

// TestRunTasksPropagatesPanic pins the crash contract the partition task
// loop relies on from par.Do: a panicking task stops new claims, the
// helpers drain, every limiter slot is released, and the first panic
// value re-raises on the calling goroutine, where the build's flight
// recorder sees it.
func TestRunTasksPropagatesPanic(t *testing.T) {
	for _, p := range []int{1, 4} {
		lim := par.NewLimiter(p)
		var ran atomic.Int32
		var recovered any
		func() {
			defer func() { recovered = recover() }()
			par.Do(lim, 16, func(slot, i int) error {
				if i == 2 {
					panic("kaboom-2")
				}
				ran.Add(1)
				return nil
			})
		}()
		if recovered == nil || !strings.Contains(fmt.Sprint(recovered), "kaboom-2") {
			t.Fatalf("p=%d: recovered %v, want the task's panic value", p, recovered)
		}
		if n := ran.Load(); n >= 16 {
			t.Fatalf("p=%d: all %d tasks ran despite a panic stopping claims", p, n)
		}
		// Every limiter slot must come back even through the panic path,
		// or every later par.Do on the limiter runs narrower.
		if !fullWidthAgain(lim, p) {
			t.Fatalf("p=%d: the limiter cannot run %d workers at once after a panic", p, p)
		}
	}
}
