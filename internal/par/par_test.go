package par

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// freeSlots drains lim and reports how many grants were free, then
// returns them: every grant must come back after a call, since a limiter
// is reused across calls.
func freeSlots(lim *Limiter) int {
	n := lim.grant(lim.Slots())
	for i := 0; i < n; i++ {
		lim.release()
	}
	return n
}

// recoverFrom runs fn and returns what it panicked with (nil if none).
func recoverFrom(fn func()) (v any) {
	defer func() { v = recover() }()
	fn()
	return nil
}

// waitFor returns the result of fn, or fails the test when fn is still
// running after a generous timeout — the deadlock check.
func waitFor[T any](t *testing.T, what string, fn func() T) T {
	t.Helper()
	done := make(chan T, 1)
	go func() { done <- fn() }()
	select {
	case v := <-done:
		return v
	case <-time.After(20 * time.Second):
		t.Fatalf("%s: still running after 20s", what)
		panic("unreachable")
	}
}

func TestNewLimiter(t *testing.T) {
	for _, p := range []int{-1, 0, 1} {
		if lim := NewLimiter(p); lim != nil || lim.Slots() != 1 {
			t.Fatalf("NewLimiter(%d) = %v with %d slots, want nil with 1", p, lim, lim.Slots())
		}
	}
	if lim := NewLimiter(4); lim.Slots() != 4 || freeSlots(lim) != 3 {
		t.Fatalf("NewLimiter(4): %d slots, %d free grants", lim.Slots(), freeSlots(lim))
	}
}

func TestDoRunsEverything(t *testing.T) {
	for _, p := range []int{1, 3, 8} {
		lim := NewLimiter(p)
		var ran [50]atomic.Int32
		err := Do(lim, len(ran), func(slot, i int) error {
			if slot < 0 || slot >= p {
				t.Errorf("slot %d outside [0, %d)", slot, p)
			}
			ran[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range ran {
			if got := ran[i].Load(); got != 1 {
				t.Fatalf("p=%d: task %d ran %d times", p, i, got)
			}
		}
		if free := freeSlots(lim); free != p-1 && p > 1 {
			t.Fatalf("p=%d: %d grants free after Do, want %d", p, free, p-1)
		}
		if err := Do(lim, 0, func(int, int) error { t.Error("task ran at n=0"); return nil }); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDoErrors(t *testing.T) {
	// Sequential: the first failure stops later claims and is the one
	// reported.
	calls := 0
	err := Do(nil, 10, func(slot, i int) error {
		calls++
		if i == 2 {
			return errors.New("boom-2")
		}
		return nil
	})
	if err == nil || err.Error() != "boom-2" || calls != 3 {
		t.Fatalf("sequential: err=%v after %d calls, want boom-2 after 3", err, calls)
	}

	// Concurrent: an error stops new claims well before the range ends.
	boom := errors.New("boom")
	for _, p := range []int{4, 16} {
		var ran atomic.Int64
		err := Do(NewLimiter(p), 1000, func(slot, i int) error {
			ran.Add(1)
			if i == 3 {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("p=%d: err = %v, want %v", p, err, boom)
		}
		if n := ran.Load(); n >= 1000 {
			t.Fatalf("p=%d: %d tasks ran after the error", p, n)
		}
	}

	// Failures in the same round are all reported, in index order: every
	// task blocks until all four are claimed, then all fail at once.
	const workers = 4
	barrier := make(chan struct{})
	var arrived atomic.Int64
	err = Do(NewLimiter(workers), workers, func(slot, i int) error {
		if arrived.Add(1) == workers {
			close(barrier)
		}
		<-barrier
		return fmt.Errorf("task %d failed", i)
	})
	if want := "task 0 failed\ntask 1 failed\ntask 2 failed\ntask 3 failed"; err == nil || err.Error() != want {
		t.Fatalf("joined error = %q, want %q", err, want)
	}
}

// TestDoPropagatesPanic pins the crash contract: a panicking task stops
// new claims, the helpers drain, every grant comes back, and the panic
// value re-raises on the caller. At p=4 the panic is raised on a helper
// goroutine, which would crash the process if the pool did not recover
// it there.
func TestDoPropagatesPanic(t *testing.T) {
	for _, p := range []int{1, 4} {
		lim := NewLimiter(p)
		var ran atomic.Int32
		var helperRan sync.Once
		helperUp := make(chan struct{})
		got := recoverFrom(func() {
			Do(lim, 16, func(slot, i int) error {
				if p > 1 {
					if slot == 0 && i == 0 {
						<-helperUp // keep the caller busy so a helper panics
					} else if slot > 0 {
						helperRan.Do(func() { close(helperUp) })
						panic(fmt.Sprintf("kaboom slot=%d", slot))
					}
				} else if i == 2 {
					panic("kaboom slot=0")
				}
				ran.Add(1)
				return nil
			})
		})
		if got == nil || !strings.Contains(fmt.Sprint(got), "kaboom") {
			t.Fatalf("p=%d: recovered %v, want the task's panic value", p, got)
		}
		if n := ran.Load(); n >= 16 {
			t.Fatalf("p=%d: all %d tasks ran despite a panic stopping claims", p, n)
		}
		if free := freeSlots(lim); p > 1 && free != p-1 {
			t.Fatalf("p=%d: %d grants free after a panic, want %d", p, free, p-1)
		}
	}
}

// orderedProbe drives Ordered over n indexes at a worker count and
// records what a correct pipeline must guarantee: commits in ascending
// order, each index produced once, and no claim further than the window
// ahead of the commit point.
type orderedProbe struct {
	t         *testing.T
	workers   int
	window    int
	started   atomic.Int64
	committed atomic.Int64 // commits so far = the next index to commit
	produced  []atomic.Int32
	commits   []int // ascending if correct; written under Ordered's lock
}

func newOrderedProbe(t *testing.T, workers, n int) *orderedProbe {
	return &orderedProbe{t: t, workers: workers, window: 2 * workers, produced: make([]atomic.Int32, n)}
}

func (p *orderedProbe) produce(slot, i int) (int, error) {
	p.started.Add(1)
	p.produced[i].Add(1)
	if ahead := int64(i) - p.committed.Load(); ahead >= int64(p.window) {
		p.t.Errorf("workers=%d: index %d claimed %d ahead of the commit point, window %d", p.workers, i, ahead, p.window)
	}
	// Uneven task times, so results complete out of order.
	time.Sleep(time.Duration((i*7)%5) * 50 * time.Microsecond)
	return i * i, nil
}

func (p *orderedProbe) commit(i, r int) error {
	if r != i*i {
		p.t.Errorf("commit(%d) got result %d, want %d", i, r, i*i)
	}
	p.commits = append(p.commits, i)
	p.committed.Add(1)
	return nil
}

// holdHead makes index 0 wait until the rest of the window has been
// claimed, then a little longer, so the other workers reach a full
// window and must wait. A pipeline that does not wait claims past the
// window meanwhile, which produce reports.
func (p *orderedProbe) holdHead(i int) {
	if i != 0 || p.workers < 2 {
		return
	}
	rest := int64(p.window - 1)
	for p.started.Load() < rest {
		time.Sleep(50 * time.Microsecond)
	}
	deadline := time.Now().Add(50 * time.Millisecond)
	for time.Now().Before(deadline) && p.started.Load() == rest {
		time.Sleep(50 * time.Microsecond)
	}
}

func TestOrderedCommitsInOrderWithinWindow(t *testing.T) {
	const n = 300
	for _, workers := range []int{1, 2, 8} {
		lim := NewLimiter(workers)
		p := newOrderedProbe(t, workers, n)
		var stalls int64
		err := waitFor(t, fmt.Sprintf("workers=%d", workers), func() (err error) {
			stalls, err = Ordered(lim, n, func(slot, i int) (int, error) {
				if slot < 0 || slot >= workers {
					t.Errorf("slot %d outside [0, %d)", slot, workers)
				}
				p.holdHead(i)
				return p.produce(slot, i)
			}, p.commit)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(p.commits) != n {
			t.Fatalf("workers=%d: %d commits, want %d", workers, len(p.commits), n)
		}
		for k, i := range p.commits {
			if i != k {
				t.Fatalf("workers=%d: commit #%d was index %d", workers, k, i)
			}
			if c := p.produced[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d produced %d times", workers, i, c)
			}
		}
		if workers == 1 && stalls != 0 {
			t.Fatalf("inline run reported %d stalls", stalls)
		}
		if workers > 1 && stalls == 0 {
			t.Fatalf("workers=%d: a held head stalled no claim", workers)
		}
		if free := freeSlots(lim); workers > 1 && free != workers-1 {
			t.Fatalf("workers=%d: %d grants free after Ordered, want %d", workers, free, workers-1)
		}
	}
	if s, err := Ordered(NewLimiter(4), 0, func(int, int) (int, error) {
		t.Error("produce ran at n=0")
		return 0, nil
	}, func(int, int) error { return nil }); s != 0 || err != nil {
		t.Fatalf("n=0: stalls=%d err=%v", s, err)
	}
}

// TestOrderedFailureReleasesWaiters fails the head index while the
// other workers wait on a full window: whether produce or commit fails,
// by error or by panic, Ordered must release the waiting claims, stop,
// commit nothing past the failure, and report it — all before the
// test's deadlock timeout.
func TestOrderedFailureReleasesWaiters(t *testing.T) {
	const n = 200
	for _, workers := range []int{1, 2, 8} {
		for _, stage := range []string{"produce", "commit"} {
			for _, kind := range []string{"error", "panic"} {
				name := fmt.Sprintf("workers=%d %s %s", workers, stage, kind)
				lim := NewLimiter(workers)
				p := newOrderedProbe(t, workers, n)
				fail := func() error {
					if kind == "panic" {
						panic("kaboom " + stage)
					}
					return errors.New("boom " + stage)
				}
				var err error
				got := waitFor(t, name, func() any {
					return recoverFrom(func() {
						_, err = Ordered(lim, n, func(slot, i int) (int, error) {
							p.holdHead(i)
							r, _ := p.produce(slot, i)
							if stage == "produce" && i == 0 {
								return 0, fail()
							}
							return r, nil
						}, func(i, r int) error {
							if stage == "commit" && i == 0 {
								return fail()
							}
							return p.commit(i, r)
						})
					})
				})
				if kind == "panic" {
					if got == nil || got != "kaboom "+stage {
						t.Fatalf("%s: recovered %v, want the panic value", name, got)
					}
				} else if got != nil || err == nil || err.Error() != "boom "+stage {
					t.Fatalf("%s: err = %v (panic %v), want the failure", name, err, got)
				}
				if len(p.commits) != 0 {
					t.Fatalf("%s: committed %v past a failed head", name, p.commits)
				}
				if s := p.started.Load(); s >= n {
					t.Fatalf("%s: all %d indexes claimed despite the failure", name, s)
				}
				if free := freeSlots(lim); workers > 1 && free != workers-1 {
					t.Fatalf("%s: %d grants free, want %d", name, free, workers-1)
				}
			}
		}
	}
}
