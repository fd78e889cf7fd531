// Package par is the module's one worker pool: it runs indexed tasks on
// the calling goroutine plus the helpers a shared Limiter grants, and
// owns claiming, error joining, panic re-raising and the ordered commit
// (DESIGN.md "Workers"). It depends on the standard library only.
package par

import (
	"errors"
	"sync"
	"sync/atomic"
)

// Limiter caps the helper goroutines that the sites sharing it may run
// at once, so total concurrency stays at the requested parallelism
// however the sites nest. The nil *Limiter grants nothing: every call
// then runs its tasks inline on the caller.
type Limiter struct {
	slots chan struct{}
}

// NewLimiter returns a limiter for parallelism workers in all (the
// caller plus parallelism-1 helpers), or nil when that allows no helper.
func NewLimiter(parallelism int) *Limiter {
	if parallelism <= 1 {
		return nil
	}
	l := &Limiter{slots: make(chan struct{}, parallelism-1)}
	for i := 0; i < parallelism-1; i++ {
		l.slots <- struct{}{}
	}
	return l
}

// Slots is the worker-state capacity a site must provision: slot 0 is
// the caller, slots 1..Slots()-1 are helper grants.
func (l *Limiter) Slots() int {
	if l == nil {
		return 1
	}
	return cap(l.slots) + 1
}

// grant claims up to want helper slots without blocking.
func (l *Limiter) grant(want int) int {
	n := 0
	for l != nil && n < want {
		select {
		case <-l.slots:
			n++
		default:
			return n
		}
	}
	return n
}

func (l *Limiter) release() { l.slots <- struct{}{} }

// run executes body(0) on the caller and body(1..helpers) on helper
// goroutines that already hold their grants, and returns once all have
// exited, each helper returning its grant. The first panic from any
// slot calls stop and is re-raised on the caller after the helpers
// drain. A re-raise keeps the value only, so a task whose stack matters
// wraps its panic first (obsv.CapturePanic).
func run(lim *Limiter, helpers int, body func(slot int), stop func()) {
	var (
		wg       sync.WaitGroup
		once     sync.Once
		panicVal any
	)
	guarded := func(slot int) {
		defer func() {
			if v := recover(); v != nil {
				once.Do(func() { panicVal = v })
				stop()
			}
		}()
		body(slot)
	}
	wg.Add(helpers)
	for s := 1; s <= helpers; s++ {
		go func(slot int) {
			defer wg.Done()
			defer lim.release()
			guarded(slot)
		}(s)
	}
	guarded(0)
	wg.Wait()
	if panicVal != nil {
		panic(panicVal)
	}
}

// Do runs task(slot, i) for every i in [0, n). The caller is slot 0;
// up to n-1 helpers join on non-blocking grants. Tasks are claimed from
// a shared counter, so no hand-off can strand a worker. The first error
// stops new claims, tasks in flight finish, and every error is returned
// joined in index order. A panic stops claims too and is re-raised on
// the caller once the helpers have exited. With no grant the tasks run
// in order on the caller.
func Do(lim *Limiter, n int, task func(slot, i int) error) error {
	if n <= 0 {
		return nil
	}
	var (
		next   atomic.Int64
		failed atomic.Bool
		errs   = make([]error, n)
	)
	body := func(slot int) {
		for !failed.Load() {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if err := task(slot, i); err != nil {
				errs[i] = err
				failed.Store(true)
			}
		}
	}
	if helpers := lim.grant(n - 1); helpers > 0 {
		run(lim, helpers, body, func() { failed.Store(true) })
	} else {
		body(0)
	}
	return errors.Join(errs...)
}

// Ordered runs produce(slot, i) for every i in [0, n) like Do and hands
// each result to commit(i, r) in ascending i, under one lock, on
// whichever worker completes the ready prefix; commit's effects thus
// come in the order of one sequential pass at any worker count.
//
// A claim waits while 2 × workers results are uncommitted; stalls
// counts the claims that waited. The lowest uncommitted index is always
// claimed already, so the head never waits and the pipeline cannot
// deadlock. The first error, from produce or commit, stops claims,
// releases waiting ones and drops what is not yet committed; errors are
// returned joined in index order. A panic does the same and is re-raised
// on the caller once the helpers have exited. With no grant, produce and
// commit alternate on the caller with no lock or goroutine.
func Ordered[R any](lim *Limiter, n int, produce func(slot, i int) (R, error), commit func(i int, r R) error) (stalls int64, err error) {
	helpers := lim.grant(n - 1)
	if helpers == 0 {
		for i := 0; i < n; i++ {
			r, err := produce(0, i)
			if err == nil {
				err = commit(i, r)
			}
			if err != nil {
				return 0, err
			}
		}
		return 0, nil
	}
	window := 2 * (helpers + 1)
	var (
		mu              sync.Mutex
		cond            = sync.NewCond(&mu)
		next, committed int
		stopped         bool
		errs            = make([]error, n)
		ring            = make([]R, window) // index i's result waits at i % window
		ready           = make([]bool, window)
	)
	full := func() bool { return !stopped && next < n && next-committed >= window }
	body := func(slot int) {
		mu.Lock()
		defer mu.Unlock()
		for {
			if full() {
				stalls++
				for full() {
					cond.Wait()
				}
			}
			if stopped || next >= n {
				return
			}
			i := next
			next++
			var r R
			var err error
			func() {
				mu.Unlock()
				defer mu.Lock()
				r, err = produce(slot, i)
			}()
			if err != nil {
				errs[i], stopped = err, true
			}
			if !stopped {
				ring[i%window], ready[i%window] = r, true
			}
			for ; !stopped && committed < n && ready[committed%window]; committed++ {
				k := committed % window
				r := ring[k]
				var zero R
				ring[k], ready[k] = zero, false
				if err := commit(committed, r); err != nil {
					errs[committed], stopped = err, true
				}
			}
			cond.Broadcast()
		}
	}
	run(lim, helpers, body, func() {
		mu.Lock()
		stopped = true
		cond.Broadcast()
		mu.Unlock()
	})
	return stalls, errors.Join(errs...)
}
