package query

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"cure/internal/obsv"
)

// TestForEachPropagatesPanic pins the query frame's error and crash
// contract: a consumer error ends the query with that error, recorded in
// the tracker ring, with nothing left in flight; a panic under Query
// reaches the caller as an *obsv.PanicError naming the query id, op and
// node.
func TestForEachPropagatesPanic(t *testing.T) {
	dir, _, _ := buildPredCube(t, false)
	reg := obsv.NewRegistry()
	tracker := obsv.NewQueryTracker(reg, 32)
	eng, err := Open(dir, Options{CacheFraction: 1, PinAggregates: true, Metrics: reg, Queries: tracker})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	s := Spec{Node: eng.Enum().Encode([]int{0, 0}), Where: []Predicate{{Dim: 1, Level: 0, Lo: 0, Hi: 3}}}

	cancel := errors.New("consumer gave up")
	if err := eng.Query(Spec{Node: s.Node}, func(Row) error { return cancel }); !errors.Is(err, cancel) {
		t.Fatalf("err = %v, want %v", err, cancel)
	}
	if n := len(tracker.Inflight()); n != 0 {
		t.Fatalf("%d queries in flight after a failed one", n)
	}
	recent := tracker.Recent()
	if len(recent) != 1 || recent[0].Err != cancel.Error() || recent[0].Op != "node" {
		t.Fatalf("tracker ring = %+v, want the failed node query", recent)
	}

	var recovered any
	func() {
		defer func() { recovered = recover() }()
		eng.Query(s, func(Row) error { panic("kaboom") })
	}()
	pe, ok := recovered.(*obsv.PanicError)
	if !ok {
		t.Fatalf("recovered %T %v, want *obsv.PanicError", recovered, recovered)
	}
	for _, want := range []string{"query id=", "op=where", "node=" + eng.nodeName(s.Node)} {
		if !strings.Contains(pe.Context, want) {
			t.Errorf("panic context %q lacks %q", pe.Context, want)
		}
	}
	if fmt.Sprint(pe.Value) != "kaboom" {
		t.Errorf("panic value = %v", pe.Value)
	}
	// The engine keeps answering after both.
	var rows int
	if err := eng.Query(s, func(Row) error { rows++; return nil }); err != nil || rows == 0 {
		t.Fatalf("query after the failures: %d rows, err %v", rows, err)
	}
}

// TestRecoveredPanicEndsQuery: a panic under Query that the caller
// recovers, as an HTTP handler does, still completes the query — nothing
// stays in flight, the query.inflight gauge is back at 0, and the tracker
// ring records the panic as the query's error.
func TestRecoveredPanicEndsQuery(t *testing.T) {
	dir, _, _ := buildPredCube(t, false)
	reg := obsv.NewRegistry()
	tracker := obsv.NewQueryTracker(reg, 32)
	eng, err := Open(dir, Options{CacheFraction: 1, Metrics: reg, Queries: tracker})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the panic did not reach the caller")
			}
		}()
		eng.Query(Spec{Node: eng.Enum().Encode([]int{0, 0})}, func(Row) error { panic("kaboom") })
	}()
	if n := len(tracker.Inflight()); n != 0 {
		t.Fatalf("%d queries in flight after a recovered panic", n)
	}
	if v := reg.Gauge("query.inflight").Value(); v != 0 {
		t.Fatalf("query.inflight = %d, want 0", v)
	}
	if recent := tracker.Recent(); len(recent) != 1 || !strings.Contains(recent[0].Err, "kaboom") {
		t.Fatalf("tracker ring = %+v, want the panicked query with its panic as the error", recent)
	}
}
