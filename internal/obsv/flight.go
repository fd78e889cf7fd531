package obsv

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"
)

// The flight recorder is the crash-time half of the observability
// plane: a FlightRecorder attached to a registry dumps a self-contained
// diagnostic bundle directory on trigger — a worker or query panic,
// SIGQUIT/SIGUSR1, a memory-budget crossing, or an on-demand
// /debug/bundle request. Each bundle holds enough state to reconstruct
// the incident offline (`curectl doctor` reads one back): the metrics
// snapshot and history window, the recent trace tail, the query
// tracker's in-flight table and completion ring, a full goroutine dump,
// a heap profile, and the process's flags/buildinfo. Writing a bundle
// is best-effort file by file: a failed member is recorded in the
// manifest rather than aborting the rest.

// Bundle member filenames. DESIGN.md §10 documents the format.
const (
	BundleManifest   = "bundle.json"
	BundleMetrics    = "metrics.json"
	BundleHistory    = "history.json"
	BundleQueries    = "queries.json"
	BundleGoroutines = "goroutines.txt"
	BundleHeap       = "heap.pprof"
	BundleTraceTail  = "trace_tail.jsonl"
	BundleStack      = "stack.txt"
)

// BundleInfo is the bundle.json manifest: why and when the bundle was
// written, by which process, and which members made it to disk.
type BundleInfo struct {
	Time      time.Time `json:"time"`
	Reason    string    `json:"reason"`
	Context   string    `json:"context,omitempty"`
	Panic     string    `json:"panic,omitempty"`
	PID       int       `json:"pid"`
	GoVersion string    `json:"go_version"`
	Args      []string  `json:"args,omitempty"`
	Files     []string  `json:"files"`
	// Errors lists members that failed to write, as "file: error".
	Errors []string `json:"errors,omitempty"`
}

// bundleQueriesDoc mirrors the /queries document inside a bundle.
type bundleQueriesDoc struct {
	Inflight []InflightQuery `json:"inflight"`
	Recent   []QueryRecord   `json:"recent"`
}

// FlightRecorder writes diagnostic bundles into a directory. Attach one
// to a registry with SetFlight; panic-capture wrappers and signal
// handlers find it there. The nil FlightRecorder is a valid no-op whose
// Trigger returns "".
type FlightRecorder struct {
	dir string
	reg *Registry

	mu      sync.Mutex
	seq     int
	once    map[string]bool // reasons already bundled via TriggerOnce
	history *History
	queries *QueryTracker
}

// NewFlightRecorder creates a recorder writing bundles under dir
// (created on first trigger). reg supplies the metrics snapshot and the
// trace tail; Attach wires the optional sources.
func NewFlightRecorder(dir string, reg *Registry) *FlightRecorder {
	return &FlightRecorder{dir: dir, reg: reg, once: map[string]bool{}}
}

// Attach wires the recorder's optional data sources; nil arguments
// leave the corresponding member out of future bundles.
func (f *FlightRecorder) Attach(h *History, q *QueryTracker) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.history = h
	f.queries = q
}

// Trigger writes one bundle and returns its directory path ("" when f
// is nil or the bundle directory cannot be created). reason is a short
// machine token ("panic", "sigquit", "mem_budget", "http", ...); note
// is free-form context for the manifest.
func (f *FlightRecorder) Trigger(reason, note string) string {
	return f.write(reason, note, "", nil)
}

// TriggerOnce writes a bundle the first time each reason fires and is a
// no-op (returning "") on repeats — the mem-budget crossing can flap,
// and one bundle per cause is enough.
func (f *FlightRecorder) TriggerOnce(reason, note string) string {
	if f == nil {
		return ""
	}
	f.mu.Lock()
	fired := f.once[reason]
	f.once[reason] = true
	f.mu.Unlock()
	if fired {
		return ""
	}
	return f.write(reason, note, "", nil)
}

// TriggerPanic writes a bundle for a captured panic, embedding the
// panic value and capture context in the manifest and the captured
// stack as stack.txt.
func (f *FlightRecorder) TriggerPanic(pe *PanicError) string {
	if f == nil || pe == nil {
		return ""
	}
	return f.write("panic", pe.Context, fmt.Sprint(pe.Value), pe.Stack)
}

func (f *FlightRecorder) write(reason, note, panicMsg string, stack []byte) string {
	if f == nil {
		return ""
	}
	f.mu.Lock()
	f.seq++
	seq := f.seq
	hist, queries := f.history, f.queries
	f.mu.Unlock()

	// One last history point so the final window ends at the incident.
	// It skips the budget check: a crossing found here would write a
	// second bundle from inside this one, while a crashing process dies.
	hist.record(false)

	now := time.Now()
	dir := filepath.Join(f.dir, fmt.Sprintf("bundle-%s-%03d-%s",
		now.UTC().Format("20060102T150405Z"), seq, reason))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return ""
	}

	info := BundleInfo{
		Time:      now,
		Reason:    reason,
		Context:   note,
		Panic:     panicMsg,
		PID:       os.Getpid(),
		GoVersion: runtime.Version(),
		Args:      os.Args,
	}
	member := func(name string, write func(*os.File) error) {
		path := filepath.Join(dir, name)
		fh, err := os.Create(path)
		if err == nil {
			err = write(fh)
			if cerr := fh.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			os.Remove(path)
			info.Errors = append(info.Errors, fmt.Sprintf("%s: %v", name, err))
			return
		}
		info.Files = append(info.Files, name)
	}
	jsonMember := func(v any) func(*os.File) error {
		return func(fh *os.File) error {
			enc := json.NewEncoder(fh)
			enc.SetIndent("", " ")
			return enc.Encode(v)
		}
	}

	member(BundleMetrics, jsonMember(f.reg.Snapshot()))
	if hist != nil {
		member(BundleHistory, jsonMember(hist.Doc()))
	}
	if queries != nil {
		doc := bundleQueriesDoc{Inflight: queries.Inflight(), Recent: queries.Recent()}
		if doc.Inflight == nil {
			doc.Inflight = []InflightQuery{}
		}
		if doc.Recent == nil {
			doc.Recent = []QueryRecord{}
		}
		member(BundleQueries, jsonMember(doc))
	}
	member(BundleGoroutines, func(fh *os.File) error {
		return pprof.Lookup("goroutine").WriteTo(fh, 2)
	})
	member(BundleHeap, func(fh *os.File) error {
		return pprof.Lookup("heap").WriteTo(fh, 0)
	})
	if tail := f.reg.Trace().Tail(); len(tail) > 0 {
		member(BundleTraceTail, func(fh *os.File) error {
			for _, line := range tail {
				if _, err := fh.Write(line); err != nil {
					return err
				}
				if _, err := fh.Write([]byte("\n")); err != nil {
					return err
				}
			}
			return nil
		})
	}
	if len(stack) > 0 {
		member(BundleStack, func(fh *os.File) error {
			_, err := fh.Write(stack)
			return err
		})
	}

	member(BundleManifest, jsonMember(&info))
	return dir
}

// SetFlight attaches (or detaches, with nil) the registry's flight
// recorder; panic wrappers, the history's budget check, and the
// telemetry server find it here.
func (r *Registry) SetFlight(f *FlightRecorder) {
	if r != nil {
		r.flight.Store(f)
	}
}

// Flight returns the attached flight recorder, nil when absent or r is
// nil.
func (r *Registry) Flight() *FlightRecorder {
	if r == nil {
		return nil
	}
	return r.flight.Load()
}

// PanicError wraps a panic captured in an instrumented worker: the
// original panic value, the stack of the panicking goroutine, the
// capture-site context ("cube worker slot=1 N_0 node=Product.ALL,Store.ALL",
// "query id=17 op=node"), and the bundle directory the flight recorder
// wrote, when one was attached. CapturePanic re-panics with it, so an
// uncaught worker panic still crashes the process — but the crash
// output names the culprit and the wreckage is already on disk.
type PanicError struct {
	Context string
	Value   any
	Stack   []byte
	Bundle  string
}

// Error renders the panic with its capture context.
func (e *PanicError) Error() string {
	msg := fmt.Sprintf("panic in %s: %v", e.Context, e.Value)
	if e.Bundle != "" {
		msg += fmt.Sprintf(" (diagnostic bundle: %s)", e.Bundle)
	}
	return msg
}

// CapturePanic is the deferred panic-capture hook for instrumented
// goroutines and call sites:
//
//	defer obsv.CapturePanic(reg, func() string { return "cube worker " + path })
//
// On panic it wraps the value in a *PanicError carrying ctx() and the
// panicking goroutine's stack, asks reg's flight recorder (if any) to
// write a diagnostic bundle, and re-panics with the wrapper. A value
// that is already a *PanicError (re-panicked across a layer boundary)
// passes through unwrapped — but if its bundle is still empty and this
// layer has a recorder, the bundle is written here, so panics crossing
// from a registry-less inner layer still get recorded. ctx may be nil.
// Note recover() semantics: CapturePanic itself must be the deferred
// function, not called from inside one.
func CapturePanic(reg *Registry, ctx func() string) {
	if v := recover(); v != nil {
		panic(wrapPanic(reg, ctx, v))
	}
}

// CapturePanicEnd is CapturePanic for an operation that keeps a record of
// its own: before re-raising, it hands the *PanicError to end, so a
// caller that recovers the panic finds the record closed. The bundle is
// written first, while the operation is still open.
func CapturePanicEnd(reg *Registry, ctx func() string, end func(error)) {
	if v := recover(); v != nil {
		pe := wrapPanic(reg, ctx, v)
		end(pe)
		panic(pe)
	}
}

// wrapPanic is the capture both hooks share: wrap v with ctx() and the
// stack, and write the bundle.
func wrapPanic(reg *Registry, ctx func() string, v any) *PanicError {
	if pe, ok := v.(*PanicError); ok {
		if pe.Bundle == "" {
			pe.Bundle = reg.Flight().TriggerPanic(pe)
		}
		return pe
	}
	pe := &PanicError{Value: v}
	if ctx != nil {
		pe.Context = ctx()
	}
	stack := make([]byte, 64<<10)
	pe.Stack = stack[:runtime.Stack(stack, false)]
	pe.Bundle = reg.Flight().TriggerPanic(pe)
	return pe
}
