package obsv

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
)

// TraceWriter is a line-oriented JSON event sink: every Emit marshals
// one event and appends one line. It is safe for concurrent use (a build
// may run parallel partition workers) and buffers internally; call Flush
// (or Close the underlying file after Flush) when done. The nil
// TraceWriter is a valid no-op.
type TraceWriter struct {
	mu       sync.Mutex
	w        *bufio.Writer
	err      error
	max      int64 // byte budget, 0 = unlimited
	written  int64
	cDropped *Counter

	// Tail ring of the most recent marshalled event lines (without the
	// trailing newline), retained even for events dropped at the byte
	// cap: a diagnostic bundle wants the trace leading up to the
	// incident, which is exactly the part a capped sink no longer has.
	tail     [][]byte
	tailNext int
	tailFull bool
}

// NewTraceWriter wraps w as a JSONL trace sink.
func NewTraceWriter(w io.Writer) *TraceWriter {
	return &TraceWriter{w: bufio.NewWriterSize(w, 1<<16)}
}

// SetMaxBytes caps the total bytes the sink will ever write (0 =
// unlimited). Events past the cap are dropped and counted instead of
// written, so a long-running -serve-hold session cannot fill the disk.
func (t *TraceWriter) SetMaxBytes(n int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.max = n
}

// SetDropCounter attaches a registry counter (conventionally
// "trace.dropped") incremented once per event dropped at the cap.
func (t *TraceWriter) SetDropCounter(c *Counter) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cDropped = c
}

// SetTailCap sizes the in-memory tail ring of recent event lines (0
// disables it). The ring holds marshalled lines, so memory is bounded
// by n times the typical event size.
func (t *TraceWriter) SetTailCap(n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if n <= 0 {
		t.tail = nil
	} else {
		t.tail = make([][]byte, n)
	}
	t.tailNext = 0
	t.tailFull = false
}

// Tail returns the retained recent event lines in emission order
// (oldest first), without trailing newlines. Nil when no tail ring is
// configured. The lines are the marshalled bytes themselves; callers
// must not mutate them.
func (t *TraceWriter) Tail() [][]byte {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.tail == nil {
		return nil
	}
	if !t.tailFull {
		return append([][]byte{}, t.tail[:t.tailNext]...)
	}
	out := make([][]byte, 0, len(t.tail))
	out = append(out, t.tail[t.tailNext:]...)
	return append(out, t.tail[:t.tailNext]...)
}

// Emit appends one event as a JSON line. Marshal or write errors are
// sticky and reported by Flush; tracing never fails a build. Past the
// SetMaxBytes budget, events are dropped (and counted) instead.
func (t *TraceWriter) Emit(ev any) {
	if t == nil {
		return
	}
	data, err := json.Marshal(ev)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	if err != nil {
		t.err = err
		return
	}
	if t.tail != nil {
		t.tail[t.tailNext] = data
		t.tailNext++
		if t.tailNext == len(t.tail) {
			t.tailNext = 0
			t.tailFull = true
		}
	}
	if t.max > 0 && t.written+int64(len(data))+1 > t.max {
		t.cDropped.Inc()
		return
	}
	if _, err := t.w.Write(data); err != nil {
		t.err = err
		return
	}
	if err := t.w.WriteByte('\n'); err != nil {
		t.err = err
		return
	}
	t.written += int64(len(data)) + 1
}

// Flush drains the buffer and returns the first error encountered, if
// any.
func (t *TraceWriter) Flush() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.w.Flush(); err != nil && t.err == nil {
		t.err = err
	}
	return t.err
}

// Trace event vocabulary. Every event carries Ev as its discriminator;
// the schema is documented in DESIGN.md §Observability.

// NodeEvent records one ExecutePlan visit: the lattice node whose tuple
// was computed from a segment of Rows source rows. Depth is the
// recursion depth (number of grouped dimensions so far).
type NodeEvent struct {
	Ev    string `json:"ev"` // "node"
	Node  int64  `json:"node"`
	Rows  int    `json:"rows"`
	Depth int    `json:"depth"`
}

// EdgeEvent records one FollowEdge execution: the plan edge taken into
// the node, whether it was a solid edge (fresh sort) or a dashed edge
// (pipelined refinement of an existing order), and the sort algorithm
// that ran.
type EdgeEvent struct {
	Ev    string `json:"ev"`   // "edge"
	Node  int64  `json:"node"` // target node of the edge
	Edge  string `json:"edge"` // "solid" | "dashed"
	Mode  string `json:"mode"` // "sort" | "pipeline"
	Alg   string `json:"alg"`  // "counting" | "insertion" | "quick" | "none"
	Dim   int    `json:"dim"`
	Level int    `json:"level"`
	Rows  int    `json:"rows"`
}

// SpanEvent records the completion of a phase span.
type SpanEvent struct {
	Ev           string `json:"ev"` // "span"
	Span         string `json:"span"`
	ElapsedUs    int64  `json:"elapsed_us"`
	RowsIn       int64  `json:"rows_in,omitempty"`
	RowsOut      int64  `json:"rows_out,omitempty"`
	BytesRead    int64  `json:"bytes_read,omitempty"`
	BytesWritten int64  `json:"bytes_written,omitempty"`
}

// FlushEvent records one signature-pool flush: occupancy at flush time
// and the NT/CAT split observed.
type FlushEvent struct {
	Ev        string `json:"ev"` // "pool-flush"
	Size      int    `json:"size"`
	NTs       int64  `json:"nts"`
	CatGroups int64  `json:"cat_groups"`
	CatSigs   int64  `json:"cat_sigs"`
	Format    string `json:"format"`
}

// LevelEvent records one candidate considered during partition-level
// selection (§4), with the feasibility verdict. LevelB is the level of
// dimension 1 when the candidate is a pair of levels, and -1 otherwise.
type LevelEvent struct {
	Ev       string `json:"ev"` // "select-level"
	Dim      string `json:"dim"`
	Level    int    `json:"level"`
	LevelB   int    `json:"level_b"`
	Card     int64  `json:"card"`
	Need     int64  `json:"need"`
	NBytes   int64  `json:"n_bytes"`
	NBudget  int64  `json:"n_budget"`
	Feasible bool   `json:"feasible"`
	Reason   string `json:"reason,omitempty"`
}

// PartitionEvent records one partition file produced by the split pass.
type PartitionEvent struct {
	Ev    string `json:"ev"` // "partition"
	Index int    `json:"index"`
	Rows  int64  `json:"rows"`
	Bytes int64  `json:"bytes"`
}

// MemSampleEvent records one history tick: heap occupancy, GC
// state, and goroutine count, tagged with the span path that was running
// when the sample was taken.
type MemSampleEvent struct {
	Ev           string `json:"ev"` // "mem_sample"
	HeapInuse    uint64 `json:"heap_inuse"`
	HeapAlloc    uint64 `json:"heap_alloc"`
	Goroutines   int    `json:"goroutines"`
	NumGC        uint32 `json:"num_gc"`
	GCPauseNanos uint64 `json:"gc_pause_total_ns"`
	Span         string `json:"span,omitempty"`
}

// MemBudgetEvent records the history observing heap-in-use crossing the
// declared memory budget (the build.mem_budget_bytes gauge, set by the
// partitioned build path from Options.MemoryBudget): Dir is "above" when
// the crossing violates the budget and "below" when heap drops back
// under it. §4's budget-adherence claim is externally checkable from
// these events.
type MemBudgetEvent struct {
	Ev        string `json:"ev"` // "mem_budget"
	Dir       string `json:"dir"`
	HeapInuse uint64 `json:"heap_inuse"`
	Budget    int64  `json:"budget"`
	Span      string `json:"span,omitempty"`
}
