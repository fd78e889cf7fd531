package obsv

import (
	"sync"
	"sync/atomic"
	"time"
)

// Span is one phase of a hierarchical execution: it carries wall time
// (start to End) and the rows/bytes that moved through the phase.
// Children nest (build → partition → node → sort); fields are atomic so
// concurrent partition workers may report into sibling spans. The nil
// Span is a valid no-op and hands out nil children.
type Span struct {
	reg    *Registry
	parent *Span
	name   string
	start  time.Time
	nanos  atomic.Int64 // running total; set once at End for ended spans

	rowsIn       atomic.Int64
	rowsOut      atomic.Int64
	bytesRead    atomic.Int64
	bytesWritten atomic.Int64

	mu       sync.Mutex
	children []*Span
	ended    bool
}

// maxRetainedRootSpans bounds how many root spans a registry keeps for
// snapshotting. Builds open a handful of root spans, but a long-lived
// query engine opens one per query; past the cap, spans still run, time
// themselves, and emit trace events — they are just not retained (the
// obsv.spans_dropped counter records how many).
const maxRetainedRootSpans = 4096

// StartSpan opens a new root span (nil when r is nil).
func (r *Registry) StartSpan(name string) *Span {
	if r == nil {
		return nil
	}
	s := &Span{reg: r, name: name, start: time.Now()}
	r.mu.Lock()
	retained := len(r.spans) < maxRetainedRootSpans
	if retained {
		r.spans = append(r.spans, s)
	}
	r.mu.Unlock()
	r.current.Store(s)
	if !retained {
		r.Counter("obsv.spans_dropped").Inc()
	}
	return s
}

// Child opens a sub-span (nil when s is nil).
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{reg: s.reg, parent: s, name: name, start: time.Now()}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	s.reg.current.Store(c)
	return c
}

// End closes the span, freezing its elapsed time. Ending twice is a
// no-op. If the registry has a trace sink attached, a span event is
// emitted.
func (s *Span) End() {
	if s == nil {
		return
	}
	elapsed := int64(time.Since(s.start))
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	// The frozen duration is published before the ended flag, under the
	// same lock that Elapsed and snapshot take: a concurrent Snapshot
	// (the /metrics and /progress endpoints call it mid-build) either
	// sees a running span or a fully frozen one, never ended-with-zero.
	s.nanos.Store(elapsed)
	s.ended = true
	s.mu.Unlock()
	s.reg.current.CompareAndSwap(s, s.parent)
	if tr := s.reg.Trace(); tr != nil {
		tr.Emit(SpanEvent{
			Ev:           "span",
			Span:         s.Path(),
			ElapsedUs:    s.nanos.Load() / 1e3,
			RowsIn:       s.rowsIn.Load(),
			RowsOut:      s.rowsOut.Load(),
			BytesRead:    s.bytesRead.Load(),
			BytesWritten: s.bytesWritten.Load(),
		})
	}
}

// Path returns the slash-joined span path from the root ("" for nil).
func (s *Span) Path() string {
	if s == nil {
		return ""
	}
	if s.parent == nil {
		return s.name
	}
	return s.parent.Path() + "/" + s.name
}

// AddRowsIn accrues rows entering the phase.
func (s *Span) AddRowsIn(n int64) {
	if s != nil {
		s.rowsIn.Add(n)
	}
}

// AddRowsOut accrues rows leaving the phase.
func (s *Span) AddRowsOut(n int64) {
	if s != nil {
		s.rowsOut.Add(n)
	}
}

// AddBytesRead accrues bytes read during the phase.
func (s *Span) AddBytesRead(n int64) {
	if s != nil {
		s.bytesRead.Add(n)
	}
}

// AddBytesWritten accrues bytes written during the phase.
func (s *Span) AddBytesWritten(n int64) {
	if s != nil {
		s.bytesWritten.Add(n)
	}
}

// Children returns a copy of the span's child list (nil for the nil
// Span).
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Span{}, s.children...)
}

// SpanSnapshot is the exported state of one span subtree. Snapshots may
// be taken mid-build (the /metrics and /progress endpoints do): a span
// still running carries Running=true, a zero EndTime, and its elapsed
// time so far; an ended span carries its frozen end time and duration.
type SpanSnapshot struct {
	Name         string         `json:"name"`
	StartTime    time.Time      `json:"start_time"`
	EndTime      time.Time      `json:"end_time,omitempty"` // zero while running
	Running      bool           `json:"running,omitempty"`
	ElapsedSec   float64        `json:"elapsed_sec"`
	RowsIn       int64          `json:"rows_in,omitempty"`
	RowsOut      int64          `json:"rows_out,omitempty"`
	BytesRead    int64          `json:"bytes_read,omitempty"`
	BytesWritten int64          `json:"bytes_written,omitempty"`
	Children     []SpanSnapshot `json:"children,omitempty"`
}

func (s *Span) snapshot() SpanSnapshot {
	s.mu.Lock()
	ended := s.ended
	s.mu.Unlock()
	ss := SpanSnapshot{
		Name:         s.name,
		StartTime:    s.start,
		Running:      !ended,
		RowsIn:       s.rowsIn.Load(),
		RowsOut:      s.rowsOut.Load(),
		BytesRead:    s.bytesRead.Load(),
		BytesWritten: s.bytesWritten.Load(),
	}
	if ended {
		d := time.Duration(s.nanos.Load())
		ss.ElapsedSec = d.Seconds()
		ss.EndTime = s.start.Add(d)
	} else {
		ss.ElapsedSec = time.Since(s.start).Seconds()
	}
	for _, c := range s.Children() {
		ss.Children = append(ss.Children, c.snapshot())
	}
	return ss
}
