package obsv

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// ServerOptions configures the telemetry HTTP server.
type ServerOptions struct {
	// Queries, when set, backs the /queries endpoint with live
	// per-query introspection.
	Queries *QueryTracker
	// History, when set, backs the /metrics/history endpoint with the
	// flight recorder's metric time series.
	History *History
	// Flight, when set, backs the /debug/bundle endpoint: a POST (or
	// GET, for curl convenience) writes a diagnostic bundle on demand.
	Flight *FlightRecorder
}

// Server is the opt-in live telemetry plane of a build or query process:
//
//	GET /metrics          Prometheus text exposition of the registry
//	GET /metrics/history  JSON: the history's points, deltas and rates
//	GET /healthz          liveness ("ok"), or 503 with degraded reasons
//	GET /progress         JSON: progress line and registry snapshot
//	GET /queries          JSON: in-flight queries + recent completed ring
//	GET /debug/bundle     write a flight-recorder bundle now
//	GET /debug/pprof/     the standard pprof handlers
//
// It serves snapshots of a live registry, so everything works mid-build;
// nothing here blocks or slows the instrumented work beyond the snapshot
// cost per request.
type Server struct {
	reg     *Registry
	queries *QueryTracker
	history *History
	flight  *FlightRecorder
	start   time.Time
	ln      net.Listener
	srv     *http.Server
}

// StartServer listens on addr (host:port, ":0" picks a free port) and
// serves the registry's telemetry until Close. An error is returned only
// for listen failures; serve errors after startup are dropped (the
// telemetry plane must never fail the build).
func StartServer(addr string, reg *Registry, opts ServerOptions) (*Server, error) {
	if reg == nil {
		return nil, fmt.Errorf("obsv: serve needs a registry")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		reg:     reg,
		queries: opts.Queries,
		history: opts.History,
		flight:  opts.Flight,
		start:   time.Now(),
		ln:      ln,
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/metrics/history", s.handleHistory)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/progress", s.handleProgress)
	mux.HandleFunc("/queries", s.handleQueries)
	mux.HandleFunc("/debug/bundle", s.handleBundle)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.srv = &http.Server{Handler: mux}
	go s.srv.Serve(ln)
	return s, nil
}

// Addr returns the server's actual listen address (useful with ":0").
func (s *Server) Addr() string {
	if s == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close shuts the server down (no-op on nil).
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	return s.srv.Close()
}

// writeJSON answers with status code and v as indented JSON.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(v)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	WriteProm(w, s.reg.Snapshot())
}

// handleHistory serves the history document: the points plus counter
// deltas and rates over their window.
func (s *Server) handleHistory(w http.ResponseWriter, _ *http.Request) {
	if s.history == nil {
		http.Error(w, "history store not enabled", http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, s.history.Doc())
}

// handleBundle writes a diagnostic bundle on demand and reports its
// path.
func (s *Server) handleBundle(w http.ResponseWriter, _ *http.Request) {
	if s.flight == nil {
		http.Error(w, "flight recorder not enabled (-flight-dir)", http.StatusNotFound)
		return
	}
	dir := s.flight.Trigger("http", "on-demand via /debug/bundle")
	if dir == "" {
		http.Error(w, "bundle write failed", http.StatusInternalServerError)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"bundle": dir})
}

// healthzDoc is the JSON body of a degraded /healthz response.
type healthzDoc struct {
	Status  string   `json:"status"`
	Reasons []string `json:"reasons"`
}

// healthReasons inspects the registry's scalars for degraded
// conditions: trace events dropped at the byte cap, or live heap above
// the declared memory budget. It reads only already-interned
// instruments, so probing health never pollutes /metrics with
// zero-valued entries.
func healthReasons(snap *Snapshot) []string {
	var reasons []string
	if d := snap.Counters["trace.dropped"]; d > 0 {
		reasons = append(reasons, fmt.Sprintf("trace.dropped=%d: trace events lost at -trace-max-bytes cap", d))
	}
	budget := snap.Gauges[BudgetGaugeName]
	heap := snap.Gauges["runtime.heap_inuse_bytes"]
	if budget > 0 && heap > budget {
		reasons = append(reasons, fmt.Sprintf("heap_inuse_bytes=%d exceeds mem_budget_bytes=%d", heap, budget))
	}
	return reasons
}

// handleHealthz reports liveness: 200 "ok" when healthy, 503 with a
// JSON reason list when the process is degraded (trace drops, heap over
// budget).
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	reasons := healthReasons(s.reg.scalars())
	if len(reasons) == 0 {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
		return
	}
	writeJSON(w, http.StatusServiceUnavailable, healthzDoc{Status: "degraded", Reasons: reasons})
}

// progressJSON is the /progress JSON document.
type progressJSON struct {
	ElapsedSec float64   `json:"elapsed_sec"`
	Progress   string    `json:"progress"`
	Snapshot   *Snapshot `json:"snapshot"`
}

func (s *Server) handleProgress(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, progressJSON{
		ElapsedSec: time.Since(s.start).Seconds(),
		Progress:   s.reg.ProgressLine(),
		Snapshot:   s.reg.Snapshot(),
	})
}

// queriesJSON is the /queries document: the live in-flight table plus
// the ring of recently completed query records.
type queriesJSON struct {
	ElapsedSec float64         `json:"elapsed_sec"`
	Inflight   []InflightQuery `json:"inflight"`
	Recent     []QueryRecord   `json:"recent"`
}

func (s *Server) handleQueries(w http.ResponseWriter, _ *http.Request) {
	doc := queriesJSON{
		ElapsedSec: time.Since(s.start).Seconds(),
		Inflight:   s.queries.Inflight(),
		Recent:     s.queries.Recent(),
	}
	if doc.Inflight == nil {
		doc.Inflight = []InflightQuery{}
	}
	if doc.Recent == nil {
		doc.Recent = []QueryRecord{}
	}
	writeJSON(w, http.StatusOK, doc)
}
