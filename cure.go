// Package cure is a from-scratch Go implementation of CURE ("CURE for
// Cubes: Cubing Using a ROLAP Engine", Morfonios & Ioannidis, VLDB 2006):
// a ROLAP data-cube construction method that handles dimension
// hierarchies end to end — a hierarchical execution plan with pipelined
// shared sorting, external partitioning for fact tables larger than
// memory, and a redundancy-eliminating relational storage format (trivial
// tuples, normal tuples, and common-aggregate tuples with a shared
// AGGREGATES relation).
//
// This root package is a thin facade over the implementation packages:
//
//   - internal/hierarchy — dimensions, levels, roll-up maps
//   - internal/relation  — fact tables and their binary persistence
//   - internal/core      — the CURE algorithm and its variants
//   - internal/query     — the one query op, Engine.Query(Spec), over
//     materialized cubes
//   - internal/gen       — benchmark dataset generators
//   - internal/bench     — the paper's experiment suite
//
// Quick start:
//
//	stats, err := cure.Build(cure.BuildOptions{
//	    Dir:      "cube/",
//	    FactPath: "sales.bin",
//	    Hier:     schema,
//	    AggSpecs: []cure.AggSpec{{Func: cure.AggSum, Measure: 0}},
//	})
//	eng, err := cure.OpenCube("cube/")
//	err = eng.Query(cure.Spec{Node: id}, func(row cure.Row) error { ... })
//	err = eng.Query(cure.Spec{Node: id, Where: preds, MinCount: 10}, fn)
//
// See the runnable examples in example_test.go and the experiment
// harness in cmd/cubebench.
package cure

import (
	"io"

	"cure/internal/core"
	"cure/internal/lattice"
	"cure/internal/obsv"
	"cure/internal/query"
	"cure/internal/relation"
)

// Re-exported building blocks of the public API.
type (
	// BuildOptions configures a cube build; see core.Options.
	BuildOptions = core.Options
	// BuildStats reports a completed build.
	BuildStats = core.BuildStats
	// AggSpec defines one aggregate (function + measure column).
	AggSpec = relation.AggSpec
	// FactTable is the in-memory columnar fact table.
	FactTable = relation.FactTable
	// Engine answers queries over a cube directory.
	Engine = query.Engine
	// Row is one query result tuple.
	Row = query.Row
	// Spec is one query: a node, optional predicates, an optional
	// iceberg threshold; see Engine.Query.
	Spec = query.Spec
	// Predicate restricts a Spec to a code range of one dimension level.
	Predicate = query.Predicate
	// NodeID identifies a lattice node.
	NodeID = lattice.NodeID
	// QueryOptions configures cache behaviour of a query engine.
	QueryOptions = query.Options
	// Registry collects counters, gauges, histograms, and phase spans
	// when attached to BuildOptions.Metrics or QueryOptions.Metrics.
	Registry = obsv.Registry
	// MetricsSnapshot is a point-in-time copy of a Registry's contents.
	MetricsSnapshot = obsv.Snapshot
	// TraceWriter streams JSONL plan-traversal events during a build.
	TraceWriter = obsv.TraceWriter
	// History samples a registry's runtime memory, budget crossings and
	// scalar metrics on one clock into a fixed ring; see StartHistory.
	History = obsv.History
	// TelemetryServer serves /metrics, /healthz, /progress, and pprof
	// for a registry; see StartTelemetry.
	TelemetryServer = obsv.Server
	// TelemetryOptions configures a TelemetryServer.
	TelemetryOptions = obsv.ServerOptions
)

// Aggregate functions.
const (
	AggSum   = relation.AggSum
	AggCount = relation.AggCount
	AggMin   = relation.AggMin
	AggMax   = relation.AggMax
)

// Build constructs a cube from a fact table on disk, choosing between the
// in-memory and externally partitioned paths by the memory budget.
func Build(opts BuildOptions) (*BuildStats, error) { return core.Build(opts) }

// BuildFromTable persists an in-memory fact table into the cube directory
// and cubes it in memory.
func BuildFromTable(t *FactTable, opts BuildOptions) (*BuildStats, error) {
	return core.BuildFromTable(t, opts)
}

// OpenCube opens a cube directory for querying with full caching (the
// paper's recommended configuration).
func OpenCube(dir string) (*Engine, error) { return query.OpenDefault(dir) }

// OpenCubeWith opens a cube with explicit cache settings.
func OpenCubeWith(dir string, opts QueryOptions) (*Engine, error) { return query.Open(dir, opts) }

// NewMetrics creates an observability registry to attach to
// BuildOptions.Metrics or QueryOptions.Metrics.
func NewMetrics() *Registry { return obsv.NewRegistry() }

// NewTrace creates a JSONL trace sink; attach it to a registry with
// Registry.SetTrace to stream plan-traversal events during builds.
func NewTrace(w io.Writer) *TraceWriter { return obsv.NewTraceWriter(w) }

// WriteMetrics renders a registry snapshot in Prometheus text exposition
// format (version 0.0.4).
func WriteMetrics(w io.Writer, s *MetricsSnapshot) error { return obsv.WriteProm(w, s) }

// StartHistory begins sampling the registry every 250ms: runtime memory
// into the runtime.* gauges, crossings of the build's memory budget, and
// one point of every counter and gauge. Stop it with History.Stop; pass
// it to TelemetryOptions.History to serve /metrics/history.
func StartHistory(r *Registry) *History { return obsv.StartHistory(r) }

// StartTelemetry serves /metrics, /healthz, /progress, and /debug/pprof
// for the registry on addr (e.g. "127.0.0.1:9090"; ":0" picks a free
// port, see TelemetryServer.Addr). Close it with TelemetryServer.Close.
func StartTelemetry(addr string, r *Registry, opts TelemetryOptions) (*TelemetryServer, error) {
	return obsv.StartServer(addr, r, opts)
}
