package core

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"testing"

	"cure/internal/hierarchy"
	"cure/internal/lattice"
	"cure/internal/obsv"
	"cure/internal/relation"
)

// duplicated returns base with every row twice, so no segment of the
// traversal is a trivial tuple and the plan visits (and materializes)
// every lattice node.
func duplicated(base *relation.FactTable) *relation.FactTable {
	ft := relation.NewFactTable(base.Schema, base.Len()*2)
	dims := make([]int32, len(base.Dims))
	meas := make([]float64, len(base.Measures))
	for r := 0; r < base.Len(); r++ {
		for d := range dims {
			dims[d] = base.Dims[d][r]
		}
		meas = base.MeasureRow(r, meas)
		ft.Append(dims, meas)
		ft.Append(dims, meas)
	}
	return ft
}

// traceEvent is the superset of the JSONL event fields the tests read.
type traceEvent struct {
	Ev   string `json:"ev"`
	Node int64  `json:"node"`
	Edge string `json:"edge"`
	Mode string `json:"mode"`
	Alg  string `json:"alg"`
}

func parseTrace(t *testing.T, buf *bytes.Buffer) []traceEvent {
	t.Helper()
	var events []traceEvent
	dec := json.NewDecoder(bytes.NewReader(buf.Bytes()))
	for dec.More() {
		var ev traceEvent
		if err := dec.Decode(&ev); err != nil {
			t.Fatalf("trace is not valid JSONL: %v", err)
		}
		events = append(events, ev)
	}
	return events
}

func traceNodeSet(events []traceEvent) map[int64]bool {
	nodes := map[int64]bool{}
	for _, ev := range events {
		if ev.Ev == "node" {
			nodes[ev.Node] = true
		}
	}
	return nodes
}

// TestTraceCoversTallestPlanNodes is the golden trace check: an in-memory
// build over a TT-free table must emit node events for exactly the nodes
// of the tallest plan P3 — which covers the entire lattice — and that set
// must agree with the independent lattice enumeration and the manifest.
func TestTraceCoversTallestPlanNodes(t *testing.T) {
	hier := paperHier(t)
	ft := duplicated(randomFact(t, 300, 11))
	reg := obsv.NewRegistry()
	var buf bytes.Buffer
	reg.SetTrace(obsv.NewTraceWriter(&buf))

	dir := t.TempDir()
	stats, err := BuildFromTable(ft, Options{Dir: dir, Hier: hier, AggSpecs: testSpecs(), Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if stats.TTs != 0 {
		t.Fatalf("duplicated table produced %d trivial tuples", stats.TTs)
	}
	if err := reg.Trace().Flush(); err != nil {
		t.Fatal(err)
	}
	events := parseTrace(t, &buf)
	visited := traceNodeSet(events)

	enum := lattice.NewEnum(hier)
	all := enum.AllNodes()
	if len(visited) != len(all) {
		t.Fatalf("trace visited %d distinct nodes, lattice has %d", len(visited), len(all))
	}
	for _, id := range all {
		if !visited[int64(id)] {
			t.Fatalf("trace missing node %d (%s)", id, enum.Name(id))
		}
	}
	// With no trivial tuples, every visited node materializes tuples.
	if stats.NodesMaterialized != len(all) {
		t.Fatalf("materialized %d nodes, want %d", stats.NodesMaterialized, len(all))
	}

	// Edge events carry the plan structure: both edge kinds and both
	// execution modes must appear (P3 has solid and dashed edges), and
	// every event field must be well-formed.
	modes := map[string]bool{}
	for _, ev := range events {
		if ev.Ev != "edge" {
			continue
		}
		if ev.Edge != "solid" && ev.Edge != "dashed" {
			t.Fatalf("edge event with edge=%q", ev.Edge)
		}
		if ev.Mode != "sort" && ev.Mode != "pipeline" {
			t.Fatalf("edge event with mode=%q", ev.Mode)
		}
		modes[ev.Edge] = true
	}
	if !modes["solid"] || !modes["dashed"] {
		t.Fatalf("trace lacks an edge kind: %v", modes)
	}

	// Counters corroborate the trace: segments counted == node events.
	var nodeEvents int64
	for _, ev := range events {
		if ev.Ev == "node" {
			nodeEvents++
		}
	}
	snap := reg.Snapshot()
	if got := snap.Counters["core.segments"]; got != nodeEvents {
		t.Fatalf("core.segments = %d, node events = %d", got, nodeEvents)
	}
	if snap.Counters["core.tt_pruned"] != 0 {
		t.Fatalf("core.tt_pruned = %d, want 0", snap.Counters["core.tt_pruned"])
	}
}

// TestPartitionedBuildObservability is the out-of-core acceptance check,
// on a one-dimension prefix and on a pair: phase spans must account for
// the build's wall time, the partition I/O counters must respect §4's
// 2-reads-1-write bound, and the trace must name the levels the build
// took and still cover the whole lattice across both phases.
func TestPartitionedBuildObservability(t *testing.T) {
	for _, tc := range []struct {
		name   string
		hier   *hierarchy.Schema
		ft     *relation.FactTable
		budget int64
	}{
		{"single", paperHier(t), duplicated(randomFact(t, 400, 23)), 16_000},
		{"pair", pairHier(t), duplicated(pairEquivFact(t, 27)), 5_600},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hier, ft := tc.hier, tc.ft
			dir := t.TempDir()
			factPath := filepath.Join(dir, "fact.bin")
			if err := relation.WriteFactFile(factPath, ft); err != nil {
				t.Fatal(err)
			}
			reg := obsv.NewRegistry()
			var buf bytes.Buffer
			reg.SetTrace(obsv.NewTraceWriter(&buf))

			stats, err := Build(Options{
				Dir:          filepath.Join(dir, "cube"),
				FactPath:     factPath,
				Hier:         hier,
				AggSpecs:     testSpecs(),
				MemoryBudget: tc.budget,
				Metrics:      reg,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !stats.Partitioned || (stats.PartitionLevelB >= 0) != (tc.name == "pair") {
				t.Fatalf("fixture took the wrong path: partitioned=%v levelB=%d", stats.Partitioned, stats.PartitionLevelB)
			}
			if err := reg.Trace().Flush(); err != nil {
				t.Fatal(err)
			}

			// Phase spans: the build root's direct children partition its
			// wall time; their sum must not exceed it and must account for
			// the bulk of BuildStats.Elapsed (the remainder is writer/pool
			// setup).
			snap := reg.Snapshot()
			if len(snap.Spans) != 1 || snap.Spans[0].Name != "build" {
				t.Fatalf("spans = %+v", snap.Spans)
			}
			root := snap.Spans[0]
			names := map[string]bool{}
			var childSum float64
			for _, c := range root.Children {
				childSum += c.ElapsedSec
				names[c.Name] = true
			}
			for _, want := range []string{"load", "partition.split", "partition.cube", "n.cube", "pool.flush", "finalize"} {
				if !names[want] {
					t.Fatalf("missing phase span %q (have %v)", want, names)
				}
			}
			elapsed := stats.Elapsed.Seconds()
			if childSum <= 0 || childSum > elapsed {
				t.Fatalf("phase sum %.6fs outside (0, %.6fs]", childSum, elapsed)
			}
			if childSum < 0.2*elapsed {
				t.Fatalf("phase sum %.6fs accounts for <20%% of Elapsed %.6fs", childSum, elapsed)
			}

			// 2-reads-1-write (§4): R is scanned once by the split and the
			// partitions are re-read once, against one write of the
			// partitions. Partition rows carry an extra row-id, so
			// read/write lands between 1.5 and 2.5 rather than exactly 2.
			read := snap.Counters["partition.bytes_read"]
			written := snap.Counters["partition.bytes_written"]
			if written <= 0 || read <= written {
				t.Fatalf("partition bytes: read=%d written=%d", read, written)
			}
			if ratio := float64(read) / float64(written); ratio < 1.5 || ratio > 2.5 {
				t.Fatalf("read/write ratio = %.2f, want ≈2", ratio)
			}
			if g := snap.Gauges["partition.n_groups"]; g <= 0 {
				t.Fatalf("partition.n_groups = %d, want the groups of every in-memory node", g)
			}

			// The two phases together traverse the full lattice, and with
			// no TTs every node materializes.
			visited := traceNodeSet(parseTrace(t, &buf))
			enum := lattice.NewEnum(hier)
			all := enum.AllNodes()
			if len(visited) != len(all) {
				t.Fatalf("trace visited %d distinct nodes, lattice has %d", len(visited), len(all))
			}
			if stats.NodesMaterialized != len(all) {
				t.Fatalf("materialized %d nodes, want %d", stats.NodesMaterialized, len(all))
			}

			// Partition split events agree with the selection, the
			// selection trace names exactly the levels the build took, and
			// every pool flush left one event.
			var parts, flushes int
			var selected [][2]int
			dec := json.NewDecoder(bytes.NewReader(buf.Bytes()))
			for dec.More() {
				var ev struct {
					Ev       string `json:"ev"`
					Level    int    `json:"level"`
					LevelB   int    `json:"level_b"`
					Feasible bool   `json:"feasible"`
				}
				if err := dec.Decode(&ev); err != nil {
					t.Fatal(err)
				}
				switch ev.Ev {
				case "partition":
					parts++
				case "select-level":
					if ev.Feasible {
						selected = append(selected, [2]int{ev.Level, ev.LevelB})
					}
				case "pool-flush":
					flushes++
				}
			}
			if parts != stats.NumPartitions {
				t.Fatalf("%d partition events, want %d", parts, stats.NumPartitions)
			}
			if took := [2]int{stats.PartitionLevel, stats.PartitionLevelB}; len(selected) != 1 || selected[0] != took {
				t.Fatalf("feasible select-level events at (level, level_b) %v, build partitioned at %v", selected, took)
			}
			if n := snap.Counters["pool.flushes"]; flushes == 0 || int64(flushes) != n {
				t.Fatalf("%d pool-flush events, pool.flushes = %d", flushes, n)
			}

			checkCube(t, filepath.Join(dir, "cube"))
		})
	}
}

// BenchmarkBuildMetricsNil and BenchmarkBuildMetricsAttached compare the
// disabled (nil-registry) instrumentation path against a live registry:
// the nil path must show no measurable overhead over the seed build.
func BenchmarkBuildMetricsNil(b *testing.B) {
	benchmarkBuild(b, nil)
}

func BenchmarkBuildMetricsAttached(b *testing.B) {
	benchmarkBuild(b, obsv.NewRegistry())
}

func benchmarkBuild(b *testing.B, reg *obsv.Registry) {
	hier := paperHier(b)
	ft := randomFact(b, 2000, 5)
	dir := b.TempDir()
	factPath := filepath.Join(dir, "fact.bin")
	if err := relation.WriteFactFile(factPath, ft); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := Options{
			Dir:      filepath.Join(dir, "cube"),
			FactPath: factPath,
			Hier:     hier,
			AggSpecs: testSpecs(),
			Metrics:  reg,
		}
		if _, err := Build(opts); err != nil {
			b.Fatal(err)
		}
	}
}
