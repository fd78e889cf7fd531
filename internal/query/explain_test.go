package query

import (
	"strings"
	"testing"

	"cure/internal/obsv"
)

// TestExplainAnalyzeMatchesCounters is the EXPLAIN acceptance check: the
// plan's actuals — zone blocks kept/skipped, bytes read, rows — must
// equal the registry counter deltas attributed to that query, because
// both come from the same per-query tally. It holds for a range
// selection, a slice at a coarser level and an iceberg spec, whose plan
// lists no TT extent because its scan visits none.
func TestExplainAnalyzeMatchesCounters(t *testing.T) {
	dir, _, _ := buildIndexedCube(t, false)
	for _, tc := range []struct {
		name  string
		where []Predicate
		min   float64
	}{
		{"range", []Predicate{{Dim: 0, Level: 0, Lo: 5, Hi: 10}}, 0},
		{"slice", []Predicate{{Dim: 0, Level: 1, Lo: 2, Hi: 2}}, 0},
		{"iceberg", nil, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obsv.NewRegistry()
			tracker := obsv.NewQueryTracker(reg, 8)
			eng, err := Open(dir, Options{CacheFraction: 1, PinAggregates: true, Metrics: reg, Queries: tracker})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			checkExplainAnalyze(t, eng, reg, tracker, Spec{Node: eng.Enum().Encode([]int{0, 0}), Where: tc.where, MinCount: tc.min})
		})
	}
}

// checkExplainAnalyze runs EXPLAIN ANALYZE of s on a fresh engine and
// holds its actuals to the counter deltas, its plan to its actuals, and
// its row count to a direct Query.
func checkExplainAnalyze(t *testing.T, eng *Engine, reg *obsv.Registry, tracker *obsv.QueryTracker, s Spec) {
	t.Helper()
	before := reg.Snapshot().Counters
	plan, err := eng.Explain(s, true)
	if err != nil {
		t.Fatal(err)
	}
	after := reg.Snapshot().Counters
	delta := func(name string) int64 { return after[name] - before[name] }

	if plan.Actual == nil || plan.QueryID == 0 || plan.Op != s.op() {
		t.Fatalf("analyze plan lacks actuals or op %q: %+v", s.op(), plan)
	}
	io := plan.Actual.IO
	if io.ZoneBlocksKept != delta("query.index.hits") {
		t.Errorf("zone kept: plan %d, counter delta %d", io.ZoneBlocksKept, delta("query.index.hits"))
	}
	if io.ZoneBlocksSkipped != delta("query.index.blocks_skipped") {
		t.Errorf("zone skipped: plan %d, counter delta %d", io.ZoneBlocksSkipped, delta("query.index.blocks_skipped"))
	}
	if io.BytesRead != delta("query.bytes_read") {
		t.Errorf("bytes read: plan %d, counter delta %d", io.BytesRead, delta("query.bytes_read"))
	}
	if io.BytesDecoded != delta("query.bytes_decoded") {
		t.Errorf("bytes decoded: plan %d, counter delta %d", io.BytesDecoded, delta("query.bytes_decoded"))
	}
	if plan.Actual.Rows != delta("query.rows") {
		t.Errorf("rows: plan %d, counter delta %d", plan.Actual.Rows, delta("query.rows"))
	}
	if io.TTScanned != delta("query.scan.tt_rows") || io.NTScanned != delta("query.scan.nt_rows") || io.CATScanned != delta("query.scan.cat_rows") {
		t.Errorf("scan rows: plan tt=%d nt=%d cat=%d, deltas tt=%d nt=%d cat=%d",
			io.TTScanned, io.NTScanned, io.CATScanned,
			delta("query.scan.tt_rows"), delta("query.scan.nt_rows"), delta("query.scan.cat_rows"))
	}
	if io.BytesRead == 0 {
		t.Error("query attributed no bytes read")
	}
	// A selection must actually have pruned — otherwise this exercises
	// nothing.
	if len(s.Where) > 0 && io.ZoneBlocksSkipped == 0 {
		t.Error("selective predicate skipped no zone blocks")
	}

	// The plan side of the same verdicts: per-extent kept/skipped totals
	// agree with the measured query (same zone maps, same predicates),
	// and an iceberg plan lists no TT extent, as its scan reads none.
	var kept, skipped int64
	for _, ext := range plan.Extents {
		if ext.Relation == "tt" && s.MinCount > 0 {
			t.Errorf("iceberg plan lists TT extent %d", ext.Node)
		}
		if ext.Zones != nil {
			kept += int64(ext.Zones.Kept)
			skipped += int64(ext.Zones.Skipped)
			if ext.Zones.Kept+ext.Zones.Skipped != ext.Zones.Blocks {
				t.Errorf("extent %s/%d: kept %d + skipped %d != blocks %d",
					ext.Relation, ext.Node, ext.Zones.Kept, ext.Zones.Skipped, ext.Zones.Blocks)
			}
		}
	}
	if kept != io.ZoneBlocksKept || skipped != io.ZoneBlocksSkipped {
		t.Errorf("plan zones kept/skipped = %d/%d, actuals %d/%d", kept, skipped, io.ZoneBlocksKept, io.ZoneBlocksSkipped)
	}
	if s.MinCount > 0 && io.TTScanned != 0 {
		t.Errorf("iceberg query scanned %d TT rows", io.TTScanned)
	}

	// Analyze runs count as real queries: the row volume matches a direct
	// Query and the tracker ring holds the record with the plan.
	if direct := collectSpec(t, eng, s); plan.Actual.Rows != int64(len(direct)) || len(direct) == 0 {
		t.Errorf("analyze saw %d rows, direct query %d", plan.Actual.Rows, len(direct))
	}
	recent := tracker.Recent()
	var rec *obsv.QueryRecord
	for i := range recent {
		if recent[i].ID == plan.QueryID {
			rec = &recent[i]
		}
	}
	if rec == nil {
		t.Fatalf("query %d missing from tracker ring", plan.QueryID)
	}
	if rec.Op != "explain" || rec.Plan == nil || rec.IO != io {
		t.Errorf("tracker record = %+v", rec)
	}
}

func TestExplainPlanOnly(t *testing.T) {
	dir, _, _ := buildIndexedCube(t, false)
	eng, err := OpenDefault(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	node := eng.Enum().Encode([]int{0, 0})
	plan, err := eng.Explain(Spec{Node: node, Where: []Predicate{{Dim: 0, Level: 0, Lo: 5, Hi: 10}}}, false)
	if err != nil {
		t.Fatal(err)
	}
	if plan.QueryID != 0 || plan.Actual != nil {
		t.Fatalf("plan-only EXPLAIN ran the query: %+v", plan)
	}
	if plan.Op != "where" || plan.Where == "" || len(plan.Extents) == 0 {
		t.Fatalf("plan = %+v", plan)
	}
	if plan.EstScanRows <= 0 || plan.EstBytes <= 0 {
		t.Fatalf("estimates = %d rows / %d bytes", plan.EstScanRows, plan.EstBytes)
	}
	var pruned bool
	for _, ext := range plan.Extents {
		if ext.ScanRows > ext.Rows {
			t.Errorf("extent %s/%d scans %d of %d rows", ext.Relation, ext.Node, ext.ScanRows, ext.Rows)
		}
		switch ext.Access {
		case "linear":
			if ext.Zones != nil {
				t.Errorf("linear extent %s/%d carries zone detail", ext.Relation, ext.Node)
			}
		case "zone", "zone+narrow":
			if ext.Zones == nil {
				t.Errorf("indexed extent %s/%d lacks zone detail", ext.Relation, ext.Node)
			} else if ext.Zones.Skipped > 0 {
				pruned = true
			}
		default:
			t.Errorf("extent %s/%d has unknown access %q", ext.Relation, ext.Node, ext.Access)
		}
	}
	if !pruned {
		t.Error("no extent pruned under the selective predicate")
	}

	// Without predicates the plan is a plain node scan: every extent
	// linear, no where clause.
	plan, err = eng.Explain(Spec{Node: node}, false)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Op != "node" || plan.Where != "" {
		t.Fatalf("no-predicate plan = %+v", plan)
	}
	for _, ext := range plan.Extents {
		if ext.Access != "linear" || ext.ScanRows != ext.Rows {
			t.Errorf("no-predicate extent = %+v", ext)
		}
	}
}

func TestExplainNoIndex(t *testing.T) {
	dir, _, _ := buildIndexedCube(t, false)
	eng, err := Open(dir, Options{CacheFraction: 1, PinAggregates: true, NoIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	plan, err := eng.Explain(Spec{Node: eng.Enum().Encode([]int{0, 0}), Where: []Predicate{{Dim: 0, Level: 0, Lo: 5, Hi: 10}}}, false)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.NoIndex {
		t.Fatal("plan does not report -no-index")
	}
	for _, ext := range plan.Extents {
		if ext.Access != "linear" {
			t.Errorf("-no-index extent uses %q access", ext.Access)
		}
	}
}

func TestExplainRejectsBadQuery(t *testing.T) {
	dir, _, _ := buildIndexedCube(t, false)
	eng, err := OpenDefault(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	node := eng.Enum().Encode([]int{0, 0})
	if _, err := eng.Explain(Spec{Node: node, Where: []Predicate{{Dim: 9, Level: 0, Lo: 0, Hi: 0}}}, false); err == nil {
		t.Error("Explain accepted an out-of-range dimension")
	}
	if _, err := eng.Explain(Spec{Node: node, Where: []Predicate{{Dim: 0, Level: 99, Lo: 0, Hi: 0}}}, false); err == nil {
		t.Error("Explain accepted an out-of-range level")
	}
	// A predicate at a level finer than the node's grouping is invalid.
	coarse := eng.Enum().Encode([]int{1, 0})
	if _, err := eng.Explain(Spec{Node: coarse, Where: []Predicate{{Dim: 0, Level: 0, Lo: 0, Hi: 0}}}, false); err == nil {
		t.Error("Explain accepted a predicate finer than the grouping")
	}
	if _, err := eng.Explain(Spec{Node: node, MinCount: 0.5}, false); err == nil {
		t.Error("Explain accepted an iceberg threshold below 1")
	}
}

// TestExplainWhereString pins the rendered plan vocabulary the curectl
// transcript in README relies on.
func TestExplainWhereString(t *testing.T) {
	dir, hier, _ := buildIndexedCube(t, false)
	reg := obsv.NewRegistry()
	eng, err := Open(dir, Options{CacheFraction: 1, PinAggregates: true, Metrics: reg, Queries: obsv.NewQueryTracker(reg, 4)})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	node := eng.Enum().Encode([]int{0, 0})
	plan, err := eng.Explain(Spec{Node: node, Where: []Predicate{
		{Dim: 0, Level: 1, Lo: 2, Hi: 2},
		{Dim: 1, Level: 0, Lo: 1, Hi: 3},
	}}, false)
	if err != nil {
		t.Fatal(err)
	}
	wantA := hier.Dims[0].Name + "." + hier.Dims[0].LevelName(1) + "=2"
	if !strings.Contains(plan.Where, wantA) || !strings.Contains(plan.Where, " and ") {
		t.Errorf("where = %q, want it to contain %q joined with ' and '", plan.Where, wantA)
	}
	if plan.NodeName == "" || plan.NodeName == "ALL" {
		t.Errorf("node name = %q", plan.NodeName)
	}
}
