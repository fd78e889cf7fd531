package query

import (
	"cure/internal/obsv"
	"cure/internal/storage"
)

// EXPLAIN: the engine can describe how it would answer a Spec — which
// extents it touches (TT extents along the plan path, none for an
// iceberg spec, then the node's NT and CAT extents), what each extent's
// zone map prunes for the spec's predicates, whether the sorted-slot
// binary search narrowed the block range, and what the scan is estimated
// to cost in rows and bytes. With Analyze the query actually runs and the
// plan carries the measured rows, elapsed time, and per-query I/O — taken
// from the same per-query tally that settles into the registry counters,
// so the actuals equal the cure_query_* counter deltas for that query id.

// Plan is the structured EXPLAIN output for one Spec.
type Plan struct {
	// QueryID is the query's id: the tracker-assigned id when the query
	// ran (Analyze), 0 for a plan-only EXPLAIN.
	QueryID int64 `json:"query_id,omitempty"`
	// Op is the op the spec runs as: "node", "where" or "iceberg".
	Op       string `json:"op"`
	Node     int64  `json:"node"`
	NodeName string `json:"node_name"`
	Where    string `json:"where,omitempty"`
	// NoIndex reports that zone-map pruning is disabled engine-wide.
	NoIndex bool `json:"no_index,omitempty"`
	// Extents lists the scanned extents in execution order.
	Extents []PlanExtent `json:"extents"`
	// EstScanRows / EstBytes total the per-extent estimates.
	EstScanRows int64 `json:"est_scan_rows"`
	EstBytes    int64 `json:"est_bytes"`
	// Actual is present after EXPLAIN ANALYZE.
	Actual *PlanActuals `json:"actual,omitempty"`
}

// PlanExtent is one extent the scan visits.
type PlanExtent struct {
	Relation string `json:"relation"` // "tt" | "nt" | "cat"
	Node     int64  `json:"node"`
	NodeName string `json:"node_name"`
	// Rows is the extent's stored row count; ScanRows the rows left to
	// visit after zone pruning (equal when nothing prunes).
	Rows     int64 `json:"rows"`
	ScanRows int64 `json:"scan_rows"`
	// EstBytes estimates the read cost: TT extents are always fetched
	// whole; NT/CAT extents read only the kept ranges; unpinned
	// AGGREGATES lookups add one row per CAT reference. The bytes are
	// encoded bytes — the blocks overlapping the kept ranges — not raw
	// row widths.
	EstBytes int64 `json:"est_bytes"`
	// Access is "linear" (full scan), "zone" (zone-map block pruning),
	// or "zone+narrow" (pruning after sorted-slot binary-search
	// narrowing, the CURE+ path).
	Access string `json:"access"`
	// Zones details the pruning decision (nil when Access == "linear").
	Zones *PlanZones `json:"zones,omitempty"`
}

// PlanZones is one extent's zone-map pruning verdict.
type PlanZones struct {
	Blocks   int  `json:"blocks"`
	Kept     int  `json:"kept"`
	Skipped  int  `json:"skipped"`
	Narrowed bool `json:"narrowed"`
	// Ranges are the kept extent-row ranges the scan will visit.
	Ranges []storage.RowRange `json:"ranges"`
}

// PlanActuals is the measured side of EXPLAIN ANALYZE.
type PlanActuals struct {
	Rows      int64        `json:"rows"`
	ElapsedUs int64        `json:"elapsed_us"`
	IO        obsv.QueryIO `json:"io"`
}

// Explain plans the query s. With analyze the query also runs — results
// are discarded — through Query's frame under op "explain", and the plan
// carries its actuals.
func (e *Engine) Explain(s Spec, analyze bool) (*Plan, error) {
	f, levels, err := e.compileFilter(s)
	if err != nil {
		return nil, err
	}
	plan := e.buildPlan(s, f)
	if !analyze {
		return plan, nil
	}
	if err := e.runQuery("explain", s, f, levels, plan, func(Row) error { return nil }); err != nil {
		return nil, err
	}
	return plan, nil
}

// buildPlan assembles the extent list the scan of s under its compiled
// filter f will visit, with each extent's pruning verdict from the prune
// call scanNode makes, so a plan's kept/skipped numbers match the
// counters of the query it describes.
func (e *Engine) buildPlan(s Spec, f *scanFilter) *Plan {
	id := s.Node
	m := e.r.Manifest()
	plan := &Plan{
		Op:       s.op(),
		Node:     int64(id),
		NodeName: e.nodeName(id),
		Where:    e.whereString(s),
		NoIndex:  e.noIndex,
	}
	zones := func(z *storage.ZoneIndex, rows int64) (*PlanZones, int64) {
		ranges, st := e.prune(f, z, rows)
		if ranges == nil {
			return nil, rows
		}
		return &PlanZones{
			Blocks:   st.Blocks,
			Kept:     st.Kept,
			Skipped:  st.Skipped,
			Narrowed: st.Narrowed,
			Ranges:   ranges,
		}, st.ScanRows
	}
	access := func(pz *PlanZones) string {
		switch {
		case pz == nil:
			return "linear"
		case pz.Narrowed:
			return "zone+narrow"
		default:
			return "zone"
		}
	}
	for _, anc := range e.ttPath(id, f) {
		nm, ok := m.NodeMeta(anc)
		if !ok || nm.TTRows == 0 {
			continue
		}
		pz, scan := zones(nm.TTZones, nm.TTRows)
		plan.Extents = append(plan.Extents, PlanExtent{
			Relation: "tt",
			Node:     int64(anc),
			NodeName: e.nodeName(anc),
			Rows:     nm.TTRows,
			ScanRows: scan,
			EstBytes: nm.TTCodec.EncodedBytes(), // TT extents are fetched whole
			Access:   access(pz),
			Zones:    pz,
		})
	}
	if nm, ok := m.NodeMeta(id); ok {
		// keptRanges maps a pruning verdict to the ranges the estimate
		// covers (nil = the whole extent).
		keptRanges := func(pz *PlanZones) []storage.RowRange {
			if pz == nil {
				return nil
			}
			return pz.Ranges
		}
		if nm.NTRows > 0 {
			pz, scan := zones(nm.NTZones, nm.NTRows)
			plan.Extents = append(plan.Extents, PlanExtent{
				Relation: "nt",
				Node:     int64(id),
				NodeName: plan.NodeName,
				Rows:     nm.NTRows,
				ScanRows: scan,
				EstBytes: nm.NTCodec.BytesForRanges(keptRanges(pz)),
				Access:   access(pz),
				Zones:    pz,
			})
		}
		if nm.CATRows > 0 {
			pz, scan := zones(nm.CATZones, nm.CATRows)
			est := nm.CATCodec.BytesForRanges(keptRanges(pz))
			if e.aggRaw == nil && m.AggRows > 0 {
				// Unpinned AGGREGATES: every visited CAT reference costs
				// one AGGREGATES row read — estimated at the relation's
				// mean encoded row cost.
				est += scan * (m.AggCodec.EncodedBytes() / m.AggRows)
			}
			plan.Extents = append(plan.Extents, PlanExtent{
				Relation: "cat",
				Node:     int64(id),
				NodeName: plan.NodeName,
				Rows:     nm.CATRows,
				ScanRows: scan,
				EstBytes: est,
				Access:   access(pz),
				Zones:    pz,
			})
		}
	}
	for _, ext := range plan.Extents {
		plan.EstScanRows += ext.ScanRows
		plan.EstBytes += ext.EstBytes
	}
	return plan
}
