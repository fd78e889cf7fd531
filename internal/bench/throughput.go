package bench

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sync/atomic"
	"time"

	"cure/internal/core"
	"cure/internal/gen"
	"cure/internal/lattice"
	"cure/internal/obsv"
	"cure/internal/query"
)

// throughputZoneBlockRows is the zone-map granularity of the
// query-throughput cube: finer than the storage default so the
// scaled-down bench datasets still have multi-block extents to prune.
const throughputZoneBlockRows = 64

// tpOp is one pre-generated operation of the mixed workload.
type tpOp struct {
	kind  int // 0 = point slice, 1 = range selection, 2 = roll-up scan
	node  lattice.NodeID
	level int
	lo    int32
	hi    int32
}

// runThroughput measures concurrent query serving: a mixed workload
// (~40% point slices, ~30% range selections, ~30% roll-up scans) driven
// by C ∈ {1, 4, 16} concurrent clients over one shared engine, with and
// without zone-map indexes on the same store. Reported per arm: QPS,
// latency percentiles from the query.latency_us histogram, the
// cumulative zone-map block counters, physical scan MB/s, and
// cube_bytes_on_disk. Every arm must return the same row volume — an
// equivalence check that rides along with the timing.
func (h *Harness) runThroughput() (map[string]*Result, error) {
	density := h.cfg.APBDensities[0]
	ft, hier, err := gen.APB(density, h.cfg.Seed)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(h.cfg.WorkDir, "throughput")
	stats, err := h.buildCURE(dir, ft, hier, func(o *core.Options) {
		o.ZoneBlockRows = throughputZoneBlockRows
	})
	if err != nil {
		return nil, err
	}
	// Pre-generate the workload once; every arm replays the same ops.
	enum := lattice.NewEnum(hier)
	var coarse []lattice.NodeID
	for _, id := range enum.AllNodes() {
		arity := 0
		for d, l := range enum.Decode(id, nil) {
			if !hier.Dims[d].IsAll(l) {
				arity++
			}
		}
		if arity <= 2 {
			coarse = append(coarse, id)
		}
	}
	prod := hier.Dims[0]
	rng := rand.New(rand.NewSource(h.cfg.Seed + 41))
	mkLevels := func(l0 int) []int {
		levels := make([]int, hier.NumDims())
		for d := range levels {
			levels[d] = hier.Dims[d].AllLevel()
		}
		levels[0] = l0
		levels[2] = 0
		return levels
	}
	ops := make([]tpOp, h.cfg.Queries)
	for i := range ops {
		switch r := rng.Float64(); {
		case r < 0.4:
			// Point slice on the Product hierarchy.
			l := 1 + rng.Intn(2)
			ops[i] = tpOp{kind: 0, node: enum.Encode(mkLevels(l)), level: l}
			code := int32(rng.Intn(int(prod.Card(l))))
			ops[i].lo, ops[i].hi = code, code
		case r < 0.7:
			// Range selection at a coarser Product level.
			const famLevel = 3
			card := int(prod.Card(famLevel))
			lo := rng.Intn(card)
			hi := lo + card/8
			if hi >= card {
				hi = card - 1
			}
			ops[i] = tpOp{kind: 1, node: enum.Encode(mkLevels(1)), level: famLevel, lo: int32(lo), hi: int32(hi)}
		default:
			// Roll-up: full scan of a coarse node.
			ops[i] = tpOp{kind: 2, node: coarse[rng.Intn(len(coarse))]}
		}
	}

	res := &Result{
		ID:     "query-throughput",
		Title:  "Concurrent query serving: QPS and latency, zone maps vs full scans",
		Header: []string{"index", "clients", "QPS", "p50", "p90", "p99", "blocks skipped", "rows", "scan MB/s", "cube_bytes_on_disk"},
		Notes: []string{
			fmt.Sprintf("APB-1 density %.3g (%s tuples); %d mixed ops per arm (40%% point slice / 30%% range / 30%% roll-up), shared engine, full fact cache", density, fmtCount(int64(ft.Len())), len(ops)),
			"scan MB/s counts physical extent bytes read per second",
		},
	}
	// Arms: zone maps and full scans over the same cube.
	type armSpec struct {
		label   string
		noIndex bool
		suffix  string
	}
	arms := []armSpec{
		{label: "zone maps"},
		{label: "no index", noIndex: true, suffix: ".noindex"},
	}
	if h.cfg.NoIndex {
		arms = arms[1:2]
	}
	var wantRows int64 = -1
	for _, arm := range arms {
		for _, c := range []int{1, 4, 16} {
			reg := obsv.NewRegistry()
			tracker := obsv.NewQueryTracker(reg, 64)
			eng, err := query.Open(dir, query.Options{
				CacheFraction: 1, PinAggregates: true, Metrics: reg, Queries: tracker, NoIndex: arm.noIndex,
			})
			if err != nil {
				return nil, err
			}
			var rows atomic.Int64
			start := time.Now()
			err = query.ForEach(c, len(ops), func(i int) error {
				op := ops[i]
				count := func(query.Row) error { rows.Add(1); return nil }
				switch op.kind {
				case 0:
					return eng.SliceQuery(op.node, 0, op.level, op.lo, count)
				case 1:
					return eng.NodeQueryWhere(op.node, []query.Predicate{{Dim: 0, Level: op.level, Lo: op.lo, Hi: op.hi}}, count)
				default:
					return eng.NodeQuery(op.node, count)
				}
			})
			wall := time.Since(start).Seconds()
			eng.Close()
			if err != nil {
				return nil, err
			}
			// Every arm must return the same result volume — a cheap
			// equivalence check riding along with the timing.
			if wantRows < 0 {
				wantRows = rows.Load()
			} else if rows.Load() != wantRows {
				return nil, fmt.Errorf("bench: throughput arms disagree: %d rows vs %d", rows.Load(), wantRows)
			}
			snap := reg.Snapshot()
			var lat *obsv.HistogramSnapshot
			for i := range snap.Histograms {
				if snap.Histograms[i].Name == "query.latency_us" {
					lat = &snap.Histograms[i]
				}
			}
			if lat == nil || lat.Count == 0 {
				return nil, fmt.Errorf("bench: throughput arm recorded no query latencies")
			}
			// Per-query tracking rides along on every arm: after the run
			// nothing may remain in-flight and the recent ring must hold
			// completed records — a cheap liveness check on the tracker
			// under C-way concurrency.
			if n := len(tracker.Inflight()); n != 0 {
				return nil, fmt.Errorf("bench: %d queries still in-flight after throughput arm", n)
			}
			if len(tracker.Recent()) == 0 {
				return nil, fmt.Errorf("bench: throughput arm recorded no completed queries")
			}
			phase := fmt.Sprintf("query/throughput.c%d%s", c, arm.suffix)
			h.phases[phase] += wall
			res.AddRow(arm.label, fmt.Sprintf("%d", c),
				fmtCount(int64(float64(len(ops))/wall)),
				fmtDur(float64(lat.P50)/1e6), fmtDur(float64(lat.P90)/1e6), fmtDur(float64(lat.P99)/1e6),
				fmtCount(snap.Counters["query.index.blocks_skipped"]),
				fmtCount(snap.Counters["query.rows"]),
				fmt.Sprintf("%.1f", float64(snap.Counters["query.bytes_read"])/wall/1e6),
				fmt.Sprintf("%d", stats.Sizes.Total()))
		}
	}
	return map[string]*Result{"query-throughput": res}, nil
}
