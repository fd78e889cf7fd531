package bench

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"cure/internal/bubst"
	"cure/internal/buc"
	"cure/internal/core"
	"cure/internal/gen"
	"cure/internal/lattice"
	"cure/internal/query"
)

// runFlatHier regenerates Figures 26–28: the trade-off between flat and
// hierarchical cubes over hierarchical data (APB-1 at the lowest
// density). Flat cubes (BUC, BU-BST, FCURE, FCURE+) build faster and
// store less, but answering queries at coarser hierarchy levels forces
// on-the-fly re-aggregation; hierarchical cubes (CURE, CURE+) answer them
// directly.
func (h *Harness) runFlatHier() (map[string]*Result, error) {
	density := h.cfg.APBDensities[0]
	hier := gen.APBSchema()
	ft, _, err := gen.APB(density, h.cfg.Seed)
	if err != nil {
		return nil, err
	}
	notes := []string{fmt.Sprintf("APB-1 density %g (%s tuples)", density, fmtCount(int64(ft.Len())))}
	fig26 := &Result{ID: "fig26", Title: "Flat vs hierarchical: construction time",
		Header: []string{"method", "time"}, Notes: notes}
	fig27 := &Result{ID: "fig27", Title: "Flat vs hierarchical: storage space",
		Header: []string{"method", "size"}, Notes: notes}
	fig28 := &Result{ID: "fig28", Title: "Flat vs hierarchical: average QRT (roll-up/drill-down workload)",
		Header: []string{"method", "avg QRT"},
		Notes: append(notes,
			"workload: random hierarchical node queries; flat cubes re-aggregate on the fly")}

	dir := filepath.Join(h.cfg.WorkDir, "flathier")

	bucStats, err := buc.Build(ft, hier, stdSpecs(), buc.Options{Dir: filepath.Join(dir, "buc")})
	if err != nil {
		return nil, err
	}
	fig26.AddRow("BUC", fmtDur(bucStats.Elapsed.Seconds()))
	fig27.AddRow("BUC", fmtBytes(bucStats.Bytes))

	bubstStats, err := bubst.Build(ft, hier, stdSpecs(), bubst.Options{Dir: filepath.Join(dir, "bubst")})
	if err != nil {
		return nil, err
	}
	fig26.AddRow("BU-BST", fmtDur(bubstStats.Elapsed.Seconds()))
	fig27.AddRow("BU-BST", fmtBytes(bubstStats.Bytes))

	cureBuilds := []struct {
		label string
		sub   string
		mod   func(*core.Options)
	}{
		{"FCURE", "fcure", func(o *core.Options) { o.Flat = true; core.PlainLayout(o) }},
		{"FCURE+", "fcureplus", func(o *core.Options) { o.Flat = true }},
		{"CURE", "cure", core.PlainLayout},
		{"CURE+", "cureplus", nil},
	}
	for _, cb := range cureBuilds {
		stats, err := h.buildCURE(filepath.Join(dir, cb.sub), ft, hier, cb.mod)
		if err != nil {
			return nil, err
		}
		fig26.AddRow(cb.label, fmtDur(stats.Elapsed.Seconds()))
		fig27.AddRow(cb.label, fmtBytes(stats.Sizes.Total()))
	}

	// Figure 28's workload: random hierarchical nodes (the roll-up /
	// drill-down space). Hierarchical cubes answer directly; flat cubes
	// answer through hierOverFlat.
	hierEnum := lattice.NewEnum(hier)
	flatEnum := lattice.NewEnum(hier.Flatten())
	rng := rand.New(rand.NewSource(h.cfg.Seed + 100))
	n := h.cfg.Queries / 10
	if n < 20 {
		n = 20
	}
	workload := make([][]int, n)
	for i := range workload {
		levels := make([]int, hier.NumDims())
		for d, dim := range hier.Dims {
			levels[d] = rng.Intn(dim.NumLevels())
		}
		workload[i] = levels
	}

	timeFlat := func(q flatQuerier) (float64, error) {
		defer q.Close()
		start := time.Now()
		for _, levels := range workload {
			if _, err := hierOverFlat(q, flatEnum, hier, levels, stdSpecs()); err != nil {
				return 0, err
			}
		}
		return time.Since(start).Seconds() / float64(len(workload)), nil
	}
	be, err := buc.Open(filepath.Join(dir, "buc"))
	if err != nil {
		return nil, err
	}
	avg, err := timeFlat(bucQuerier{be})
	if err != nil {
		return nil, err
	}
	fig28.AddRow("BUC", fmtDur(avg))
	se, err := bubst.Open(filepath.Join(dir, "bubst"))
	if err != nil {
		return nil, err
	}
	if avg, err = timeFlat(bubstQuerier{se}); err != nil {
		return nil, err
	}
	fig28.AddRow("BU-BST", fmtDur(avg))
	for _, sub := range []struct{ label, dir string }{{"FCURE", "fcure"}, {"FCURE+", "fcureplus"}} {
		fe, err := query.OpenDefault(filepath.Join(dir, sub.dir))
		if err != nil {
			return nil, err
		}
		if avg, err = timeFlat(cureQuerier{fe}); err != nil {
			return nil, err
		}
		fig28.AddRow(sub.label, fmtDur(avg))
	}
	// Hierarchical cubes: direct node queries.
	for _, sub := range []struct{ label, dir string }{{"CURE", "cure"}, {"CURE+", "cureplus"}} {
		he, err := query.OpenDefault(filepath.Join(dir, sub.dir))
		if err != nil {
			return nil, err
		}
		start := time.Now()
		for _, levels := range workload {
			id := hierEnum.Encode(levels)
			if err := he.Query(query.Spec{Node: id}, func(query.Row) error { return nil }); err != nil {
				he.Close()
				return nil, err
			}
		}
		he.Close()
		fig28.AddRow(sub.label, fmtDur(time.Since(start).Seconds()/float64(len(workload))))
	}
	return map[string]*Result{"fig26": fig26, "fig27": fig27, "fig28": fig28}, nil
}
