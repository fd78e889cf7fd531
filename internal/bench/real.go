package bench

import (
	"fmt"
	"path/filepath"

	"cure/internal/bubst"
	"cure/internal/buc"
	"cure/internal/core"
	"cure/internal/gen"
	"cure/internal/hierarchy"
	"cure/internal/lattice"
	"cure/internal/query"
	"cure/internal/relation"
)

// realDataset bundles one generated surrogate dataset.
type realDataset struct {
	name string
	ft   *relation.FactTable
	hier *hierarchy.Schema
}

func (h *Harness) realDatasets() ([]realDataset, error) {
	cov, covHier, err := gen.CovTypeLike(h.cfg.Scale, h.cfg.Seed)
	if err != nil {
		return nil, err
	}
	sep, sepHier, err := gen.Sep85LLike(h.cfg.Scale, h.cfg.Seed+1)
	if err != nil {
		return nil, err
	}
	return []realDataset{
		{"CovType-like", cov, covHier},
		{"Sep85L-like", sep, sepHier},
	}, nil
}

// runReal regenerates Figures 14–17: construction time, storage space,
// average query response time, and the caching sweep, over the two
// real-dataset surrogates, for BUC, BU-BST, CURE, and CURE+.
func (h *Harness) runReal() (map[string]*Result, error) {
	datasets, err := h.realDatasets()
	if err != nil {
		return nil, err
	}
	scaleNote := fmt.Sprintf("datasets scaled to %.3g× the paper's row counts", h.cfg.Scale)
	fig14 := &Result{ID: "fig14", Title: "Real datasets: construction time",
		Header: []string{"dataset", "BUC", "BU-BST", "CURE", "CURE+"}, Notes: []string{scaleNote}}
	fig15 := &Result{ID: "fig15", Title: "Real datasets: storage space",
		Header: []string{"dataset", "BUC", "BU-BST", "CURE", "CURE+"}, Notes: []string{scaleNote}}
	fig16 := &Result{ID: "fig16", Title: "Real datasets: average query response time",
		Header: []string{"dataset", "BUC", "BU-BST", "CURE", "CURE+"},
		Notes:  []string{scaleNote, fmt.Sprintf("%d random node queries, no selection", h.cfg.Queries)}}
	fig17 := &Result{ID: "fig17", Title: "Effect of fact-table caching on average QRT",
		Header: []string{"dataset", "method", "cache=0", "0.25", "0.5", "0.75", "1"},
		Notes:  []string{scaleNote, "cache sweep over the first 100 workload queries (uncached queries dominate wall time)"}}

	for di, ds := range datasets {
		dir := filepath.Join(h.cfg.WorkDir, fmt.Sprintf("real%d", di))
		enum := lattice.NewEnum(ds.hier)
		workload := gen.NodeWorkload(enum, h.cfg.Queries, h.cfg.Seed+int64(di))

		bucStats, err := buc.Build(ds.ft, ds.hier, stdSpecs(), buc.Options{Dir: filepath.Join(dir, "buc")})
		if err != nil {
			return nil, err
		}
		bubstStats, err := bubst.Build(ds.ft, ds.hier, stdSpecs(), bubst.Options{Dir: filepath.Join(dir, "bubst")})
		if err != nil {
			return nil, err
		}
		cureStats, err := h.buildCURE(filepath.Join(dir, "cure"), ds.ft, ds.hier, core.PlainLayout)
		if err != nil {
			return nil, err
		}
		curePlusStats, err := h.buildCURE(filepath.Join(dir, "cureplus"), ds.ft, ds.hier, nil)
		if err != nil {
			return nil, err
		}

		fig14.AddRow(ds.name,
			fmtDur(bucStats.Elapsed.Seconds()), fmtDur(bubstStats.Elapsed.Seconds()),
			fmtDur(cureStats.Elapsed.Seconds()), fmtDur(curePlusStats.Elapsed.Seconds()))
		fig15.AddRow(ds.name,
			fmtBytes(bucStats.Bytes), fmtBytes(bubstStats.Bytes),
			fmtBytes(cureStats.Sizes.Total()), fmtBytes(curePlusStats.Sizes.Total()))

		// Average QRT with the default engines (full caching for CURE).
		var qrts []string
		bq, err := buc.Open(filepath.Join(dir, "buc"))
		if err != nil {
			return nil, err
		}
		avg, _, err := timeWorkload(bucQuerier{bq}, workload)
		if err != nil {
			return nil, err
		}
		qrts = append(qrts, fmtDur(avg))
		sq, err := bubst.Open(filepath.Join(dir, "bubst"))
		if err != nil {
			return nil, err
		}
		avg, _, err = timeWorkload(bubstQuerier{sq}, workload)
		if err != nil {
			return nil, err
		}
		qrts = append(qrts, fmtDur(avg))
		for _, sub := range []string{"cure", "cureplus"} {
			ce, err := query.OpenDefault(filepath.Join(dir, sub))
			if err != nil {
				return nil, err
			}
			avg, _, err = timeWorkload(cureQuerier{ce}, workload)
			if err != nil {
				return nil, err
			}
			qrts = append(qrts, fmtDur(avg))
		}
		fig16.AddRow(append([]string{ds.name}, qrts...)...)

		// Figure 17: cache-fraction sweep for CURE and CURE+. Uncached
		// queries on the dense dataset cost three orders of magnitude
		// more than cached ones (that is the figure's very point), so the
		// sweep uses a subsample of the workload to stay tractable.
		sweep := workload
		if len(sweep) > 100 {
			sweep = sweep[:100]
		}
		for _, sub := range []struct{ label, dir string }{
			{"CURE", "cure"}, {"CURE+", "cureplus"},
		} {
			cells := []string{ds.name, sub.label}
			for _, frac := range []float64{0, 0.25, 0.5, 0.75, 1} {
				ce, err := query.Open(filepath.Join(dir, sub.dir), query.Options{CacheFraction: frac, PinAggregates: true})
				if err != nil {
					return nil, err
				}
				avg, _, err := timeWorkload(cureQuerier{ce}, sweep)
				if err != nil {
					return nil, err
				}
				cells = append(cells, fmtDur(avg))
			}
			fig17.AddRow(cells...)
		}
	}
	return map[string]*Result{"fig14": fig14, "fig15": fig15, "fig16": fig16, "fig17": fig17}, nil
}

// runPool regenerates Figure 18: cube size as a function of the signature
// pool capacity, on both real-dataset surrogates.
func (h *Harness) runPool() (map[string]*Result, error) {
	datasets, err := h.realDatasets()
	if err != nil {
		return nil, err
	}
	fig18 := &Result{ID: "fig18", Title: "Signature-pool size vs cube size",
		Header: []string{"dataset", "pool=0", "1K", "4K", "16K", "64K", "unbounded"},
		Notes: []string{
			fmt.Sprintf("datasets scaled to %.3g× the paper's row counts", h.cfg.Scale),
			"pool=0 disables CAT identification; unbounded matches the paper's optimal cube",
		}}
	caps := []int{core.NoPool, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 1 << 30}
	for di, ds := range datasets {
		cells := []string{ds.name}
		for ci, cap := range caps {
			dir := filepath.Join(h.cfg.WorkDir, fmt.Sprintf("pool%d_%d", di, ci))
			stats, err := h.buildCURE(dir, ds.ft, ds.hier, func(o *core.Options) { o.PoolCapacity = cap })
			if err != nil {
				return nil, err
			}
			cells = append(cells, fmtBytes(stats.Sizes.Total()))
		}
		fig18.AddRow(cells...)
	}
	return map[string]*Result{"fig18": fig18}, nil
}
