package bench

import (
	"fmt"
	"path/filepath"
	"time"

	"cure/internal/bubst"
	"cure/internal/buc"
	"cure/internal/core"
	"cure/internal/gen"
	"cure/internal/hierarchy"
	"cure/internal/lattice"
	"cure/internal/partition"
	"cure/internal/query"
	"cure/internal/relation"
)

// runTable1 regenerates Table 1: the partition-level selection arithmetic
// for the SALES example (Product: barcode 10,000 → brand 1,000 →
// economic_strength 10; M = 1 GB) at |R| = 10 GB, 100 GB, and 1 TB.
func (h *Harness) runTable1() (map[string]*Result, error) {
	const gb = int64(1) << 30
	m1 := hierarchy.BuildContiguousMap(10000, 1000)
	m2 := hierarchy.ComposeMaps(m1, hierarchy.BuildContiguousMap(1000, 10))
	product, err := hierarchy.NewLinearDim("Product",
		[]string{"barcode", "brand", "economic_strength"},
		[]int32{10000, 1000, 10}, [][]int32{m1, m2})
	if err != nil {
		return nil, err
	}
	res := &Result{ID: "table1", Title: "CURE's partitioning efficiency (SALES, M = 1 GB)",
		Header: []string{"|R|", "L", "# partitions", "partition size", "|A0|/|A(L+1)|", "|N|"}}
	for _, r := range []struct {
		label string
		bytes int64
	}{
		{"10 GB", 10 * gb}, {"100 GB", 100 * gb}, {"1 TB", 1000 * gb},
	} {
		c, err := partition.SelectLevel(product, r.bytes, gb, gb, nil)
		if err != nil {
			return nil, err
		}
		l := c.Levels[0]
		res.AddRow(r.label,
			product.LevelName(l),
			fmtCount(int64(c.NumPartitions)),
			fmtBytes(c.PartitionBytes),
			fmt.Sprintf("%.0f", float64(product.Card(0))/float64(product.Card(l+1))),
			fmtBytes(c.NBytes[0]))
	}
	return map[string]*Result{"table1": res}, nil
}

// runIceberg regenerates §7's closing observation: count iceberg queries
// (HAVING count(*) > min_count) over a CURE cube skip trivial tuples
// wholesale, while the other formats must scan and filter everything.
func (h *Harness) runIceberg() (map[string]*Result, error) {
	ft, hier, err := gen.CovTypeLike(h.cfg.Scale, h.cfg.Seed)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(h.cfg.WorkDir, "iceberg")
	res := &Result{ID: "iceberg", Title: "Iceberg count queries (HAVING count(*) > min_count)",
		Header: []string{"min_count", "BUC scan+filter", "BU-BST scan+filter", "CURE iceberg"},
		Notes: []string{
			fmt.Sprintf("CovType-like at scale %.3g; average over all %d flat nodes", h.cfg.Scale, 1<<hier.NumDims()),
		}}
	if _, err := buc.Build(ft, hier, stdSpecs(), buc.Options{Dir: filepath.Join(dir, "buc")}); err != nil {
		return nil, err
	}
	if _, err := bubst.Build(ft, hier, stdSpecs(), bubst.Options{Dir: filepath.Join(dir, "bubst")}); err != nil {
		return nil, err
	}
	if _, err := h.buildCURE(filepath.Join(dir, "cure"), ft, hier, nil); err != nil {
		return nil, err
	}
	enum := lattice.NewEnum(hier)
	nodes := enum.AllNodes()

	be, err := buc.Open(filepath.Join(dir, "buc"))
	if err != nil {
		return nil, err
	}
	defer be.Close()
	se, err := bubst.Open(filepath.Join(dir, "bubst"))
	if err != nil {
		return nil, err
	}
	defer se.Close()
	ce, err := query.OpenDefault(filepath.Join(dir, "cure"))
	if err != nil {
		return nil, err
	}
	defer ce.Close()

	for _, minCount := range []float64{2, 10, 100} {
		filterScan := func(q flatQuerier) (float64, error) {
			start := time.Now()
			for _, id := range nodes {
				if err := q.Query(id, func(_ []int32, aggrs []float64) error {
					_ = aggrs[1] > minCount
					return nil
				}); err != nil {
					return 0, err
				}
			}
			return time.Since(start).Seconds() / float64(len(nodes)), nil
		}
		bucAvg, err := filterScan(bucQuerier{be})
		if err != nil {
			return nil, err
		}
		bubstAvg, err := filterScan(bubstQuerier{se})
		if err != nil {
			return nil, err
		}
		start := time.Now()
		for _, id := range nodes {
			if err := ce.Query(query.Spec{Node: id, MinCount: minCount}, func(query.Row) error { return nil }); err != nil {
				return nil, err
			}
		}
		cureAvg := time.Since(start).Seconds() / float64(len(nodes))
		res.AddRow(fmt.Sprintf("%.0f", minCount), fmtDur(bucAvg), fmtDur(bubstAvg), fmtDur(cureAvg))
	}
	return map[string]*Result{"iceberg": res}, nil
}

// runSortAblation isolates the CountingSort-vs-QuickSort design choice
// the paper credits for BUC-based methods surviving high skew.
func (h *Harness) runSortAblation() (map[string]*Result, error) {
	tuples := int(500_000 * h.cfg.Scale)
	if tuples < 1000 {
		tuples = 1000
	}
	res := &Result{ID: "ablation-sort", Title: "CURE construction: CountingSort vs QuickSort",
		Header: []string{"Z", "CountingSort", "QuickSort"},
		Notes:  []string{fmt.Sprintf("D = 8, T = %s", fmtCount(int64(tuples)))}}
	for _, z := range []float64{0, 1, 2} {
		ft, hier, err := gen.Synthetic(gen.SyntheticSpec{Dims: 8, Tuples: tuples, Zipf: z, Seed: h.cfg.Seed})
		if err != nil {
			return nil, err
		}
		cs, err := h.buildCURE(filepath.Join(h.cfg.WorkDir, fmt.Sprintf("abl_cnt_%.0f", z)), ft, hier, nil)
		if err != nil {
			return nil, err
		}
		qs, err := h.buildCURE(filepath.Join(h.cfg.WorkDir, fmt.Sprintf("abl_qck_%.0f", z)), ft, hier, core.QuickSortOnly)
		if err != nil {
			return nil, err
		}
		res.AddRow(fmt.Sprintf("%.0f", z), fmtDur(cs.Elapsed.Seconds()), fmtDur(qs.Elapsed.Seconds()))
	}
	return map[string]*Result{"ablation-sort": res}, nil
}

// runPlanAblation quantifies §3's argument against building each
// level-combination sub-cube independently: one shared hierarchical CURE
// plan versus one flat FCURE run per combination of hierarchy levels.
func (h *Harness) runPlanAblation() (map[string]*Result, error) {
	density := h.cfg.APBDensities[0]
	ft, hier, err := gen.APB(density, h.cfg.Seed)
	if err != nil {
		return nil, err
	}
	res := &Result{ID: "ablation-plan", Title: "Shared hierarchical plan vs independent sub-cube runs",
		Header: []string{"strategy", "runs", "total time"},
		Notes:  []string{fmt.Sprintf("APB-1 density %g (%s tuples)", density, fmtCount(int64(ft.Len())))}}

	stats, err := h.buildCURE(filepath.Join(h.cfg.WorkDir, "plan_cure"), ft, hier, nil)
	if err != nil {
		return nil, err
	}
	res.AddRow("CURE (one shared plan)", "1", fmtDur(stats.Elapsed.Seconds()))

	// Strawman: one flat cubing run per combination of real hierarchy
	// levels, each over the table mapped to those levels.
	combos := levelCombos(hier)
	start := time.Now()
	for i, combo := range combos {
		mapped, flatHier, err := mapToLevels(ft, hier, combo)
		if err != nil {
			return nil, err
		}
		if _, err := buc.Build(mapped, flatHier, stdSpecs(), buc.Options{
			Dir: filepath.Join(h.cfg.WorkDir, fmt.Sprintf("plan_combo%d", i)),
		}); err != nil {
			return nil, err
		}
	}
	res.AddRow("independent sub-cubes", fmt.Sprintf("%d", len(combos)), fmtDur(time.Since(start).Seconds()))
	return map[string]*Result{"ablation-plan": res}, nil
}

// levelCombos enumerates every combination of one real level per
// dimension.
func levelCombos(hier *hierarchy.Schema) [][]int {
	combos := [][]int{{}}
	for _, d := range hier.Dims {
		var next [][]int
		for _, c := range combos {
			for l := 0; l < d.AllLevel(); l++ {
				nc := append(append([]int{}, c...), l)
				next = append(next, nc)
			}
		}
		combos = next
	}
	return combos
}

// mapToLevels projects a fact table onto one level per dimension,
// producing the input of one independent sub-cube run.
func mapToLevels(ft *relation.FactTable, hier *hierarchy.Schema, levels []int) (*relation.FactTable, *hierarchy.Schema, error) {
	dims := make([]*hierarchy.Dim, hier.NumDims())
	names := make([]string, hier.NumDims())
	for d, dim := range hier.Dims {
		names[d] = fmt.Sprintf("%s@%s", dim.Name, dim.LevelName(levels[d]))
		dims[d] = hierarchy.NewFlatDim(names[d], dim.Card(levels[d]))
	}
	flat, err := hierarchy.NewSchema(dims...)
	if err != nil {
		return nil, nil, err
	}
	schema := &relation.Schema{DimNames: names, MeasureNames: ft.Schema.MeasureNames}
	out := relation.NewFactTable(schema, ft.Len())
	row := make([]int32, hier.NumDims())
	meas := make([]float64, len(ft.Measures))
	for r := 0; r < ft.Len(); r++ {
		for d, dim := range hier.Dims {
			row[d] = dim.MapCode(ft.Dims[d][r], levels[d])
		}
		meas = ft.MeasureRow(r, meas)
		out.Append(row, meas)
	}
	return out, flat, nil
}

// runHeightAblation isolates §3.1's core argument: the tallest BUC-style
// plan (P3) pushes expensive sorts to coarse granularities where they are
// shared by whole pipelines, so it must beat the shortest plan (P2),
// which re-sorts fine-grained data for every level combination.
func (h *Harness) runHeightAblation() (map[string]*Result, error) {
	density := h.cfg.APBDensities[0]
	ft, hier, err := gen.APB(density, h.cfg.Seed)
	if err != nil {
		return nil, err
	}
	res := &Result{ID: "ablation-height", Title: "Hierarchical plan height: tallest (P3) vs shortest (P2)",
		Header: []string{"plan", "construction", "cube size"},
		Notes:  []string{fmt.Sprintf("APB-1 density %g (%s tuples); identical cubes, different traversals", density, fmtCount(int64(ft.Len())))}}
	tall, err := h.buildCURE(filepath.Join(h.cfg.WorkDir, "height_p3"), ft, hier, nil)
	if err != nil {
		return nil, err
	}
	res.AddRow("P3 (tallest, CURE)", fmtDur(tall.Elapsed.Seconds()), fmtBytes(tall.Sizes.Total()))
	short, err := h.buildCURE(filepath.Join(h.cfg.WorkDir, "height_p2"), ft, hier, core.ShortestPlan)
	if err != nil {
		return nil, err
	}
	res.AddRow("P2 (shortest)", fmtDur(short.Elapsed.Seconds()), fmtBytes(short.Sizes.Total()))
	return map[string]*Result{"ablation-height": res}, nil
}
