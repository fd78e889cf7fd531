package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"cure/internal/core"
	"cure/internal/gen"
	"cure/internal/lattice"
	"cure/internal/query"
)

// apbVariants are the CURE variants of Figures 23–25. Builds write CURE+;
// the CURE columns are the plain layout's baseline.
var apbVariants = []struct {
	label string
	mod   func(*core.Options)
}{
	{"CURE", core.PlainLayout},
	{"CURE+", func(o *core.Options) {}},
	{"CURE_DR", func(o *core.Options) { o.DimsInline = true; core.PlainLayout(o) }},
	{"CURE_DR+", func(o *core.Options) { o.DimsInline = true }},
}

// buildAPBVariant streams an APB fact table at the given density (cached
// per density in the work dir) and builds one variant over it.
func (h *Harness) buildAPBVariant(density float64, label string, mod func(*core.Options)) (*core.BuildStats, string, error) {
	factPath := filepath.Join(h.cfg.WorkDir, fmt.Sprintf("apb_%g.bin", density))
	if _, err := fileSize(factPath); err != nil {
		if _, _, err := gen.APBToFile(factPath, density, h.cfg.Seed); err != nil {
			return nil, "", err
		}
	}
	dir := filepath.Join(h.cfg.WorkDir, fmt.Sprintf("apb_%g_%s", density, label))
	opts := core.Options{
		Dir:          dir,
		FactPath:     factPath,
		Hier:         gen.APBSchema(),
		AggSpecs:     stdSpecs(),
		MemoryBudget: h.cfg.MemoryBudget,
		Metrics:      h.reg,
	}
	mod(&opts)
	stats, err := core.Build(opts)
	return stats, dir, err
}

// runAPB regenerates Figures 23–24: construction time and storage space
// of the four CURE variants across APB-1 densities, including the
// out-of-core path whenever the fact table exceeds the memory budget.
func (h *Harness) runAPB() (map[string]*Result, error) {
	notes := []string{
		fmt.Sprintf("APB-1 densities %v (paper: 0.4, 4, 40); memory budget %s", h.cfg.APBDensities, fmtBytes(h.cfg.MemoryBudget)),
	}
	fig23 := &Result{ID: "fig23", Title: "APB-1: construction time",
		Header: []string{"density", "tuples", "mode", "CURE", "CURE+", "CURE_DR", "CURE_DR+"}, Notes: notes}
	fig24 := &Result{ID: "fig24", Title: "APB-1: storage space",
		Header: []string{"density", "tuples", "fact size", "CURE", "CURE+", "CURE_DR", "CURE_DR+"}, Notes: notes}
	for _, density := range h.cfg.APBDensities {
		tuples := gen.APBTuples(density)
		timeCells := []string{fmt.Sprintf("%g", density), fmtCount(int64(tuples)), ""}
		sizeCells := []string{fmt.Sprintf("%g", density), fmtCount(int64(tuples)), fmtBytes(int64(tuples) * 28)}
		for _, v := range apbVariants {
			stats, _, err := h.buildAPBVariant(density, v.label, v.mod)
			if err != nil {
				return nil, err
			}
			if stats.Partitioned {
				timeCells[2] = fmt.Sprintf("out-of-core (L=%d, %d parts)", stats.PartitionLevel, stats.NumPartitions)
			} else if timeCells[2] == "" {
				timeCells[2] = "in-memory"
			}
			timeCells = append(timeCells, fmtDur(stats.Elapsed.Seconds()))
			sizeCells = append(sizeCells, fmtBytes(stats.Sizes.Total()))
		}
		fig23.AddRow(timeCells...)
		fig24.AddRow(sizeCells...)
	}
	return map[string]*Result{"fig23": fig23, "fig24": fig24}, nil
}

// runAPBQuery regenerates Figure 25: the 168 node queries of the APB-1
// cube at the middle density, ordered by result size and split into ten
// equal sets; average QRT per set for each CURE variant.
func (h *Harness) runAPBQuery() (map[string]*Result, error) {
	density := h.cfg.APBDensities[len(h.cfg.APBDensities)/2]
	fig25 := &Result{ID: "fig25", Title: "APB-1: average QRT by result-size decile",
		Header: []string{"set", "max result", "CURE", "CURE+", "CURE_DR", "CURE_DR+"},
		Notes: []string{
			fmt.Sprintf("all 168 node queries at density %g, ordered by result size, ten sets", density),
		}}
	type built struct {
		label string
		dir   string
	}
	var cubes []built
	for _, v := range apbVariants {
		_, dir, err := h.buildAPBVariant(density, v.label, v.mod)
		if err != nil {
			return nil, err
		}
		cubes = append(cubes, built{v.label, dir})
	}
	// Order the 168 nodes by result size using the first cube's counts.
	eng, err := query.OpenDefault(cubes[0].dir)
	if err != nil {
		return nil, err
	}
	enum := eng.Enum()
	type nodeSize struct {
		id   lattice.NodeID
		size int64
	}
	var nodes []nodeSize
	for _, id := range enum.AllNodes() {
		n, err := eng.NodeCount(id)
		if err != nil {
			eng.Close()
			return nil, err
		}
		nodes = append(nodes, nodeSize{id, n})
	}
	eng.Close()
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].size < nodes[j].size })
	const sets = 10
	per := (len(nodes) + sets - 1) / sets

	// Time each set on each cube.
	avg := make([][]float64, sets)
	for i := range avg {
		avg[i] = make([]float64, len(cubes))
	}
	for ci, c := range cubes {
		e, err := query.OpenDefault(c.dir)
		if err != nil {
			return nil, err
		}
		for si := 0; si < sets; si++ {
			lo, hi := si*per, (si+1)*per
			if hi > len(nodes) {
				hi = len(nodes)
			}
			start := time.Now()
			for _, ns := range nodes[lo:hi] {
				if err := e.Query(query.Spec{Node: ns.id}, func(query.Row) error { return nil }); err != nil {
					e.Close()
					return nil, err
				}
			}
			avg[si][ci] = time.Since(start).Seconds() / float64(hi-lo)
		}
		e.Close()
	}
	for si := 0; si < sets; si++ {
		hi := (si + 1) * per
		if hi > len(nodes) {
			hi = len(nodes)
		}
		cells := []string{fmt.Sprintf("%d", si+1), fmtCount(nodes[hi-1].size)}
		for ci := range cubes {
			cells = append(cells, fmtDur(avg[si][ci]))
		}
		fig25.AddRow(cells...)
	}
	return map[string]*Result{"fig25": fig25}, nil
}

// fileSize returns the size of a file or an error if it does not exist.
func fileSize(path string) (int64, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}
