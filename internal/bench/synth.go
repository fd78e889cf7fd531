package bench

import (
	"fmt"
	"path/filepath"

	"cure/internal/bubst"
	"cure/internal/buc"
	"cure/internal/core"
	"cure/internal/gen"
)

// bucDimLimit stops the BUC column of the dimensionality sweep: without
// trivial-tuple pruning the complete cube's tuple count grows as 2^D and
// becomes unbuildable long before the other methods struggle.
const bucDimLimit = 12

// runDims regenerates Figures 19–20: construction time and storage space
// as dimensionality grows (paper: T = 500,000, Z = 0.8, C_i = T/i,
// D = 8…28).
func (h *Harness) runDims() (map[string]*Result, error) {
	tuples := int(500_000 * h.cfg.Scale)
	if tuples < 1000 {
		tuples = 1000
	}
	notes := []string{
		fmt.Sprintf("T = %s tuples (paper: 500,000), Z = 0.8, C_i = T/i", fmtCount(int64(tuples))),
		fmt.Sprintf("BUC stopped beyond D = %d: complete-cube output grows as 2^D without TT pruning", bucDimLimit),
	}
	fig19 := &Result{ID: "fig19", Title: "Dimensionality vs construction time",
		Header: []string{"D", "BUC", "BU-BST", "CURE", "CURE+"}, Notes: notes}
	fig20 := &Result{ID: "fig20", Title: "Dimensionality vs storage space",
		Header: []string{"D", "BUC", "BU-BST", "CURE", "CURE+"}, Notes: notes}
	for d := 8; d <= h.cfg.MaxDims; d += 4 {
		ft, hier, err := gen.Synthetic(gen.SyntheticSpec{Dims: d, Tuples: tuples, Zipf: 0.8, Seed: h.cfg.Seed})
		if err != nil {
			return nil, err
		}
		dir := filepath.Join(h.cfg.WorkDir, fmt.Sprintf("dims%d", d))
		timeCells := []string{fmt.Sprintf("%d", d)}
		sizeCells := []string{fmt.Sprintf("%d", d)}
		if d <= bucDimLimit {
			st, err := buc.Build(ft, hier, stdSpecs(), buc.Options{Dir: filepath.Join(dir, "buc")})
			if err != nil {
				return nil, err
			}
			timeCells = append(timeCells, fmtDur(st.Elapsed.Seconds()))
			sizeCells = append(sizeCells, fmtBytes(st.Bytes))
		} else {
			timeCells = append(timeCells, "-")
			sizeCells = append(sizeCells, "-")
		}
		st, err := bubst.Build(ft, hier, stdSpecs(), bubst.Options{Dir: filepath.Join(dir, "bubst")})
		if err != nil {
			return nil, err
		}
		timeCells = append(timeCells, fmtDur(st.Elapsed.Seconds()))
		sizeCells = append(sizeCells, fmtBytes(st.Bytes))
		cs, err := h.buildCURE(filepath.Join(dir, "cure"), ft, hier, core.PlainLayout)
		if err != nil {
			return nil, err
		}
		timeCells = append(timeCells, fmtDur(cs.Elapsed.Seconds()))
		sizeCells = append(sizeCells, fmtBytes(cs.Sizes.Total()))
		cps, err := h.buildCURE(filepath.Join(dir, "cureplus"), ft, hier, nil)
		if err != nil {
			return nil, err
		}
		timeCells = append(timeCells, fmtDur(cps.Elapsed.Seconds()))
		sizeCells = append(sizeCells, fmtBytes(cps.Sizes.Total()))
		fig19.AddRow(timeCells...)
		fig20.AddRow(sizeCells...)
	}
	return map[string]*Result{"fig19": fig19, "fig20": fig20}, nil
}

// runSkew regenerates Figures 21–22: the effect of zipf skew (paper:
// D = 8, T = 500,000, Z = 0…2, counting sort enabled).
func (h *Harness) runSkew() (map[string]*Result, error) {
	tuples := int(500_000 * h.cfg.Scale)
	if tuples < 1000 {
		tuples = 1000
	}
	notes := []string{fmt.Sprintf("D = 8, T = %s tuples (paper: 500,000), C_i = T/i, CountingSort", fmtCount(int64(tuples)))}
	fig21 := &Result{ID: "fig21", Title: "Skew vs construction time",
		Header: []string{"Z", "BUC", "BU-BST", "CURE", "CURE+"}, Notes: notes}
	fig22 := &Result{ID: "fig22", Title: "Skew vs storage space",
		Header: []string{"Z", "BUC", "BU-BST", "CURE", "CURE+"}, Notes: notes}
	for _, z := range []float64{0, 0.4, 0.8, 1.2, 1.6, 2.0} {
		ft, hier, err := gen.Synthetic(gen.SyntheticSpec{Dims: 8, Tuples: tuples, Zipf: z, Seed: h.cfg.Seed})
		if err != nil {
			return nil, err
		}
		dir := filepath.Join(h.cfg.WorkDir, fmt.Sprintf("skew%.1f", z))
		zs := fmt.Sprintf("%.1f", z)
		timeCells := []string{zs}
		sizeCells := []string{zs}
		st, err := buc.Build(ft, hier, stdSpecs(), buc.Options{Dir: filepath.Join(dir, "buc")})
		if err != nil {
			return nil, err
		}
		timeCells = append(timeCells, fmtDur(st.Elapsed.Seconds()))
		sizeCells = append(sizeCells, fmtBytes(st.Bytes))
		bs, err := bubst.Build(ft, hier, stdSpecs(), bubst.Options{Dir: filepath.Join(dir, "bubst")})
		if err != nil {
			return nil, err
		}
		timeCells = append(timeCells, fmtDur(bs.Elapsed.Seconds()))
		sizeCells = append(sizeCells, fmtBytes(bs.Bytes))
		cs, err := h.buildCURE(filepath.Join(dir, "cure"), ft, hier, core.PlainLayout)
		if err != nil {
			return nil, err
		}
		timeCells = append(timeCells, fmtDur(cs.Elapsed.Seconds()))
		sizeCells = append(sizeCells, fmtBytes(cs.Sizes.Total()))
		cps, err := h.buildCURE(filepath.Join(dir, "cureplus"), ft, hier, nil)
		if err != nil {
			return nil, err
		}
		timeCells = append(timeCells, fmtDur(cps.Elapsed.Seconds()))
		sizeCells = append(sizeCells, fmtBytes(cps.Sizes.Total()))
		fig21.AddRow(timeCells...)
		fig22.AddRow(sizeCells...)
	}
	return map[string]*Result{"fig21": fig21, "fig22": fig22}, nil
}
