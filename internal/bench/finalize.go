package bench

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"

	"cure/internal/core"
	"cure/internal/gen"
	"cure/internal/obsv"
	"cure/internal/storage"
)

// runFinalizeThroughput times the finalize extent pipeline in isolation:
// the APB-1 hierarchical cube (CURE+, middle density) is built with the
// construction phase held sequential while FinalizeParallelism sweeps
// P ∈ {1, 2, 8}. Every arm's extent files and manifest must be
// byte-identical to the P=1 run — the pipeline's ordered commit is the
// whole point.
func (h *Harness) runFinalizeThroughput() (map[string]*Result, error) {
	density := h.cfg.APBDensities[len(h.cfg.APBDensities)/2]
	factPath := filepath.Join(h.cfg.WorkDir, fmt.Sprintf("apb_%g.bin", density))
	if _, err := fileSize(factPath); err != nil {
		if _, _, err := gen.APBToFile(factPath, density, h.cfg.Seed); err != nil {
			return nil, err
		}
	}
	tuples := gen.APBTuples(density)

	res := &Result{
		ID:     "finalize-throughput",
		Title:  "Finalize pipeline: one parallel pass per relation file",
		Header: []string{"P", "finalize", "extent passes", "speedup", "identical"},
		Notes: []string{
			fmt.Sprintf("APB-1 CURE+ cube at density %g (%s tuples); construction held sequential, FinalizeParallelism sweeps the extent pipeline", density, fmtCount(int64(tuples))),
			"best of 3 builds per arm; identical = nt/tt/cat/agg/ttbm.bin and manifest byte-equal to the P=1 run",
		},
	}

	const reps = 3
	var refDir string
	var baseSec float64
	for _, par := range []int{1, 2, 8} {
		dir := filepath.Join(h.cfg.WorkDir, fmt.Sprintf("finalize_p%d", par))
		var best *storage.FinalizeStats
		for r := 0; r < reps; r++ {
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
			if _, err := core.Build(core.Options{
				Dir:                 dir,
				FactPath:            factPath,
				Hier:                gen.APBSchema(),
				AggSpecs:            stdSpecs(),
				Plus:                true,
				Parallelism:         1,
				FinalizeParallelism: par,
				Metrics:             h.reg,
			}); err != nil {
				return nil, err
			}
			for path, sec := range obsv.PhaseTotals(h.reg.TakeSpans()) {
				h.phases[path] += sec
			}
			st, err := storage.ReadFinalizeStats(dir)
			if err != nil {
				return nil, err
			}
			if best == nil || finalizeSec(st) < finalizeSec(best) {
				best = st
			}
		}
		finSec := finalizeSec(best)
		identical := "ref"
		if refDir == "" {
			refDir, baseSec = dir, finSec
		} else if same, err := cubesByteEqual(refDir, dir); err != nil {
			return nil, err
		} else if same {
			identical = "yes"
		} else {
			identical = "NO"
		}
		res.AddRow(fmt.Sprintf("%d", par), fmtDur(finSec), fmtDur(best.CompressSec),
			fmt.Sprintf("%.2fx", baseSec/finSec), identical)
	}
	return map[string]*Result{"finalize-throughput": res}, nil
}

// finalizeSec is the total finalize wall clock a sidecar records.
func finalizeSec(st *storage.FinalizeStats) float64 {
	return st.CompactSec + st.CompressSec + st.CommitSec
}

// cubesByteEqual reports whether two cube directories hold byte-equal
// extent files and manifests (the finalize sidecar is excluded — it
// records wall-clock timings).
func cubesByteEqual(a, b string) (bool, error) {
	for _, name := range []string{
		storage.NTFile, storage.TTFile, storage.CATFile,
		storage.AggFile, storage.BitmapFile, storage.ManifestFile,
	} {
		da, errA := os.ReadFile(filepath.Join(a, name))
		db, errB := os.ReadFile(filepath.Join(b, name))
		if os.IsNotExist(errA) && os.IsNotExist(errB) {
			continue
		}
		if errA != nil {
			return false, errA
		}
		if errB != nil {
			return false, errB
		}
		if !bytes.Equal(da, db) {
			return false, nil
		}
	}
	return true, nil
}
