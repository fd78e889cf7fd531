package bench

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"math/rand"

	"cure/internal/core"
	"cure/internal/hierarchy"
	"cure/internal/obsv"
	"cure/internal/partition"
	"cure/internal/relation"
)

// runPartitionThroughput times the partitioning phase in isolation — the
// 2R1W pass that splits R into sound partitions while hash-building the
// in-memory node N. Arms: the legacy row-at-a-time scan (one pread and
// one buffered write per tuple, the pre-pipeline implementation kept
// here as the baseline), then the batched scan pipeline at 1, 4, and 8
// workers, then a batch-size ablation at 8 workers. Every pipeline arm's
// node N must be byte-identical to the 1-worker run, and its group count
// must match the legacy scan's.
func (h *Harness) runPartitionThroughput() (map[string]*Result, error) {
	tuples := int(50_000_000 * h.cfg.Scale)
	if tuples < 50_000 {
		tuples = 50_000
	}
	ft, hier, err := partitionFact(tuples, h.cfg.Seed+7)
	if err != nil {
		return nil, err
	}
	specs := stdSpecs()
	dir := filepath.Join(h.cfg.WorkDir, "partition_throughput")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	factPath := filepath.Join(dir, "fact.bin")
	if err := relation.WriteFactFile(factPath, ft); err != nil {
		return nil, err
	}
	rBytes := int64(tuples) * int64(ft.Schema.RowWidth())
	ft = nil // release ~32MB before the timed arms; every run reads the file
	// Ask for 8 partitions; N gets the whole budget (it is tiny here —
	// dimension 0 is flat, so N projects it out entirely).
	choice, err := partition.SelectLevel(hier.Dims[0], rBytes, (rBytes+7)/8, rBytes)
	if err != nil {
		return nil, err
	}

	res := &Result{
		ID:     "partition-throughput",
		Title:  "Partitioning phase: batched parallel scan vs row-at-a-time",
		Header: []string{"arm", "workers", "batch rows", "time", "throughput", "speedup", "N groups", "N identical"},
		Notes: []string{
			fmt.Sprintf("synthetic D=4 (A hierarchical 8192→512→32), %s tuples (%s), %d partitions on A@%d; speedup vs the rowwise scan",
				fmtCount(int64(tuples)), fmtBytes(rBytes), choice.NumPartitions, choice.Level),
			"best of 5 runs per arm; N identical = node N byte-equal to the 1-worker pipeline run; on a single-core host the worker sweep is bounded by the disk, the rowwise/batched gap by syscall count",
		},
	}

	// Each arm is timed as the best of timingReps runs — a single-core
	// host shares its one CPU with GC and writeback, so single-shot
	// timings swing by 2×; the minimum is the arm's real cost.
	const timingReps = 5
	best := func(run func() error) (float64, error) {
		bestSec := 0.0
		for r := 0; r < timingReps; r++ {
			runtime.GC()
			start := time.Now()
			if err := run(); err != nil {
				return 0, err
			}
			if sec := time.Since(start).Seconds(); r == 0 || sec < bestSec {
				bestSec = sec
			}
		}
		return bestSec, nil
	}

	root := h.reg.StartSpan("partition")
	var rowGroups int
	rowSec, err := best(func() error {
		var rerr error
		rowGroups, rerr = rowwisePartition(factPath, filepath.Join(dir, "rowwise"), hier, specs, choice)
		return rerr
	})
	if err != nil {
		root.End()
		return nil, err
	}
	res.AddRow("rowwise", "1", "-", fmtDur(rowSec), fmtRate(rBytes, rowSec), "1.00x", fmtCount(int64(rowGroups)), "-")

	var refN *relation.FactTable
	arms := []struct {
		workers, batch int
	}{{1, 0}, {4, 0}, {8, 0}, {8, 256}, {8, 4096}}
	for _, arm := range arms {
		outDir := filepath.Join(dir, fmt.Sprintf("scan_w%d_b%d", arm.workers, arm.batch))
		sp := root.Child("throughput")
		var pres *partition.Result
		sec, err := best(func() error {
			var rerr error
			pres, rerr = partition.PartitionScan(factPath, outDir, hier, specs, choice, partition.ScanConfig{
				Parallelism: arm.workers,
				BatchRows:   arm.batch,
				Reg:         h.reg,
				Span:        sp,
			})
			return rerr
		})
		sp.End()
		if err != nil {
			root.End()
			return nil, err
		}
		identical := "yes"
		if refN == nil {
			refN = pres.N
		} else if !tablesByteEqual(refN, pres.N) {
			identical = "NO"
		}
		if pres.N.Len() != rowGroups {
			identical = "NO (group count)"
		}
		batch := "default"
		if arm.batch > 0 {
			batch = fmt.Sprintf("%d", arm.batch)
		}
		res.AddRow("batched scan", fmt.Sprintf("%d", arm.workers), batch,
			fmtDur(sec), fmtRate(rBytes, sec), fmt.Sprintf("%.2fx", rowSec/sec),
			fmtCount(int64(pres.N.Len())), identical)
	}
	root.End()

	// One full out-of-core build rides along (single run): it exercises
	// the scan inside core.Build — budget forces ~8 partitions — so the
	// build/partition.split(/scan) and partition.cube phases reach the
	// regression baseline alongside the isolated pass timings.
	buildStart := time.Now()
	_, err = core.Build(core.Options{
		Dir:          filepath.Join(dir, "cube"),
		FactPath:     factPath,
		Hier:         hier,
		AggSpecs:     specs,
		MemoryBudget: rBytes / 8,
		Parallelism:  8,
		Metrics:      h.reg,
	})
	if err != nil {
		return nil, err
	}
	buildSec := time.Since(buildStart).Seconds()
	res.AddRow("out-of-core build", "8", "default", fmtDur(buildSec), fmtRate(rBytes, buildSec), "-", "-", "-")
	for path, sec := range obsv.PhaseTotals(h.reg.TakeSpans()) {
		h.phases[path] += sec
	}
	return map[string]*Result{"partition-throughput": res}, nil
}

// partitionFact generates the throughput dataset: a hierarchical first
// dimension (8192 → 512 → 32) for partition-level selection, modest
// cardinalities elsewhere so node N stays small (the experiment measures
// the scan path, not hash growth), and integer measures so N is exactly
// reproducible at any worker count.
func partitionFact(tuples int, seed int64) (*relation.FactTable, *hierarchy.Schema, error) {
	m01 := hierarchy.BuildContiguousMap(8192, 512)
	m02 := hierarchy.ComposeMaps(m01, hierarchy.BuildContiguousMap(512, 32))
	a, err := hierarchy.NewLinearDim("A", []string{"A0", "A1", "A2"}, []int32{8192, 512, 32}, [][]int32{m01, m02})
	if err != nil {
		return nil, nil, err
	}
	hier, err := hierarchy.NewSchema(a,
		hierarchy.NewFlatDim("B", 64), hierarchy.NewFlatDim("C", 8), hierarchy.NewFlatDim("D", 8))
	if err != nil {
		return nil, nil, err
	}
	schema := &relation.Schema{DimNames: []string{"A", "B", "C", "D"}, MeasureNames: []string{"M"}}
	ft := relation.NewFactTable(schema, tuples)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < tuples; i++ {
		ft.Append(
			[]int32{int32(rng.Intn(8192)), int32(rng.Intn(64)), int32(rng.Intn(8)), int32(rng.Intn(8))},
			[]float64{float64(rng.Intn(100))},
		)
	}
	return ft, hier, nil
}

// rowwisePartition is the legacy partitioner: one ReadRaw per tuple, one
// buffered write per tuple, node N folded through a string-keyed
// aggregator map. It exists only as the bench baseline the pipeline is
// measured against.
func rowwisePartition(factPath, outDir string, hier *hierarchy.Schema, specs []relation.AggSpec, choice partition.LevelChoice) (groups int, err error) {
	fr, err := relation.OpenFactReader(factPath)
	if err != nil {
		return 0, err
	}
	defer fr.Close()
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return 0, err
	}
	writers := make([]*relation.FactWriter, choice.NumPartitions)
	defer func() {
		for _, w := range writers {
			if w != nil {
				w.Close()
			}
		}
	}()
	for i := range writers {
		writers[i], err = relation.NewFactWriter(filepath.Join(outDir, fmt.Sprintf("part_%04d.bin", i)), fr.Schema(), true)
		if err != nil {
			return 0, err
		}
	}
	dim0 := hier.Dims[0]
	numDims := fr.Schema().NumDims()
	buf := make([]byte, fr.RowWidth())
	dims := make([]int32, numDims)
	meas := make([]float64, fr.Schema().NumMeasures())
	key := make([]byte, 4*numDims)
	node := map[string]*relation.Aggregator{}
	for i := int64(0); i < fr.Rows(); i++ {
		if err := fr.ReadRaw(i, buf); err != nil {
			return 0, err
		}
		fr.DecodeRow(buf, dims, meas)
		rowid := i
		if fr.HasRowIDs() {
			rowid = fr.RowIDOf(buf)
		}
		p := int(dim0.MapCode(dims[0], choice.Level)) % choice.NumPartitions
		if err := writers[p].WriteWithRowID(dims, meas, rowid); err != nil {
			return 0, err
		}
		binary.LittleEndian.PutUint32(key[0:], uint32(dim0.MapCode(dims[0], choice.Level+1)))
		for d := 1; d < numDims; d++ {
			binary.LittleEndian.PutUint32(key[4*d:], uint32(dims[d]))
		}
		g, ok := node[string(key)]
		if !ok {
			g = relation.NewAggregator(specs)
			node[string(key)] = g
		}
		g.AddValues(meas)
	}
	for i, w := range writers {
		if cerr := w.Close(); cerr != nil {
			return 0, cerr
		}
		writers[i] = nil
	}
	return len(node), nil
}

// tablesByteEqual reports exact equality of two fact tables — columns,
// order, and row-ids.
func tablesByteEqual(a, b *relation.FactTable) bool {
	return reflect.DeepEqual(a.Dims, b.Dims) &&
		reflect.DeepEqual(a.Measures, b.Measures) &&
		reflect.DeepEqual(a.RowIDs, b.RowIDs)
}

// fmtRate renders bytes/sec.
func fmtRate(bytes int64, sec float64) string {
	if sec <= 0 {
		return "-"
	}
	return fmtBytes(int64(float64(bytes)/sec)) + "/s"
}
