// Package partition implements CURE's external partitioning (§4): the
// selection of the partitioning level L on the first dimension
// (observations 1–3 and Table 1's feasibility arithmetic), and the
// single-pass partitioner that splits a disk-resident fact table into
// memory-sized partitions sound on A_L while simultaneously hash-building
// the in-memory node N = A_{L+1} B_0 C_0 ….
package partition

import (
	"fmt"
	"os"
	"path/filepath"

	"cure/internal/hierarchy"
	"cure/internal/obsv"
	"cure/internal/relation"
)

// LevelChoice is the outcome of partition-level selection, carrying the
// quantities Table 1 of the paper reports.
type LevelChoice struct {
	// Level is L, the level of dimension 0 partitioned on.
	Level int
	// NumPartitions is the number of partitions (⌈|R|/M⌉, achievable
	// because |A_L| ≥ that count).
	NumPartitions int
	// PartitionBytes is the expected partition size under uniformity.
	PartitionBytes int64
	// Ratio is |A_0| / |A_{L+1}|, the shrink factor of node N relative
	// to R (observation 2).
	Ratio float64
	// NBytes is the estimated size of node N.
	NBytes int64
}

// SelectLevel picks the maximum level L of dim such that (a) partitioning
// on A_L can produce ⌈rBytes/partBudget⌉ memory-sized sound partitions
// (requires |A_L| ≥ that many distinct values) and (b) the node N built
// at level L+1 fits in nBudget, estimated as rBytes·|A_{L+1}|/|A_0|
// (observation 2; |A_{LT+1}| = 1, i.e. dimension 0 projected out).
//
// It returns an error when no level qualifies; the paper notes the
// algorithm can then be extended to pairs of dimensions, which is
// SelectLevelPair (core.ChooseStrategy tries it next).
func SelectLevel(dim *hierarchy.Dim, rBytes, partBudget, nBudget int64) (LevelChoice, error) {
	return SelectLevelObs(dim, rBytes, partBudget, nBudget, nil)
}

// SelectLevelObs is SelectLevel with the decision trace streamed to reg's
// trace sink: one level event per candidate level, recording why it was
// rejected (too few distinct values for soundness, or node N over budget)
// or that it was chosen. A nil registry makes it identical to SelectLevel.
func SelectLevelObs(dim *hierarchy.Dim, rBytes, partBudget, nBudget int64, reg *obsv.Registry) (LevelChoice, error) {
	if rBytes <= 0 || partBudget <= 0 || nBudget <= 0 {
		return LevelChoice{}, fmt.Errorf("partition: non-positive sizes (R=%d, M=%d, N budget=%d)", rBytes, partBudget, nBudget)
	}
	tr := reg.Trace()
	// Declare the split of the build budget so heap samples taken during
	// the partitioned phases can be judged against it from outside.
	reg.Gauge("partition.budget.partition_bytes").Set(partBudget)
	reg.Gauge("partition.budget.n_bytes").Set(nBudget)
	need := (rBytes + partBudget - 1) / partBudget
	if need < 1 {
		need = 1
	}
	emit := func(l int, nBytes int64, feasible bool, reason string) {
		if tr == nil {
			return
		}
		tr.Emit(obsv.LevelEvent{
			Ev: "select-level", Dim: dim.Name, Level: l,
			Card: int64(dim.Card(l)), Need: need,
			NBytes: nBytes, NBudget: nBudget,
			Feasible: feasible, Reason: reason,
		})
	}
	base := int64(dim.Card(0))
	for l := dim.AllLevel() - 1; l >= 0; l-- {
		if int64(dim.Card(l)) < need {
			emit(l, 0, false, "cardinality below partition count")
			continue
		}
		nextCard := int64(dim.Card(l + 1)) // 1 when l+1 is ALL
		nBytes := rBytes * nextCard / base
		if nBytes > nBudget {
			emit(l, nBytes, false, "node N over budget")
			continue
		}
		emit(l, nBytes, true, "selected")
		reg.Gauge("partition.level").Set(int64(l))
		reg.Gauge("partition.count").Set(need)
		return LevelChoice{
			Level:          l,
			NumPartitions:  int(need),
			PartitionBytes: (rBytes + need - 1) / need,
			Ratio:          float64(base) / float64(nextCard),
			NBytes:         nBytes,
		}, nil
	}
	return LevelChoice{}, fmt.Errorf("partition: no level of %s yields %d sound partitions with N under %d bytes", dim.Name, need, nBudget)
}

// Result is what Partition produces: the partition files (sound on A_L)
// and the in-memory node N.
type Result struct {
	Choice LevelChoice
	// PartitionPaths are the fact files of the partitions, each carrying
	// original row-ids.
	PartitionPaths []string
	// N is the in-memory node A_{L+1} B_0 C_0 …. Its dimension-0 column
	// holds *representative base codes* (the first base code seen per
	// A_{L+1} group); its measures are the Y aggregate columns followed
	// by a source-tuple count column; RowIDs hold the minimum original
	// row-id per group.
	N *relation.FactTable
	// NSpecs are the aggregate specs to use when cubing over N: the
	// original specs rewritten against N's pre-aggregated columns.
	NSpecs []relation.AggSpec
	// NCountCol is the index of N's source-count measure column.
	NCountCol int
}

// DerivedSpecs rewrites aggregate specs for re-aggregation over a table
// whose measure column i holds the already-aggregated value of spec i and
// whose column countCol holds source counts: COUNT becomes SUM of counts,
// the distributive functions re-apply to their own column.
func DerivedSpecs(specs []relation.AggSpec, countCol int) []relation.AggSpec {
	out := make([]relation.AggSpec, len(specs))
	for i, s := range specs {
		switch s.Func {
		case relation.AggCount:
			out[i] = relation.AggSpec{Func: relation.AggSum, Measure: countCol}
		default:
			out[i] = relation.AggSpec{Func: s.Func, Measure: i}
		}
	}
	return out
}

// PartitionScan streams the fact table at factPath once, routing each
// tuple to its partition (A_L code modulo the partition count — sound on
// A_L because equal codes always land together) and folding it into the
// in-memory node N via hashing. Partition files are written under dir.
//
// The dimension-0 hierarchy must be consistent above L (level maps for
// l > L+1 must factor through level L+1), which PartitionScan verifies;
// this is what lets N's representative base codes stand in for their
// groups at every coarser level.
//
// cfg carries the scan knobs — worker count (drawn from cfg.Pool when
// set), batch and shard sizing, the parent span for per-shard scan
// children — and the registry for I/O accounting: the single scan of R is
// charged to partition.bytes_read, partition file volumes to
// partition.bytes_written (§4's 2-reads-1-write bound is then checkable as
// bytes_read ≈ 2 × bytes_written once the cubing phase re-reads the
// partitions), and a partition event per file records its rows and bytes.
// The result is identical at every parallelism level: the node N comes out
// in the exact group order a sequential scan produces (see nodeHash),
// and partition files hold the same row multiset with original row-ids
// (row order within a partition file may differ under parallelism).
func PartitionScan(factPath, dir string, hier *hierarchy.Schema, specs []relation.AggSpec, choice LevelChoice, cfg ScanConfig) (res *Result, err error) {
	fr, err := relation.OpenFactReader(factPath)
	if err != nil {
		return nil, err
	}
	defer fr.Close()
	if fr.Schema().NumDims() != hier.NumDims() {
		return nil, fmt.Errorf("partition: fact table has %d dims, hierarchy %d", fr.Schema().NumDims(), hier.NumDims())
	}
	dim0 := hier.Dims[0]
	for l := choice.Level + 2; l < dim0.AllLevel(); l++ {
		if !dim0.FactorsThrough(choice.Level+1, l) {
			return nil, fmt.Errorf("partition: level %s of %s does not factor through %s; N cannot represent it",
				dim0.LevelName(l), dim0.Name, dim0.LevelName(choice.Level+1))
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}

	numParts := choice.NumPartitions
	writers := make([]*relation.FactWriter, numParts)
	paths := make([]string, numParts)
	defer func() {
		if err != nil {
			for _, w := range writers {
				if w != nil {
					w.Close()
				}
			}
		}
	}()
	for i := range writers {
		paths[i] = filepath.Join(dir, fmt.Sprintf("part_%04d.bin", i))
		if writers[i], err = relation.NewFactWriter(paths[i], fr.Schema(), true); err != nil {
			return nil, err
		}
	}

	// N accumulates groups keyed by (A_{L+1} code, base codes of the
	// other dimensions).
	numDims := hier.NumDims()
	nSchema := &relation.Schema{
		DimNames:     fr.Schema().DimNames,
		MeasureNames: append(append([]string{}, aggColNames(specs)...), "__count"),
	}
	levelL := choice.Level
	fold := func(b *relation.Batch, i int, rowid int64, w *scanWorker, hashes []*nodeHash) (int, error) {
		d0 := b.Dims[0][i]
		code := dim0.MapCode(d0, levelL)
		if code < 0 {
			return 0, fmt.Errorf("partition: dim %s maps base code %d to negative level-%d code %d",
				dim0.Name, d0, levelL, code)
		}
		p := int(code) % numParts
		// Node key: dim 0 at L+1, every other dimension at base — packed
		// two 4-byte codes per word, same layout nodeHash.toWords builds.
		kw := w.kwords
		kw[0] = uint64(uint32(dim0.MapCode(d0, levelL+1)))
		for j := 1; j < len(kw); j++ {
			kw[j] = 0
		}
		for d := 1; d < numDims; d++ {
			kw[d>>1] |= uint64(uint32(b.Dims[d][i])) << (uint(d&1) * 32)
		}
		for m := range w.meas {
			w.meas[m] = b.Meas[m][i]
		}
		if hashes[0].addRowWords(kw, w.meas, rowid) {
			hashes[0].appendRepFromBatch(b, i)
		}
		return p, nil
	}
	hashes, err := runScanPipeline(fr, cfg, writers, 1, specs, numDims, fold)
	if err != nil {
		return nil, err
	}
	rowsPerPart := make([]int64, numParts)
	for i, w := range writers {
		rowsPerPart[i] = w.Rows()
		if cerr := w.Close(); cerr != nil {
			return nil, cerr
		}
	}
	n := hashes[0].materialize(nSchema)
	reg := cfg.Reg
	if reg != nil {
		reg.Counter("partition.bytes_read").Add(fr.Rows() * int64(fr.RowWidth()))
		reg.Counter("partition.rows").Add(fr.Rows())
		reg.Gauge("partition.n_groups").Set(int64(n.Len()))
		reportSkew(reg, rowsPerPart)
		tr := reg.Trace()
		for i, p := range paths {
			var size int64
			if fi, serr := os.Stat(p); serr == nil {
				size = fi.Size()
			}
			reg.Counter("partition.bytes_written").Add(size)
			if tr != nil {
				tr.Emit(obsv.PartitionEvent{Ev: "partition", Index: i, Rows: rowsPerPart[i], Bytes: size})
			}
		}
	}
	return &Result{
		Choice:         choice,
		PartitionPaths: paths,
		N:              n,
		NSpecs:         DerivedSpecs(specs, len(specs)),
		NCountCol:      len(specs),
	}, nil
}

// aggColNames derives N's aggregate column names.
func aggColNames(specs []relation.AggSpec) []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = fmt.Sprintf("%s_%d", s.Func, i)
	}
	return out
}
