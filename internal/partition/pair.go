package partition

import (
	"fmt"
	"os"
	"path/filepath"

	"cure/internal/hierarchy"
	"cure/internal/relation"
)

// PairChoice is the outcome of pair partition-level selection — the
// extension §4 of the paper mentions for the rare case where no level of
// the first dimension alone yields enough sound partitions ("the
// partitioning algorithm can be extended properly to work on pairs of
// dimensions"; the paper omits it for space, we implement it).
//
// Partitions are sound on the node {A_L, B_M}; two in-memory nodes take
// over everything the partitions cannot cover:
//
//	N1 = A_{L+1} B_0 C_0 …  (nodes with dimension 0 above level L or ALL)
//	N2 = A_0 B_{M+1} C_0 …  (nodes with dimension 0 ≤ L but dimension 1
//	                         above level M or ALL)
type PairChoice struct {
	// LevelA and LevelB are L and M.
	LevelA, LevelB int
	// NumPartitions is ⌈|R|/M_budget⌉, achievable because
	// |A_L|·|B_M| ≥ that count.
	NumPartitions int
	// PartitionBytes is the expected partition size under uniformity.
	PartitionBytes int64
	// N1Bytes and N2Bytes are the estimated sizes of the two in-memory
	// nodes.
	N1Bytes, N2Bytes int64
}

// SelectLevelPair picks the maximum (L, M) (lexicographically, L first)
// such that the pair-value space is large enough for the required number
// of sound partitions and both in-memory nodes fit their budget. It is
// the fallback for SelectLevel.
func SelectLevelPair(dimA, dimB *hierarchy.Dim, rBytes, partBudget, nBudget int64) (PairChoice, error) {
	if rBytes <= 0 || partBudget <= 0 || nBudget <= 0 {
		return PairChoice{}, fmt.Errorf("partition: non-positive sizes (R=%d, M=%d, N budget=%d)", rBytes, partBudget, nBudget)
	}
	need := (rBytes + partBudget - 1) / partBudget
	if need < 1 {
		need = 1
	}
	baseA := int64(dimA.Card(0))
	baseB := int64(dimB.Card(0))
	for la := dimA.AllLevel() - 1; la >= 0; la-- {
		n1 := rBytes * int64(dimA.Card(la+1)) / baseA
		if n1 > nBudget {
			continue
		}
		for lb := dimB.AllLevel() - 1; lb >= 0; lb-- {
			if int64(dimA.Card(la))*int64(dimB.Card(lb)) < need {
				continue
			}
			n2 := rBytes * int64(dimB.Card(lb+1)) / baseB
			if n2 > nBudget {
				continue
			}
			return PairChoice{
				LevelA:         la,
				LevelB:         lb,
				NumPartitions:  int(need),
				PartitionBytes: (rBytes + need - 1) / need,
				N1Bytes:        n1,
				N2Bytes:        n2,
			}, nil
		}
	}
	return PairChoice{}, fmt.Errorf("partition: no level pair of (%s, %s) yields %d sound partitions with N1/N2 under %d bytes",
		dimA.Name, dimB.Name, need, nBudget)
}

// PairResult is what PartitionPair produces.
type PairResult struct {
	Choice         PairChoice
	PartitionPaths []string
	// N1 groups by (A_{L+1}, B_0, C_0 …); N2 by (A_0, B_{M+1}, C_0 …).
	// Both carry representative base codes in the coarsened column, the
	// pre-aggregated measure columns, a source-count column, and minimum
	// original row-ids.
	N1, N2 *relation.FactTable
	// NSpecs re-aggregates either node under the original specs.
	NSpecs []relation.AggSpec
	// NCountCol is the index of the source-count measure column.
	NCountCol int
}

// PartitionPairScan streams the fact table once through the parallel scan
// pipeline (see PartitionScan), routing each tuple by its (A_L, B_M) pair
// code and hash-building both in-memory nodes in the same pass: same
// deterministic N1/N2 at every worker count, same partition-row
// multisets. Both affected dimensions must be hierarchy-consistent above
// their partitioning levels.
func PartitionPairScan(factPath, dir string, hier *hierarchy.Schema, specs []relation.AggSpec, choice PairChoice, cfg ScanConfig) (res *PairResult, err error) {
	if hier.NumDims() < 2 {
		return nil, fmt.Errorf("partition: pair partitioning needs at least 2 dimensions")
	}
	fr, err := relation.OpenFactReader(factPath)
	if err != nil {
		return nil, err
	}
	defer fr.Close()
	if fr.Schema().NumDims() != hier.NumDims() {
		return nil, fmt.Errorf("partition: fact table has %d dims, hierarchy %d", fr.Schema().NumDims(), hier.NumDims())
	}
	dimA, dimB := hier.Dims[0], hier.Dims[1]
	for l := choice.LevelA + 2; l < dimA.AllLevel(); l++ {
		if !dimA.FactorsThrough(choice.LevelA+1, l) {
			return nil, fmt.Errorf("partition: level %s of %s does not factor through %s",
				dimA.LevelName(l), dimA.Name, dimA.LevelName(choice.LevelA+1))
		}
	}
	for l := choice.LevelB + 2; l < dimB.AllLevel(); l++ {
		if !dimB.FactorsThrough(choice.LevelB+1, l) {
			return nil, fmt.Errorf("partition: level %s of %s does not factor through %s",
				dimB.LevelName(l), dimB.Name, dimB.LevelName(choice.LevelB+1))
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
		paths[i] = filepath.Join(dir, fmt.Sprintf("pair_%04d.bin", i))
		if writers[i], err = relation.NewFactWriter(paths[i], fr.Schema(), true); err != nil {
			return nil, err
		}
	}

	numDims := hier.NumDims()
	nSchema := &relation.Schema{
		DimNames:     fr.Schema().DimNames,
		MeasureNames: append(append([]string{}, aggColNames(specs)...), "__count"),
	}
	cardBM := int64(dimB.Card(choice.LevelB))
	la, lb := choice.LevelA, choice.LevelB
	fold := func(b *relation.Batch, i int, rowid int64, w *scanWorker, hashes []*nodeHash) (int, error) {
		d0, d1 := b.Dims[0][i], b.Dims[1][i]
		codeA := dimA.MapCode(d0, la)
		codeB := dimB.MapCode(d1, lb)
		if codeA < 0 || codeB < 0 {
			return 0, fmt.Errorf("partition: negative mapped pair code (%s@%d→%d, %s@%d→%d)",
				dimA.Name, d0, codeA, dimB.Name, d1, codeB)
		}
		pair := int64(codeA)*cardBM + int64(codeB)
		p := int(pair % int64(numParts))
		for m := range w.meas {
			w.meas[m] = b.Meas[m][i]
		}
		// Base codes packed two per word; the two node keys differ from
		// each other only in word 0 (dims 0 and 1 share it).
		kw := w.kwords
		for j := 1; j < len(kw); j++ {
			kw[j] = 0
		}
		for d := 2; d < numDims; d++ {
			kw[d>>1] |= uint64(uint32(b.Dims[d][i])) << (uint(d&1) * 32)
		}
		// N1 key: dim0 at L+1, everything else at base.
		kw[0] = uint64(uint32(dimA.MapCode(d0, la+1))) | uint64(uint32(d1))<<32
		if hashes[0].addRowWords(kw, w.meas, rowid) {
			hashes[0].appendRepFromBatch(b, i)
		}
		// N2 key: dim1 at M+1, everything else at base.
		kw[0] = uint64(uint32(d0)) | uint64(uint32(dimB.MapCode(d1, lb+1)))<<32
		if hashes[1].addRowWords(kw, w.meas, rowid) {
			hashes[1].appendRepFromBatch(b, i)
		}
		return p, nil
	}
	hashes, err := runScanPipeline(fr, cfg, writers, 2, specs, numDims, fold)
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
	reportSkew(cfg.Reg, rowsPerPart)
	return &PairResult{
		Choice:         choice,
		PartitionPaths: paths,
		N1:             hashes[0].materialize(nSchema),
		N2:             hashes[1].materialize(nSchema),
		NSpecs:         DerivedSpecs(specs, len(specs)),
		NCountCol:      len(specs),
	}, nil
}
