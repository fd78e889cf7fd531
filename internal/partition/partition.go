// Package partition implements CURE's external partitioning (§4): the
// selection of the partitioning levels (observations 1–3 and Table 1's
// feasibility arithmetic), and the single-pass partitioner that splits a
// disk-resident fact table into memory-sized partitions sound on the
// partitioning levels while simultaneously hash-building the in-memory
// nodes N_j in the same pass.
//
// A partitioning prefix is the first k dimensions of the schema at levels
// L_0 … L_{k-1}. k is 1 — the algorithm of §4, partitions sound on A_L
// and one node N = A_{L+1} B_0 C_0 … — or 2, the extension to pairs of
// dimensions §4 mentions and omits ("the partitioning algorithm can be
// extended properly to work on pairs of dimensions") for when no level of
// the first dimension alone yields enough sound partitions. Node N_j holds
// dimension j at level L_j+1 and every other dimension at base, and covers
// the nodes the partitions cannot: those with dimension j above L_j and
// every earlier prefix dimension at or below its level.
package partition

import (
	"fmt"
	"os"
	"path/filepath"

	"cure/internal/hierarchy"
	"cure/internal/obsv"
	"cure/internal/relation"
)

// Choice is the outcome of partition-level selection, carrying the
// quantities Table 1 of the paper reports.
type Choice struct {
	// Levels are L_0 … L_{k-1}, the levels of the prefix dimensions 0 … k-1
	// partitioned on.
	Levels []int
	// NumPartitions is the number of partitions (⌈|R|/M⌉, achievable
	// because the prefix levels have at least that many value
	// combinations).
	NumPartitions int
	// PartitionBytes is the expected partition size under uniformity.
	PartitionBytes int64
	// NBytes[j] is the estimated size of node N_j, |R|·|D_{L_j+1}|/|D_0|
	// for prefix dimension D (observation 2).
	NBytes []int64
}

// SelectLevel picks the maximum level L of dim such that (a) partitioning
// on A_L can produce ⌈rBytes/partBudget⌉ memory-sized sound partitions
// (requires |A_L| ≥ that many distinct values) and (b) the node N built
// at level L+1 fits in nBudget, estimated as rBytes·|A_{L+1}|/|A_0|
// (observation 2; |A_{LT+1}| = 1, i.e. dimension 0 projected out).
//
// The decision trace goes to reg's trace sink: one select-level event per
// candidate level, recording why it was rejected (too few distinct values
// for soundness, or node N over budget) or that it was chosen. reg may be
// nil. It returns an error when no level qualifies; SelectLevelPair is
// the fallback (core.ChooseStrategy tries it next).
func SelectLevel(dim *hierarchy.Dim, rBytes, partBudget, nBudget int64, reg *obsv.Registry) (Choice, error) {
	return selectLevels([]*hierarchy.Dim{dim}, rBytes, partBudget, nBudget, reg)
}

// SelectLevelPair picks the maximum (L, M) (lexicographically, L first)
// such that the pair-value space |A_L|·|B_M| is large enough for the
// required number of sound partitions and both in-memory nodes
// N_0 = A_{L+1} B_0 C_0 … and N_1 = A_0 B_{M+1} C_0 … fit nBudget. Its
// select-level events carry both levels.
func SelectLevelPair(dimA, dimB *hierarchy.Dim, rBytes, partBudget, nBudget int64, reg *obsv.Registry) (Choice, error) {
	return selectLevels([]*hierarchy.Dim{dimA, dimB}, rBytes, partBudget, nBudget, reg)
}

// selectLevels searches the level vectors of the prefix dims in
// descending lexicographic order and returns the first feasible one.
func selectLevels(dims []*hierarchy.Dim, rBytes, partBudget, nBudget int64, reg *obsv.Registry) (Choice, error) {
	if rBytes <= 0 || partBudget <= 0 || nBudget <= 0 {
		return Choice{}, fmt.Errorf("partition: non-positive sizes (R=%d, M=%d, N budget=%d)", rBytes, partBudget, nBudget)
	}
	tr := reg.Trace()
	// Declare the split of the build budget so heap samples taken during
	// the partitioned phases can be judged against it from outside.
	reg.Gauge("partition.budget.partition_bytes").Set(partBudget)
	reg.Gauge("partition.budget.n_bytes").Set(nBudget)
	need := max((rBytes+partBudget-1)/partBudget, 1)
	levels := make([]int, len(dims))
	nBytes := make([]int64, len(dims))
	// feasible judges the complete candidate in levels: soundness first,
	// then the largest N_j against the budget.
	feasible := func() bool {
		card := int64(1)
		for j, d := range dims {
			card *= int64(d.Card(levels[j]))
		}
		var nMax int64
		verdict, ok := "selected", true
		if card < need {
			verdict, ok = "cardinality below partition count", false
		} else {
			for j, d := range dims {
				nBytes[j] = rBytes * int64(d.Card(levels[j]+1)) / int64(d.Card(0)) // |D_{AllLevel}| = 1
				nMax = max(nMax, nBytes[j])
			}
			if nMax > nBudget {
				verdict, ok = "node N over budget", false
			}
		}
		if tr != nil {
			ev := obsv.LevelEvent{
				Ev: "select-level", Dim: dims[0].Name, Level: levels[0], LevelB: -1,
				Card: card, Need: need, NBytes: nMax, NBudget: nBudget,
				Feasible: ok, Reason: verdict,
			}
			if len(dims) > 1 {
				ev.LevelB = levels[1]
			}
			tr.Emit(ev)
		}
		return ok
	}
	var search func(j int) bool
	search = func(j int) bool {
		if j == len(dims) {
			return feasible()
		}
		for l := dims[j].AllLevel() - 1; l >= 0; l-- {
			levels[j] = l
			if search(j + 1) {
				return true
			}
		}
		return false
	}
	if !search(0) {
		names := dims[0].Name
		if len(dims) > 1 {
			names = fmt.Sprintf("(%s, %s)", dims[0].Name, dims[1].Name)
		}
		return Choice{}, fmt.Errorf("partition: no levels of %s yield %d sound partitions with every N under %d bytes", names, need, nBudget)
	}
	reg.Gauge("partition.level").Set(int64(levels[0]))
	reg.Gauge("partition.count").Set(need)
	return Choice{
		Levels:         levels,
		NumPartitions:  int(need),
		PartitionBytes: (rBytes + need - 1) / need,
		NBytes:         nBytes,
	}, nil
}

// Result is what PartitionScan produces: the partition files (sound on
// the prefix levels) and the in-memory nodes N_j.
type Result struct {
	Choice Choice
	// PartitionPaths are the fact files of the partitions, each carrying
	// original row-ids.
	PartitionPaths []string
	// N[j] is the in-memory node N_j: dimension j at level L_j+1, every
	// other dimension at base. Its dimension-j column holds
	// *representative base codes* (the first base code seen per group);
	// its measures are the Y aggregate columns followed by a source-tuple
	// count column; RowIDs hold the minimum original row-id per group.
	N []*relation.FactTable
	// NSpecs are the aggregate specs to use when cubing over any N_j: the
	// original specs rewritten against its pre-aggregated columns.
	NSpecs []relation.AggSpec
	// NCountCol is the index of the source-count measure column.
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
// tuple to its partition — the mixed-radix code of its prefix levels
// modulo the partition count (code_0 for k = 1, code_0·|B_M| + code_1 for
// k = 2), sound because equal prefix values always land together — and
// folding it into every in-memory node N_j via hashing. Partition files
// are written under dir.
//
// Each prefix dimension's hierarchy must be consistent above its level
// (level maps for l > L_j+1 must factor through level L_j+1), which
// PartitionScan verifies; this is what lets N_j's representative base
// codes stand in for their groups at every coarser level.
//
// cfg carries the scan knobs — worker count, batch and shard sizing, the
// parent span for per-shard scan children — and the registry for I/O
// accounting: the single scan of R is charged to partition.bytes_read,
// partition file volumes to partition.bytes_written (§4's
// 2-reads-1-write bound is then checkable as bytes_read ≈ 2 ×
// bytes_written once the cubing phase re-reads the partitions), and a
// partition event per file records its rows and bytes. The result is
// identical at every parallelism level: each N_j comes out in the exact
// group order a sequential scan produces (see nodeHash), and partition
// files hold the same row multiset with original row-ids (row order
// within a partition file may differ under parallelism).
func PartitionScan(factPath, dir string, hier *hierarchy.Schema, specs []relation.AggSpec, choice Choice, cfg ScanConfig) (res *Result, err error) {
	k := len(choice.Levels)
	if k < 1 || k > 2 || k > hier.NumDims() {
		return nil, fmt.Errorf("partition: a prefix of %d dimensions over %d (want 1 or 2)", k, hier.NumDims())
	}
	fr, err := relation.OpenFactReader(factPath)
	if err != nil {
		return nil, err
	}
	defer fr.Close()
	if fr.Schema().NumDims() != hier.NumDims() {
		return nil, fmt.Errorf("partition: fact table has %d dims, hierarchy %d", fr.Schema().NumDims(), hier.NumDims())
	}
	dims := hier.Dims[:k]
	radix := make([]int64, k) // |D_{L_j}|: the digit base of the routing code
	for j, d := range dims {
		lj := choice.Levels[j]
		radix[j] = int64(d.Card(lj))
		for l := lj + 2; l < d.AllLevel(); l++ {
			if !d.FactorsThrough(lj+1, l) {
				return nil, fmt.Errorf("partition: level %s of %s does not factor through %s; N cannot represent it",
					d.LevelName(l), d.Name, d.LevelName(lj+1))
			}
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

	numDims := hier.NumDims()
	nSchema := &relation.Schema{
		DimNames:     fr.Schema().DimNames,
		MeasureNames: append(append([]string{}, aggColNames(specs)...), "__count"),
	}
	levels := choice.Levels
	fold := func(b *relation.Batch, i int, rowid int64, w *scanWorker, hashes []*nodeHash) (int, error) {
		var code int64
		for j, d := range dims {
			base := b.Dims[j][i]
			c := d.MapCode(base, levels[j])
			if c < 0 {
				return 0, fmt.Errorf("partition: dim %s maps base code %d to negative level-%d code %d",
					d.Name, base, levels[j], c)
			}
			code = code*radix[j] + int64(c)
		}
		for m := range w.meas {
			w.meas[m] = b.Meas[m][i]
		}
		// Node keys: base codes packed two 4-byte codes per word; N_j's key
		// swaps dimension j's code for its level-(L_j+1) code.
		kw := w.kwords
		clear(kw)
		for d := 0; d < numDims; d++ {
			kw[d>>1] |= uint64(uint32(b.Dims[d][i])) << (uint(d&1) * 32)
		}
		for j, d := range dims {
			shift := uint(j&1) * 32
			word := kw[j>>1]
			kw[j>>1] = word&^(0xffffffff<<shift) | uint64(uint32(d.MapCode(b.Dims[j][i], levels[j]+1)))<<shift
			if hashes[j].addRowWords(kw, w.meas, rowid) {
				hashes[j].appendRepFromBatch(b, i)
			}
			kw[j>>1] = word
		}
		return int(code % int64(numParts)), nil
	}
	hashes, err := runScanPipeline(fr, cfg, writers, k, specs, numDims, fold)
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
	res = &Result{
		Choice:         choice,
		PartitionPaths: paths,
		N:              make([]*relation.FactTable, k),
		NSpecs:         DerivedSpecs(specs, len(specs)),
		NCountCol:      len(specs),
	}
	var groups int64
	for j, h := range hashes {
		res.N[j] = h.materialize(nSchema)
		groups += int64(h.n)
	}
	if reg := cfg.Reg; reg != nil {
		reg.Counter("partition.bytes_read").Add(fr.Rows() * int64(fr.RowWidth()))
		reg.Counter("partition.rows").Add(fr.Rows())
		reg.Gauge("partition.n_groups").Set(groups)
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
	return res, nil
}

// aggColNames derives N's aggregate column names.
func aggColNames(specs []relation.AggSpec) []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = fmt.Sprintf("%s_%d", s.Func, i)
	}
	return out
}
