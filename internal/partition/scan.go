package partition

import (
	"encoding/binary"
	"fmt"
	"sync"

	"cure/internal/obsv"
	"cure/internal/par"
	"cure/internal/relation"
)

// This file is the parallel 2R1W scan pipeline. The fact file is split
// into contiguous row-range shards that par.Ordered hands to workers;
// each decodes its shard batch-wise (relation.ScanBatches), routes each
// row to its partition through per-worker write buffers that flush in
// large chunks to mutex-guarded shared writers, and folds the in-memory
// nodes into per-shard nodeHash accumulators. The ordered commit merges
// shard accumulators into the final nodes in ascending shard order,
// which makes the result — the group order, representatives, min
// row-ids, and (with exact arithmetic) the aggregates — identical to
// what one sequential scan produces, at any worker count. See DESIGN.md
// §12 for the determinism argument.

// ScanConfig tunes the parallel scan pipeline. The zero value is the
// sequential pipeline with default batch/shard sizes.
type ScanConfig struct {
	// Parallelism is the target worker count including the calling
	// goroutine; values ≤ 1 scan sequentially. The scan is a build's
	// first phase, so it grants its helpers from a limiter of its own.
	Parallelism int
	// Reg receives partition.scan.* counters; Span parents the
	// per-shard "scan" child spans. Both may be nil.
	Reg  *obsv.Registry
	Span *obsv.Span

	// batchRows is the decode batch size in rows (≤ 0 picks enough rows
	// for relation.DefaultScanBatchBytes); shardRows is the shard size in
	// rows (≤ 0 picks scanShardBatches decode batches). Shard boundaries
	// are a pure function of the file and shardRows — never of
	// Parallelism — so traces are reproducible across worker counts.
	// Only tests set them, to get many small shards from a small file.
	batchRows int
	shardRows int64
}

const (
	// scanShardBatches is the default shard size in decode batches.
	scanShardBatches = 8
	// scanFlushBytes is the per-partition write-buffer flush threshold.
	scanFlushBytes = 256 << 10
)

// rowFunc routes and folds row i of a decoded batch: it returns the
// row's partition index after folding the row into the shard's node
// hashes. Folds read dimension codes straight out of the batch's
// columns and pack node keys into w's word scratch — no per-row
// column→row copy, no byte-key intermediate.
type rowFunc func(b *relation.Batch, i int, rowid int64, w *scanWorker, hashes []*nodeHash) (int, error)

// scanWorker is one worker slot's private state: fold scratch and the
// per-partition write buffers.
type scanWorker struct {
	meas   []float64 // measure scratch for the node fold
	kwords []uint64  // packed node-key scratch (two codes per word)
	bufs   [][]byte  // pending encoded rows (row bytes + row-id), per partition
	rows   []int     // pending row counts, per partition
}

func newScanWorker(nDims, nMeas, numParts int) *scanWorker {
	return &scanWorker{
		meas:   make([]float64, nMeas),
		kwords: make([]uint64, (4*nDims+7)/8),
		bufs:   make([][]byte, numParts),
		rows:   make([]int, numParts),
	}
}

// runScanPipeline executes the full pass: it returns the final node
// hashes (numHashes of them, one per N_j, merged in shard order).
// Partition rows land in writers; per-partition totals are read back
// from the writers.
func runScanPipeline(fr *relation.FactReader, cfg ScanConfig, writers []*relation.FactWriter,
	numHashes int, specs []relation.AggSpec, nDims int, fn rowFunc) ([]*nodeHash, error) {

	rows := fr.Rows()
	batchRows := cfg.batchRows
	if batchRows <= 0 {
		batchRows = relation.BatchRowsFor(fr.RowWidth())
	}
	shardRows := cfg.shardRows
	if shardRows <= 0 {
		shardRows = int64(batchRows) * scanShardBatches
	}
	numShards := int((rows + shardRows - 1) / shardRows)

	merged := make([]*nodeHash, numHashes)
	for i := range merged {
		merged[i] = newNodeHash(specs, nDims)
	}
	if numShards == 0 {
		return merged, nil
	}

	lim := par.NewLimiter(min(cfg.Parallelism, numShards))
	workers := make([]*scanWorker, lim.Slots())
	partMu := make([]sync.Mutex, len(writers))
	logicalWidth := fr.Schema().RowWidth()
	recWidth := logicalWidth + 8

	var cFlushes, cStalls, cBatches *obsv.Counter
	if cfg.Reg != nil {
		cFlushes = cfg.Reg.Counter("partition.scan.flushes")
		cStalls = cfg.Reg.Counter("partition.scan.flush_stalls")
		cBatches = cfg.Reg.Counter("partition.scan.batches")
		cfg.Reg.Counter("partition.scan.shards").Add(int64(numShards))
		cfg.Reg.Gauge("partition.scan.workers").Set(int64(lim.Slots()))
	}

	flush := func(w *scanWorker, p int) error {
		n := w.rows[p]
		if n == 0 {
			return nil
		}
		if !partMu[p].TryLock() {
			if cStalls != nil {
				cStalls.Inc()
			}
			partMu[p].Lock()
		}
		err := writers[p].WriteRawRows(w.bufs[p], n)
		partMu[p].Unlock()
		w.bufs[p] = w.bufs[p][:0]
		w.rows[p] = 0
		if cFlushes != nil {
			cFlushes.Inc()
		}
		return err
	}

	scanShard := func(slot, s int) ([]*nodeHash, error) {
		start := int64(s) * shardRows
		end := min(start+shardRows, rows)
		defer obsv.CapturePanic(cfg.Reg, func() string {
			return fmt.Sprintf("scan worker slot=%d shard=%d rows=%d-%d", slot, s, start, end)
		})
		w := workers[slot]
		if w == nil {
			w = newScanWorker(fr.Schema().NumDims(), fr.Schema().NumMeasures(), len(writers))
			workers[slot] = w
		}
		hashes := make([]*nodeHash, numHashes)
		for i := range hashes {
			hashes[i] = newNodeHash(specs, nDims)
		}
		var idBuf [8]byte
		sp := cfg.Span.Child("scan")
		err := fr.ScanBatches(start, end, batchRows, func(b *relation.Batch) error {
			for i := 0; i < b.N; i++ {
				rowid := b.RowID(i)
				p, rerr := fn(b, i, rowid, w, hashes)
				if rerr != nil {
					return rerr
				}
				binary.LittleEndian.PutUint64(idBuf[:], uint64(rowid))
				w.bufs[p] = append(w.bufs[p], b.Raw[i*b.Width:i*b.Width+logicalWidth]...)
				w.bufs[p] = append(w.bufs[p], idBuf[:]...)
				w.rows[p]++
				if len(w.bufs[p]) >= scanFlushBytes {
					if ferr := flush(w, p); ferr != nil {
						return ferr
					}
				}
			}
			if cBatches != nil {
				cBatches.Inc()
			}
			return nil
		})
		sp.AddRowsIn(end - start)
		sp.AddBytesRead((end - start) * int64(fr.RowWidth()))
		sp.AddBytesWritten((end - start) * int64(recWidth))
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("partition: shard %d (rows %d-%d): %w", s, start, end, err)
		}
		return hashes, nil
	}
	stalls, err := par.Ordered(lim, numShards, scanShard, func(_ int, hashes []*nodeHash) error {
		for i, h := range hashes {
			merged[i].mergeFrom(h)
		}
		return nil
	})
	if cfg.Reg != nil {
		cfg.Reg.Counter("partition.scan.merge_stalls").Add(stalls)
	}
	if err != nil {
		return nil, err
	}
	// Each slot's buffered rows go out once every shard is scanned.
	for _, w := range workers {
		for p := 0; w != nil && p < len(writers); p++ {
			if err := flush(w, p); err != nil {
				return nil, err
			}
		}
	}
	return merged, nil
}

// reportSkew publishes the partition row-count skew gauges: maximum and
// mean rows per partition. A max far above the mean means the chosen
// level's value distribution is pathological — visible in /metrics and
// surfaced by `curectl doctor`.
func reportSkew(reg *obsv.Registry, rowsPerPart []int64) {
	if reg == nil || len(rowsPerPart) == 0 {
		return
	}
	var max, total int64
	for _, r := range rowsPerPart {
		if r > max {
			max = r
		}
		total += r
	}
	reg.Gauge("partition.skew.max_rows").Set(max)
	reg.Gauge("partition.skew.mean_rows").Set(total / int64(len(rowsPerPart)))
}
