package partition

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"cure/internal/obsv"
	"cure/internal/relation"
)

// This file is the parallel 2R1W scan pipeline. The fact file is split
// into contiguous row-range shards; workers claim shards from an atomic
// counter, decode them batch-wise (relation.ScanBatches), route each row
// to its partition through per-worker write buffers that flush in large
// chunks to mutex-guarded shared writers, and fold the in-memory nodes
// into per-shard nodeHash accumulators. Shard accumulators merge into
// the final nodes in ascending shard order, which makes the result — the
// group order, representatives, min row-ids, and (with exact arithmetic)
// the aggregates — identical to what one sequential scan produces, at
// any worker count. See DESIGN.md §12 for the determinism argument.

// ScanConfig tunes the parallel scan pipeline. The zero value is the
// sequential pipeline with default batch/shard sizes.
type ScanConfig struct {
	// Parallelism is the target worker count including the calling
	// goroutine; values ≤ 1 scan sequentially. The scan is a build's
	// first phase, so its Parallelism-1 helpers start unconditionally.
	Parallelism int
	// BatchRows is the decode batch size in rows (≤ 0 picks enough rows
	// for relation.DefaultScanBatchBytes).
	BatchRows int
	// ShardRows is the shard size in rows (≤ 0 picks scanShardBatches
	// decode batches). Shard boundaries are a pure function of the file
	// and this knob — never of Parallelism — so traces are reproducible
	// across worker counts.
	ShardRows int64
	// Reg receives partition.scan.* counters; Span parents the
	// per-shard "scan" child spans. Both may be nil.
	Reg  *obsv.Registry
	Span *obsv.Span
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

// shardMerger folds per-shard accumulators into the final node hashes in
// ascending shard order. A worker submitting shard s parks until either
// s is the next shard to merge or the parking window has room; the head
// shard never waits, so the pipeline cannot deadlock. The window bounds
// how many completed shards a straggler can strand in memory.
type shardMerger struct {
	mu      sync.Mutex
	cond    *sync.Cond
	next    int
	pending map[int][]*nodeHash
	window  int
	merged  []*nodeHash
	aborted bool
	stalls  int64 // submissions that had to park
}

func newShardMerger(merged []*nodeHash, window int) *shardMerger {
	m := &shardMerger{pending: map[int][]*nodeHash{}, window: window, merged: merged}
	m.cond = sync.NewCond(&m.mu)
	return m
}

func (m *shardMerger) submit(s int, hashes []*nodeHash) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if s != m.next && len(m.pending) >= m.window {
		m.stalls++
		for s != m.next && len(m.pending) >= m.window && !m.aborted {
			m.cond.Wait()
		}
	}
	if m.aborted {
		return
	}
	m.pending[s] = hashes
	for {
		hs, ok := m.pending[m.next]
		if !ok {
			break
		}
		delete(m.pending, m.next)
		for i, h := range hs {
			m.merged[i].mergeFrom(h)
		}
		m.next++
	}
	m.cond.Broadcast()
}

// abort releases any parked submitters after a worker failure.
func (m *shardMerger) abort() {
	m.mu.Lock()
	m.aborted = true
	m.cond.Broadcast()
	m.mu.Unlock()
}

// scanWorker is one worker goroutine's private state: fold scratch and
// the per-partition write buffers.
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
	batchRows := cfg.BatchRows
	if batchRows <= 0 {
		batchRows = relation.BatchRowsFor(fr.RowWidth())
	}
	shardRows := cfg.ShardRows
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

	workers := cfg.Parallelism
	if workers < 1 {
		workers = 1
	}
	if workers > numShards {
		workers = numShards
	}
	merger := newShardMerger(merged, 4*workers)
	partMu := make([]sync.Mutex, len(writers))
	logicalWidth := fr.Schema().RowWidth()
	recWidth := logicalWidth + 8

	var (
		next     atomic.Int64
		failed   atomic.Bool
		errMu    sync.Mutex
		errs     []error
		panicMu  sync.Mutex
		panicVal any
	)
	fail := func(err error) {
		errMu.Lock()
		errs = append(errs, err)
		errMu.Unlock()
		failed.Store(true)
		merger.abort()
	}
	capture := func(v any) {
		panicMu.Lock()
		if panicVal == nil {
			panicVal = v
		}
		panicMu.Unlock()
		failed.Store(true)
		merger.abort()
	}

	var cFlushes, cStalls, cBatches *obsv.Counter
	if cfg.Reg != nil {
		cFlushes = cfg.Reg.Counter("partition.scan.flushes")
		cStalls = cfg.Reg.Counter("partition.scan.flush_stalls")
		cBatches = cfg.Reg.Counter("partition.scan.batches")
		cfg.Reg.Counter("partition.scan.shards").Add(int64(numShards))
		cfg.Reg.Gauge("partition.scan.workers").Set(int64(workers))
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

	worker := func() {
		w := newScanWorker(fr.Schema().NumDims(), fr.Schema().NumMeasures(), len(writers))
		var idBuf [8]byte
		for {
			s := int(next.Add(1)) - 1
			if s >= numShards || failed.Load() {
				break
			}
			start := int64(s) * shardRows
			end := start + shardRows
			if end > rows {
				end = rows
			}
			hashes := make([]*nodeHash, numHashes)
			for i := range hashes {
				hashes[i] = newNodeHash(specs, nDims)
			}
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
				fail(fmt.Errorf("partition: shard %d (rows %d-%d): %w", s, start, end, err))
				break
			}
			merger.submit(s, hashes)
		}
		// Drain this worker's remaining buffered rows even on failure of
		// another shard: writers are closed (and files deleted) by the
		// caller on error, but a clean exit must not lose rows.
		for p := range w.bufs {
			if w.rows[p] > 0 {
				if err := flush(w, p); err != nil {
					fail(err)
					return
				}
			}
		}
	}

	var wg sync.WaitGroup
	for i := 1; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					capture(v)
				}
			}()
			worker()
		}()
	}
	func() {
		defer func() {
			if v := recover(); v != nil {
				capture(v)
			}
		}()
		worker()
	}()
	wg.Wait()
	if panicVal != nil {
		panic(panicVal)
	}
	if cfg.Reg != nil {
		cfg.Reg.Counter("partition.scan.merge_stalls").Add(merger.stalls)
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
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
