package storage

import (
	"fmt"
	"os"
)

// The Reader's accessors stream rows; under the hood they fetch one block
// at a time — consulting the optional decoded-block cache first, so cached
// blocks cost neither the read nor the decode — and run tight per-column
// loops over the decoded buffers. All scratch state is per-call, so the
// paths stay safe for concurrent queries.

// blockFetcher streams the blocks of one extent. The local
// DecodedBlock is reused across blocks when no cache is attached (zero
// allocations steady-state); with a cache, misses decode into a fresh
// block that is then shared immutably between queries.
type blockFetcher struct {
	r        *Reader
	f        *os.File
	rel      uint8
	node     int64
	base     int64 // extent offset inside the file
	c        *ExtentCodec
	kinds    []colKind
	rows     int64 // extent row count
	rawWidth int64 // fixed-width bytes per row (decode accounting)
	// skipCache bypasses the block cache for one-shot passes (pinning
	// AGGREGATES) that would otherwise evict hot query blocks.
	skipCache bool

	enc   []byte
	local DecodedBlock
}

// blockRowCount returns the rows of block b (the last block may be
// partial).
func blockRowCount(c *ExtentCodec, rows int64, b int) int {
	lo := int64(b) * c.BlockRows
	hi := lo + c.BlockRows
	if hi > rows {
		hi = rows
	}
	return int(hi - lo)
}

// fetch returns block b decoded, via the cache when one is attached.
func (bf *blockFetcher) fetch(b int, io *IOStats) (*DecodedBlock, error) {
	cache := bf.r.blocks
	if bf.skipCache {
		cache = nil
	}
	if cache != nil {
		if db := cache.GetBlock(bf.rel, bf.node, b); db != nil {
			return db, nil
		}
	}
	lo, hi := bf.c.Offs[b], bf.c.Offs[b+1]
	n := hi - lo
	if int64(cap(bf.enc)) < n {
		bf.enc = make([]byte, n)
	}
	buf := bf.enc[:n]
	if _, err := bf.f.ReadAt(buf, bf.base+lo); err != nil {
		return nil, bf.wrap(b, err)
	}
	bf.r.account(io, n)
	want := blockRowCount(bf.c, bf.rows, b)
	db := &bf.local
	if cache != nil {
		db = &DecodedBlock{}
	}
	if _, err := decodeBlock(buf, bf.kinds, want, db); err != nil {
		return nil, bf.wrap(b, err)
	}
	decoded := int64(want) * bf.rawWidth
	io.addDecoded(decoded)
	bf.r.cDecBytes.Add(decoded)
	bf.r.cDecBlocks.Inc()
	if cache != nil {
		cache.PutBlock(bf.rel, bf.node, b, db, decoded)
	}
	return db, nil
}

// wrap names the extent and block a read or decode error came from.
func (bf *blockFetcher) wrap(b int, err error) error {
	if bf.rel == BlockRelAgg {
		return fmt.Errorf("storage: AGGREGATES: block %d: %w", b, err)
	}
	name := [...]string{BlockRelNT: "NT", BlockRelTT: "TT", BlockRelCAT: "CAT"}[bf.rel]
	return fmt.Errorf("storage: %s extent of node %d: block %d: %w", name, bf.node, b, err)
}

// scan visits the rows inside the given half-open extent-row ranges block
// by block: fn gets each overlapping block and the rows [lo, hi) of it
// that fall in the range. Blocks outside every range are neither read nor
// decoded.
func (bf *blockFetcher) scan(ranges []RowRange, io *IOStats, fn func(db *DecodedBlock, lo, hi int64) error) error {
	br := bf.c.BlockRows
	for _, rg := range ranges {
		if rg.Lo < 0 || rg.Hi > bf.rows || rg.Lo >= rg.Hi {
			continue
		}
		for b := int(rg.Lo / br); int64(b)*br < rg.Hi; b++ {
			db, err := bf.fetch(b, io)
			if err != nil {
				return err
			}
			base := int64(b) * br
			if err := fn(db, max(rg.Lo-base, 0), min(rg.Hi-base, int64(db.Rows))); err != nil {
				return err
			}
		}
	}
	return nil
}

// aggFetcher builds a block fetcher over the shared AGGREGATES extent.
func (r *Reader) aggFetcher(skipCache bool) *blockFetcher {
	return &blockFetcher{
		r: r, f: r.aggF, rel: BlockRelAgg, node: -1, base: 0,
		c: r.m.AggCodec, kinds: r.m.aggKinds(), rows: r.m.AggRows,
		rawWidth: int64(r.m.aggRowWidth()), skipCache: skipCache,
	}
}
