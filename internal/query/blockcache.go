package query

import (
	"container/list"
	"sync"

	"cure/internal/obsv"
	"cure/internal/storage"
)

// defaultBlockCacheBytes is the decoded-block cache budget when the
// option is left zero: enough for the hot blocks of the workload's
// working set without competing with the fact store for memory.
const defaultBlockCacheBytes = 32 << 20

// blockCache is a sharded LRU cache of decoded extent blocks, bounded by
// a raw-equivalent-bytes budget. It implements storage.BlockCache: the
// reader consults it before reading or decoding a compressed block, so a
// hit costs neither the pread nor the decode. Cached blocks are shared
// immutably between queries — the reader decodes misses into fresh
// blocks when a cache is attached, never into reused scratch.
type blockCache struct {
	shards []blockShard
	// Bound registry counters (nil-safe no-ops without a registry).
	cHits, cMisses, cEvicts *obsv.Counter
}

type blockShard struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	blocks   map[blockKey]*list.Element
	lru      *list.List // front = most recent
}

type blockKey struct {
	rel   uint8
	node  int64
	block int
}

type blockEntry struct {
	key   blockKey
	db    *storage.DecodedBlock
	bytes int64
}

// newBlockCache builds a decoded-block cache with the given budget in
// raw-equivalent bytes (0 = defaultBlockCacheBytes, negative = disabled,
// returning nil).
func newBlockCache(budget int64, reg *obsv.Registry) *blockCache {
	if budget < 0 {
		return nil
	}
	if budget == 0 {
		budget = defaultBlockCacheBytes
	}
	const numShards = 16 // lock stripes
	c := &blockCache{
		shards:  make([]blockShard, numShards),
		cHits:   reg.Counter("query.block_cache.hits"),
		cMisses: reg.Counter("query.block_cache.misses"),
		cEvicts: reg.Counter("query.block_cache.evictions"),
	}
	for i := range c.shards {
		c.shards[i] = blockShard{
			maxBytes: budget / int64(numShards),
			blocks:   map[blockKey]*list.Element{},
			lru:      list.New(),
		}
	}
	reg.Gauge("query.block_cache.budget_bytes").Set(budget)
	return c
}

func (c *blockCache) shard(k blockKey) *blockShard {
	h := uint64(k.node)*31 + uint64(k.block)*7 + uint64(k.rel)
	return &c.shards[h%uint64(len(c.shards))]
}

// GetBlock returns the cached decoded block or nil. The returned block
// is shared — callers must treat it as immutable.
func (c *blockCache) GetBlock(rel uint8, node int64, block int) *storage.DecodedBlock {
	k := blockKey{rel: rel, node: node, block: block}
	s := c.shard(k)
	s.mu.Lock()
	if el, ok := s.blocks[k]; ok {
		s.lru.MoveToFront(el)
		db := el.Value.(*blockEntry).db
		s.mu.Unlock()
		c.cHits.Inc()
		return db
	}
	s.mu.Unlock()
	c.cMisses.Inc()
	return nil
}

// PutBlock inserts a freshly decoded block, evicting LRU entries until
// the shard fits its budget. Blocks larger than the whole shard budget
// are not cached at all.
func (c *blockCache) PutBlock(rel uint8, node int64, block int, db *storage.DecodedBlock, decodedBytes int64) {
	k := blockKey{rel: rel, node: node, block: block}
	s := c.shard(k)
	if decodedBytes > s.maxBytes {
		return
	}
	s.mu.Lock()
	if _, ok := s.blocks[k]; ok {
		// Concurrent missers of one block insert once; the losers' decodes
		// are counted as the misses they were.
		s.mu.Unlock()
		return
	}
	for s.bytes+decodedBytes > s.maxBytes && s.lru.Len() > 0 {
		oldest := s.lru.Back()
		s.lru.Remove(oldest)
		ent := oldest.Value.(*blockEntry)
		delete(s.blocks, ent.key)
		s.bytes -= ent.bytes
		c.cEvicts.Inc()
	}
	s.blocks[k] = s.lru.PushFront(&blockEntry{key: k, db: db, bytes: decodedBytes})
	s.bytes += decodedBytes
	s.mu.Unlock()
}
