package core

import (
	"sync"

	"cure/internal/relation"
	"cure/internal/storage"
)

// resolverPageRows is the rows-per-page of the paged dimension resolver.
const resolverPageRows = 512

// resolverMaxPages bounds the paged resolver's memory (pages are evicted
// FIFO beyond this; finalize reads are clustered enough that a simple
// policy works).
const resolverMaxPages = 256

// newPagedResolver wraps a fact reader in a read-through page cache,
// serving base dimension codes by row-id. It exists for out-of-core
// CURE_DR builds, whose finalize pass dereferences one fact row per
// normal tuple. The resolver is mutex-guarded: parallel finalize workers
// fold zone maps concurrently, and the cache (pages map, eviction order,
// measure scratch) is shared state.
func newPagedResolver(fr *relation.FactReader) storage.DimResolver {
	type page struct {
		id   int64
		data []byte
	}
	var mu sync.Mutex
	pages := map[int64]*page{}
	var order []int64
	rowWidth := fr.RowWidth()
	numDims := fr.Schema().NumDims()
	meas := make([]float64, fr.Schema().NumMeasures())
	return func(rrowid int64, dst []int32) error {
		mu.Lock()
		defer mu.Unlock()
		pid := rrowid / resolverPageRows
		p, ok := pages[pid]
		if !ok {
			first := pid * resolverPageRows
			count := int64(resolverPageRows)
			if first+count > fr.Rows() {
				count = fr.Rows() - first
			}
			data := make([]byte, int(count)*rowWidth)
			if err := fr.ReadRawAt(first, int(count), data); err != nil {
				return err
			}
			if len(order) >= resolverMaxPages {
				delete(pages, order[0])
				order = order[1:]
			}
			p = &page{id: pid, data: data}
			pages[pid] = p
			order = append(order, pid)
		}
		off := int(rrowid%resolverPageRows) * rowWidth
		fr.DecodeRow(p.data[off:off+rowWidth], dst[:numDims], meas)
		return nil
	}
}
