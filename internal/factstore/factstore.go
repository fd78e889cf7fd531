// Package factstore is the one way to read a fact row. CURE's storage
// removes dimensional redundancy (§5): NT, TT and CAT rows carry an
// R-rowid, so the query engine, the finalize pass and incremental
// maintenance all have to turn row-ids back into fact rows, and §5.3 names
// the fact table as the relation worth caching. A Store does that for all
// of them with one page table and one batch call, Deref.
//
// The synchronisation story: a page is immutable once built and never
// recycled, so a hit is one atomic load — no lock, no bookkeeping beyond a
// reference bit that is only written while clear, and no copy-out; a
// reader still holding an evicted page keeps a valid page until the GC
// takes it. A miss reads and decodes outside any lock; the single mutex
// guards only the install of a new page and the clock hand that makes
// room for it. A store whose budget covers the file never evicts — that is
// the whole of "pinned", there is no second mode.
package factstore

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"cure/internal/relation"
)

// pageShift fixes the page size of file-backed stores at PageRows rows.
const pageShift = 8

// PageRows is the number of fact rows per page of a file-backed store.
const PageRows = 1 << pageShift

// page holds the decoded columns of up to PageRows consecutive fact rows.
type page struct {
	dims [][]int32
	meas [][]float64
	// ref is the clock's second chance: set by a hit, cleared by the hand.
	ref atomic.Bool
}

// Stats tallies what a caller's Deref calls cost. It belongs to one
// goroutine (one query), so the fields are plain; a nil *Stats is a valid
// no-op. Hits and Faults count distinct pages per call: a page needed by
// many row-ids of one batch is one hit or one fault.
type Stats struct {
	// Hits is the number of pages found resident.
	Hits int64
	// Faults is the number of pages read from the fact file, BytesRead
	// their volume.
	Faults    int64
	BytesRead int64
	// Evictions is the number of pages this caller's faults pushed out.
	Evictions int64
}

// Store serves fact rows by row-id. It is safe for concurrent use.
type Store struct {
	fr    *relation.FactReader // nil for FromColumns
	rows  int64
	shift uint // a row-id's page is id >> shift
	pages []atomic.Pointer[page]
	// scratch recycles per-call working memory, so a warm Deref allocates
	// nothing and a fault's raw read buffer never outlives its call.
	scratch sync.Pool

	// mu orders page installs and evictions; hits never take it.
	mu     sync.Mutex
	budget int     // pages allowed resident
	ring   []int64 // resident page ids, the clock face
	hand   int
}

// scratch is one Deref call's working memory.
type scratch struct {
	seen []uint64 // bitmap of pages already counted by this call
	pend []int    // batch positions whose page was not resident
	raw  []byte   // a faulted page's undecoded bytes
}

// New returns a store over an open fact file holding at most budgetRows
// rows resident (rounded up to whole pages; ≤ 0 keeps nothing). The
// caller keeps ownership of fr and closes it after the store's last use.
func New(fr *relation.FactReader, budgetRows int64) *Store {
	s := &Store{fr: fr, rows: fr.Rows(), shift: pageShift}
	s.pages = make([]atomic.Pointer[page], (s.rows+PageRows-1)>>pageShift)
	if budgetRows > 0 {
		s.budget = int(min((budgetRows+PageRows-1)>>pageShift, int64(len(s.pages))))
	}
	return s
}

// FromColumns returns a store over a loaded fact table: one page that
// aliases the table's columns and is always resident.
func FromColumns(t *relation.FactTable) *Store {
	// Row-ids are non-negative, so shifting by 63 maps every one to page 0
	// and leaves the row-id itself as the offset into it.
	s := &Store{rows: int64(t.Len()), shift: 63}
	s.pages = make([]atomic.Pointer[page], 1)
	s.pages[0].Store(&page{dims: t.Dims, meas: t.Measures})
	return s
}

// Deref fills position i of every output column with the value of fact row
// rowids[i]: dims[d][i] is the base-level code of dimension d, meas[m][i]
// measure m. Output columns are caller-owned and at least len(rowids)
// long; a nil column (or a nil or short dims / meas) is skipped. Every
// row-id is range-checked — they come off disk — and each distinct page
// the batch needs is looked up, and if absent read, once per call however
// its row-ids are ordered. st may be nil.
func (s *Store) Deref(rowids []int64, dims [][]int32, meas [][]float64, st *Stats) error {
	sc, _ := s.scratch.Get().(*scratch)
	if sc == nil {
		sc = &scratch{seen: make([]uint64, (len(s.pages)+63)/64)}
	}
	defer s.scratch.Put(sc)
	clear(sc.seen)
	sc.pend = sc.pend[:0]
	if st == nil {
		st = new(Stats) // stays on the stack: nothing below retains it
	}

	mask := int64(1)<<s.shift - 1
	last, p := int64(-1), (*page)(nil)
	for i, id := range rowids {
		if uint64(id) >= uint64(s.rows) {
			return fmt.Errorf("factstore: row-id %d out of range [0,%d)", id, s.rows)
		}
		if pid := id >> s.shift; pid != last {
			last, p = pid, s.resident(pid, sc, st)
		}
		if p == nil {
			sc.pend = append(sc.pend, i)
			continue
		}
		p.copyRow(int(id&mask), i, dims, meas)
	}
	if len(sc.pend) == 0 {
		return nil
	}

	// The misses, grouped by page so each is read once: faults may evict
	// one another when the budget is small, but every page stays in hand
	// until its own row-ids are served.
	slices.SortFunc(sc.pend, func(a, b int) int { return cmp.Compare(rowids[a], rowids[b]) })
	last = -1
	for _, i := range sc.pend {
		id := rowids[i]
		if pid := id >> s.shift; pid != last {
			// Another goroutine may have installed the page meanwhile.
			if last, p = pid, s.resident(pid, sc, st); p == nil {
				var err error
				if p, err = s.fault(pid, sc, st); err != nil {
					return err
				}
			}
		}
		p.copyRow(int(id&mask), i, dims, meas)
	}
	return nil
}

// resident returns page pid if it is in memory, counting the hit and
// marking the page recently used the first time the call sees it.
func (s *Store) resident(pid int64, sc *scratch, st *Stats) *page {
	p := s.pages[pid].Load()
	if w, bit := pid>>6, uint64(1)<<(pid&63); p != nil && sc.seen[w]&bit == 0 {
		sc.seen[w] |= bit
		st.Hits++
		// Written only while clear: a store that never evicts stops
		// writing shared cache lines once it is warm.
		if !p.ref.Load() {
			p.ref.Store(true)
		}
	}
	return p
}

// copyRow writes row off of the page to position i of the output columns.
func (p *page) copyRow(off, i int, dims [][]int32, meas [][]float64) {
	for d, col := range dims {
		if col != nil {
			col[i] = p.dims[d][off]
		}
	}
	for m, col := range meas {
		if col != nil {
			col[i] = p.meas[m][off]
		}
	}
}

// fault reads and decodes page pid outside any lock and installs it.
// Concurrent faults of one page each pay their read; the first to install
// wins and the others adopt its page.
func (s *Store) fault(pid int64, sc *scratch, st *Stats) (*page, error) {
	first := pid << s.shift
	n := int(min(PageRows, s.rows-first))
	// The page holds its decoded columns instead of its raw bytes, never
	// beside them: the read buffer is the call's scratch.
	dims, meas, err := s.fr.ReadColumns(first, n, &sc.raw)
	if err != nil {
		return nil, fmt.Errorf("factstore: %w", err)
	}
	st.Faults++
	st.BytesRead += int64(n * s.fr.RowWidth())
	p := &page{dims: dims, meas: meas}

	s.mu.Lock()
	defer s.mu.Unlock()
	if cur := s.pages[pid].Load(); cur != nil {
		return cur, nil
	}
	switch {
	case len(s.ring) < s.budget:
		s.ring = append(s.ring, pid)
	case s.budget == 0:
		return p, nil // no room to keep anything: the page serves this call only
	default:
		// Residency has reached the budget: the hand sweeps the resident
		// pages, clearing reference bits, and evicts the first one not
		// used since its last visit.
		for s.pages[s.ring[s.hand]].Load().ref.Swap(false) {
			s.hand = (s.hand + 1) % len(s.ring)
		}
		s.pages[s.ring[s.hand]].Store(nil)
		s.ring[s.hand] = pid
		s.hand = (s.hand + 1) % len(s.ring)
		st.Evictions++
	}
	s.pages[pid].Store(p)
	return p, nil
}
