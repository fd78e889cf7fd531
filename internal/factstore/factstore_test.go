package factstore

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"cure/internal/relation"
)

// testRows leaves the last page short (5 full pages + 37 rows).
const testRows = 5*PageRows + 37

// writeFacts writes a seeded fact file and returns its reader plus the
// table relation.LoadFactRows makes of it — the oracle every Deref output
// is compared with.
func writeFacts(tb testing.TB, rows int) (*relation.FactReader, *relation.FactTable) {
	tb.Helper()
	schema := &relation.Schema{DimNames: []string{"A", "B", "C"}, MeasureNames: []string{"M", "N"}}
	ft := relation.NewFactTable(schema, rows)
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < rows; i++ {
		ft.Append([]int32{rng.Int31n(1000), rng.Int31n(50), int32(i)}, []float64{rng.Float64(), float64(i)})
	}
	path := filepath.Join(tb.TempDir(), "fact.bin")
	if err := relation.WriteFactFile(path, ft); err != nil {
		tb.Fatal(err)
	}
	want, err := relation.LoadFactRows(path, -1)
	if err != nil {
		tb.Fatal(err)
	}
	fr, err := relation.OpenFactReader(path)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { fr.Close() })
	return fr, want
}

// columns allocates caller-owned output columns for n row-ids.
func columns(t *relation.FactTable, n int) ([][]int32, [][]float64) {
	dims, meas := make([][]int32, len(t.Dims)), make([][]float64, len(t.Measures))
	for d := range dims {
		dims[d] = make([]int32, n)
	}
	for m := range meas {
		meas[m] = make([]float64, n)
	}
	return dims, meas
}

// check compares the output columns with the oracle; it is called from
// hammer goroutines, hence an error and not a Fatal.
func check(want *relation.FactTable, ids []int64, dims [][]int32, meas [][]float64) error {
	for i, id := range ids {
		for d := range dims {
			if dims[d][i] != want.Dims[d][id] {
				return fmt.Errorf("row-id %d at position %d: dim %d = %d, want %d", id, i, d, dims[d][i], want.Dims[d][id])
			}
		}
		for m := range meas {
			if meas[m][i] != want.Measures[m][id] {
				return fmt.Errorf("row-id %d at position %d: measure %d = %v, want %v", id, i, m, meas[m][i], want.Measures[m][id])
			}
		}
	}
	return nil
}

func allRows(n int) []int64 {
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = int64(i)
	}
	return ids
}

// TestDerefRejectsOutOfRange: row-ids come off disk, so one outside the
// table is an error naming it — never a slice panic — whatever the store
// holds at the time.
func TestDerefRejectsOutOfRange(t *testing.T) {
	fr, want := writeFacts(t, testRows)
	warm := New(fr, testRows)
	dims, meas := columns(want, testRows)
	if err := warm.Deref(allRows(testRows), dims, meas, nil); err != nil {
		t.Fatal(err)
	}
	stores := map[string]*Store{
		"warm":        warm,
		"cold":        New(fr, testRows),
		"zero-budget": New(fr, 0),
		"columns":     FromColumns(want),
	}
	for name, s := range stores {
		for _, bad := range []int64{-1, testRows, testRows + 1, math.MaxInt64} {
			// The bad id sits between good ones, in the last page's nominal span.
			ids := []int64{0, testRows - 1, bad, 1}
			err := s.Deref(ids, dims, meas, nil)
			if err == nil || !strings.Contains(err.Error(), fmt.Sprint(bad)) {
				t.Errorf("%s: Deref(%d) = %v, want an error naming the row-id", name, bad, err)
			}
		}
		// The store still serves after the rejections.
		ids := []int64{testRows - 1, 0}
		if err := s.Deref(ids, dims, meas, nil); err != nil {
			t.Errorf("%s: %v", name, err)
		} else if err := check(want, ids, dims, meas); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestDerefHammer runs concurrent batches — random and sorted — against
// every budget regime; with -race it is the store's synchronisation test.
func TestDerefHammer(t *testing.T) {
	fr, want := writeFacts(t, testRows)
	for _, budget := range []int64{0, 2 * PageRows, testRows} {
		for _, clients := range []int{1, 4, 16} {
			t.Run(fmt.Sprintf("budget=%d/C=%d", budget, clients), func(t *testing.T) {
				s := New(fr, budget)
				var wg sync.WaitGroup
				for c := 0; c < clients; c++ {
					wg.Add(1)
					go func(c int) {
						defer wg.Done()
						rng := rand.New(rand.NewSource(int64(c)))
						dims, meas := columns(want, 700)
						for round := 0; round < 40; round++ {
							ids := make([]int64, 1+rng.Intn(700))
							for i := range ids {
								ids[i] = rng.Int63n(testRows)
							}
							if round%2 == 1 {
								slices.Sort(ids)
							}
							var st Stats
							if err := s.Deref(ids, dims, meas, &st); err != nil {
								t.Error(err)
								return
							}
							if err := check(want, ids, dims, meas); err != nil {
								t.Error(err)
								return
							}
							if budget == testRows && st.Evictions != 0 {
								t.Errorf("a store that holds the file evicted %d pages", st.Evictions)
								return
							}
						}
					}(c)
				}
				wg.Wait()
				s.mu.Lock()
				defer s.mu.Unlock()
				resident := 0
				for i := range s.pages {
					if s.pages[i].Load() != nil {
						resident++
					}
				}
				if resident > s.budget || resident != len(s.ring) {
					t.Errorf("%d pages resident, ring holds %d, budget %d", resident, len(s.ring), s.budget)
				}
			})
		}
	}
}

// TestEvictedPageStaysValid: a page is never recycled, so a reader that
// loaded it before its eviction keeps reading the right values.
func TestEvictedPageStaysValid(t *testing.T) {
	fr, want := writeFacts(t, testRows)
	s := New(fr, PageRows) // one page
	dims, meas := columns(want, PageRows)
	if err := s.Deref([]int64{3}, dims, meas, nil); err != nil {
		t.Fatal(err)
	}
	held := s.pages[0].Load()
	if held == nil {
		t.Fatal("page 0 not resident after its fault")
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // another reader keeps pushing pages out, page 0 first
		defer wg.Done()
		d, m := columns(want, 2)
		for round := 0; round < 50; round++ {
			if err := s.Deref([]int64{PageRows, 4 * PageRows}, d, m, nil); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	// Meanwhile the held page is read over and over: under -race a store
	// that recycled or rewrote an evicted page would be caught here.
	for round := 0; round < 50; round++ {
		for off := 0; off < PageRows; off++ {
			held.copyRow(off, off, dims, meas)
		}
		if err := check(want, allRows(PageRows), dims, meas); err != nil {
			t.Fatalf("held page, round %d: %v", round, err)
		}
	}
	wg.Wait()
	if s.pages[0].Load() != nil {
		t.Fatal("page 0 survived a hundred faults into a one-page store")
	}
}

// TestStatsContract pins what a hit and a fault count: distinct pages per
// call, whatever the order of the row-ids.
func TestStatsContract(t *testing.T) {
	fr, want := writeFacts(t, testRows)
	dims, meas := columns(want, 8)
	// Two pages, interleaved, several row-ids each.
	ids := []int64{5, PageRows + 1, 6, PageRows + 2, 7, PageRows + 3}

	t.Run("zero budget", func(t *testing.T) {
		s := New(fr, 0)
		for pass := 0; pass < 2; pass++ {
			var st Stats
			if err := s.Deref(ids, dims, meas, &st); err != nil {
				t.Fatal(err)
			}
			if st.Hits != 0 || st.Faults != 2 || st.Evictions != 0 {
				t.Errorf("pass %d: %+v, want 0 hits, 2 faults, 0 evictions", pass, st)
			}
			if wantBytes := int64(2 * PageRows * fr.RowWidth()); st.BytesRead != wantBytes {
				t.Errorf("pass %d: %d bytes read, want %d", pass, st.BytesRead, wantBytes)
			}
		}
	})
	t.Run("full budget", func(t *testing.T) {
		s := New(fr, testRows)
		var cold, warm Stats
		if err := s.Deref(ids, dims, meas, &cold); err != nil {
			t.Fatal(err)
		}
		if cold != (Stats{Faults: 2, BytesRead: cold.BytesRead}) {
			t.Errorf("cold: %+v, want 2 faults and nothing else", cold)
		}
		if err := s.Deref(ids, dims, meas, &warm); err != nil {
			t.Fatal(err)
		}
		if warm != (Stats{Hits: 2}) {
			t.Errorf("warm: %+v, want 2 hits and nothing else", warm)
		}
	})
	t.Run("eviction", func(t *testing.T) {
		s := New(fr, 2*PageRows)
		var st Stats
		for pass := 0; pass < 3; pass++ {
			for pg := int64(0); pg < 3; pg++ {
				if err := s.Deref([]int64{pg * PageRows}, dims, meas, &st); err != nil {
					t.Fatal(err)
				}
			}
		}
		if st.Evictions == 0 || st.Evictions != st.Faults-2 {
			t.Errorf("%+v: every fault past the first two must evict", st)
		}
	})
	t.Run("columns", func(t *testing.T) {
		var st Stats
		if err := FromColumns(want).Deref(ids, dims, meas, &st); err != nil {
			t.Fatal(err)
		}
		if st != (Stats{Hits: 1}) {
			t.Errorf("%+v, want the table's one page hit once", st)
		}
	})
}

// TestSkippedColumns: nil and missing output columns are left alone.
func TestSkippedColumns(t *testing.T) {
	fr, want := writeFacts(t, testRows)
	for name, s := range map[string]*Store{"file": New(fr, testRows), "columns": FromColumns(want)} {
		ids := []int64{9, testRows - 1}
		b := make([]int32, len(ids))
		if err := s.Deref(ids, [][]int32{nil, b}, nil, nil); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, id := range ids {
			if b[i] != want.Dims[1][id] {
				t.Errorf("%s: row-id %d: dim 1 = %d, want %d", name, id, b[i], want.Dims[1][id])
			}
		}
	}
}

// TestWarmDerefAllocatesNothing pins the hit path: no lock is visible to
// a test, but an allocation would be.
func TestWarmDerefAllocatesNothing(t *testing.T) {
	fr, want := writeFacts(t, testRows)
	ids := allRows(testRows)
	rand.New(rand.NewSource(3)).Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	dims, meas := columns(want, len(ids))
	for name, s := range map[string]*Store{"file": New(fr, testRows), "columns": FromColumns(want)} {
		var st Stats
		if err := s.Deref(ids, dims, meas, &st); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(50, func() {
			if err := s.Deref(ids, dims, meas, &st); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: warm Deref allocates %v times per call", name, n)
		}
	}
}

// BenchmarkDeref is the layer's microbenchmark: one decoded block's worth
// of random row-ids per call, from every P at once. resident holds the
// file; paged holds a tenth of it.
func BenchmarkDeref(b *testing.B) {
	const rows = 200_000
	fr, want := writeFacts(b, rows)
	for _, bc := range []struct {
		name   string
		budget int64
	}{{"resident", rows}, {"paged", rows / 10}} {
		b.Run(bc.name, func(b *testing.B) {
			s := New(fr, bc.budget)
			b.SetBytes(int64(PageRows * fr.RowWidth()))
			b.RunParallel(func(pb *testing.PB) {
				rng := rand.New(rand.NewSource(rand.Int63()))
				ids := make([]int64, PageRows)
				dims, meas := columns(want, len(ids))
				for pb.Next() {
					for i := range ids {
						ids[i] = rng.Int63n(rows)
					}
					if err := s.Deref(ids, dims, meas, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}
