package storage

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"cure/internal/gen"
	"cure/internal/hierarchy"
	"cure/internal/lattice"
	"cure/internal/obsv"
	"cure/internal/signature"
)

// finalizeTestResolver maps R-rowids of the writeWorkload fact space
// (rrowid < 5000) onto the testHier base codes: A0 has 8 members, B 4.
func finalizeTestResolver(rrowid int64, dst []int32) error {
	dst[0] = int32(rrowid % 8)
	dst[1] = int32(rrowid % 4)
	return nil
}

// perRow adapts a row-at-a-time resolver to the batch DimResolver shape,
// calling fn once per row-id in batch order.
func perRow(fn func(rrowid int64, dst []int32) error) DimResolver {
	return func(rowids []int64, dims [][]int32) error {
		dst := make([]int32, len(dims))
		for i, id := range rowids {
			if err := fn(id, dst); err != nil {
				return err
			}
			for d := range dims {
				dims[d][i] = dst[d]
			}
		}
		return nil
	}
}

// buildFinalizeCube runs the standard mixed workload through a writer
// with zone maps on and the given parallelism.
func buildFinalizeCube(t *testing.T, dir string, par int, plus, formatA bool) *Manifest {
	t.Helper()
	w := newTestWriter(t, Options{
		Dir: dir, plainLayout: !plus, FactRows: 5000, ZoneBlockRows: 64,
		Parallelism: par, Resolver: perRow(finalizeTestResolver),
	})
	m, _ := writeWorkload(t, w, formatA)
	return m
}

// cubeFiles reads every extent file plus the manifest, keyed by name.
// The finalize sidecar is deliberately absent: it records wall clocks.
func cubeFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for _, name := range []string{NTFile, TTFile, CATFile, AggFile, HierFile, ManifestFile} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		out[name] = data
	}
	return out
}

// TestParallelFinalizeByteIdentity pins the pipeline's core contract:
// whatever the worker count, the extent files and the manifest are
// byte-for-byte the sequential pass's output, and the sidecar records the
// worker count the pipeline ran with.
func TestParallelFinalizeByteIdentity(t *testing.T) {
	cases := []struct {
		name    string
		plus    bool
		formatA bool
	}{
		{"plain-formatB", false, false},
		{"plus-formatB", true, false},
		{"plus-formatA", true, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			refDir := t.TempDir()
			buildFinalizeCube(t, refDir, 1, tc.plus, tc.formatA)
			ref := cubeFiles(t, refDir)
			for _, par := range []int{2, 8} {
				dir := t.TempDir()
				buildFinalizeCube(t, dir, par, tc.plus, tc.formatA)
				st, err := ReadFinalizeStats(dir)
				if err != nil {
					t.Fatal(err)
				}
				if st.Parallelism != par || st.Workers < 2 || st.Workers > par {
					t.Errorf("P=%d: sidecar parallelism=%d workers=%d, want %d and 2..%d", par, st.Parallelism, st.Workers, par, par)
				}
				got := cubeFiles(t, dir)
				if len(got) != len(ref) {
					t.Fatalf("P=%d: %d files, want %d", par, len(got), len(ref))
				}
				for name, want := range ref {
					if !bytes.Equal(got[name], want) {
						t.Errorf("P=%d: %s differs from sequential output", par, name)
					}
				}
			}
		})
	}
}

// bruteZones is the zone map of one extent computed the slow way: rows
// holds, in scan order, each row's code per slot.
func bruteZones(blockRows, slots int, rows [][]int32) *ZoneIndex {
	if len(rows) < blockRows {
		return nil
	}
	z := &ZoneIndex{BlockRows: int32(blockRows), Slots: int32(slots)}
	for r0 := 0; r0 < len(rows); r0 += blockRows {
		for s := 0; s < slots; s++ {
			lo, hi := int32(math.MaxInt32), int32(math.MinInt32)
			for _, row := range rows[r0:min(r0+blockRows, len(rows))] {
				lo, hi = min(lo, row[s]), max(hi, row[s])
			}
			z.Lo, z.Hi = append(z.Lo, lo), append(z.Hi, hi)
		}
	}
	if nb := len(z.Lo) / slots; nb > 1 {
		sorted, anySorted := make([]bool, slots), false
		for s := range sorted {
			sorted[s] = true
			for b := 1; b < nb; b++ {
				sorted[s] = sorted[s] && z.Hi[(b-1)*slots+s] <= z.Lo[b*slots+s]
			}
			anySorted = anySorted || sorted[s]
		}
		if anySorted {
			z.Sorted = sorted
		}
	}
	return z
}

// TestZoneMapsMatchBruteForce recomputes every zone map from what a
// Reader returns, in the order it returns it, crossed with the in-memory
// codes of the rows, and demands equality with the maps Finalize folded
// while the rows were in flight — over plain row-id extents, CURE_DR
// extents, CURE+ sorted ids, CURE+ bitmap blocks and both CAT formats.
// Each map must also prune like a brute-force index with a slot per
// dimension level (checkPruneEquivalence).
func TestZoneMapsMatchBruteForce(t *testing.T) {
	for _, tc := range []struct {
		name              string
		plus, formatA, dr bool
		factRows          int64 // small enough and the TT extent becomes a bitmap block
	}{
		{name: "plain-formatB", factRows: 5000},
		{name: "dr-formatB", dr: true, factRows: 5000},
		{name: "plus-ids-formatA", plus: true, formatA: true, factRows: 1 << 20},
		{name: "plus-bitmap-formatB", plus: true, factRows: 5000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Base codes rise with the R-rowid, so a block of sorted ids
			// spans few of them and some predicates split its extent.
			resolve := func(rrowid int64, dst []int32) error {
				dst[0] = int32(rrowid * 8 / tc.factRows)
				dst[1] = int32(rrowid * 4 / tc.factRows)
				return nil
			}
			build := func(dr bool) string {
				dir := t.TempDir()
				writeWorkload(t, newTestWriter(t, Options{
					Dir: dir, plainLayout: !tc.plus, DimsInline: dr, FactRows: tc.factRows,
					ZoneBlockRows: 64, Parallelism: 4, Resolver: perRow(resolve),
				}), tc.formatA)
				return dir
			}
			dir := build(tc.dr)
			var ntIDs map[lattice.NodeID][]int64
			if tc.dr {
				// CURE_DR rows keep no R-rowid. A plain twin of the same
				// workload holds the same rows in the same order.
				ntIDs = ntRowIDs(t, build(false))
			}
			zc := checkZonesBruteForce(t, dir, 64, resolve, ntIDs)
			if zc.zones < 3 {
				t.Fatalf("workload produced %d zone maps; the comparison is vacuous", zc.zones)
			}
			// Only sorted extents have blocks that narrow code ranges.
			if tc.plus && zc.split == 0 {
				t.Fatalf("no predicate set both kept and skipped blocks over %d checks", zc.preds)
			}
			if wantBitmap := tc.plus && tc.factRows == 5000; wantBitmap != (zc.bitmaps > 0) {
				t.Fatalf("%d zone-mapped bitmap TT extents, want some = %v", zc.bitmaps, wantBitmap)
			}
		})
	}
	// A level above the base is lowered to a base range at query time (a
	// non-decreasing map) or keeps a slot of its own: this schema has
	// both, and an NT extent long enough that a block straddles two
	// resolve chunks.
	t.Run("derived-and-folded-levels", func(t *testing.T) {
		const blockRows, ntRows = 100, resolveChunkRows + 4_464
		if resolveChunkRows%blockRows == 0 {
			t.Fatal("no block straddles a resolve chunk")
		}
		hier := zoneOracleSchema(t)
		zl := NewZoneLayout(hier)
		var own []int
		for _, lvs := range zl.levels {
			for _, lv := range lvs[1:] {
				if lv.slot >= 0 {
					own = append(own, lv.slot)
				}
			}
		}
		if !slices.Equal(zl.base, []int{0, 1, 3}) || zl.slots != 4 || !slices.Equal(own, []int{2}) {
			t.Fatalf("base slots %v, own slots %v of %d: want every level but Parity (slot 2) lowered", zl.base, own, zl.slots)
		}
		for _, dr := range []bool{false, true} {
			dir := t.TempDir()
			w := newTestWriter(t, Options{
				Dir: dir, Hier: hier, DimsInline: dr, FactRows: 2 * ntRows, ZoneBlockRows: blockRows,
				Parallelism: 4, Resolver: perRow(zoneOracleResolver),
			})
			enum := w.Enum()
			rng := rand.New(rand.NewSource(5))
			aggrs := []float64{1, 1}
			ntNode := enum.Encode([]int{1, 2, 1})
			ntIDs := map[lattice.NodeID][]int64{}
			for i := int64(0); i < ntRows; i++ {
				if err := w.WriteNT(ntNode, 2*i, aggrs); err != nil {
					t.Fatal(err)
				}
				ntIDs[ntNode] = append(ntIDs[ntNode], 2*i)
			}
			ttNode := enum.Encode([]int{0, 1, 2})
			for _, id := range rng.Perm(2 * ntRows)[:3000] {
				if err := w.WriteTT(ttNode, int64(id)); err != nil {
					t.Fatal(err)
				}
			}
			catNode := enum.Encode([]int{2, 0, 0})
			for i := 0; i < 700; i++ {
				a, err := w.AppendAggregate(int64(rng.Intn(2*ntRows)), aggrs)
				if err != nil {
					t.Fatal(err)
				}
				if err := w.WriteCAT(catNode, -1, a); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := w.Finalize(signature.FormatA); err != nil {
				t.Fatal(err)
			}
			if !dr {
				ntIDs = nil
			}
			zc := checkZonesBruteForce(t, dir, blockRows, zoneOracleResolver, ntIDs)
			if zc.zones != 3 || zc.split == 0 {
				t.Fatalf("DR=%v: %d zone maps (want NT, TT and CAT), %d of %d predicate sets kept some blocks and skipped others",
					dr, zc.zones, zc.split, zc.preds)
			}
		}
	})
}

// zoneOracleSchema has a dimension of non-decreasing levels, one with a
// non-monotone sibling level (code parity), and Figure 5a's complex time
// dimension, whose day rolls up to week and to month.
func zoneOracleSchema(t *testing.T) *hierarchy.Schema {
	t.Helper()
	m1 := hierarchy.BuildContiguousMap(1000, 100)
	m2 := hierarchy.ComposeMaps(m1, hierarchy.BuildContiguousMap(100, 10))
	m3 := hierarchy.ComposeMaps(m2, hierarchy.BuildContiguousMap(10, 3))
	mono, err := hierarchy.NewLinearDim("M", []string{"M0", "M1", "M2", "M3"}, []int32{1000, 100, 10, 3}, [][]int32{m1, m2, m3})
	if err != nil {
		t.Fatal(err)
	}
	parity := make([]int32, 64)
	for c := range parity {
		parity[c] = int32(c % 2)
	}
	sib := &hierarchy.Dim{Name: "P", Levels: []hierarchy.Level{
		{Name: "P0", Card: 64, RollsUpTo: []int{1, 2}},
		{Name: "P1", Card: 8, Map: hierarchy.BuildContiguousMap(64, 8)},
		{Name: "Parity", Card: 2, Map: parity},
	}}
	const days = 60
	tm := &hierarchy.Dim{Name: "T", Levels: []hierarchy.Level{
		{Name: "day", Card: days, RollsUpTo: []int{1, 2}},
		{Name: "week", Card: 9, Map: hierarchy.BuildContiguousMap(days, 9), RollsUpTo: []int{3}},
		{Name: "month", Card: 3, Map: hierarchy.BuildContiguousMap(days, 3), RollsUpTo: []int{3}},
		{Name: "year", Card: 1, Map: make([]int32, days)},
	}}
	for _, d := range []*hierarchy.Dim{sib, tm} {
		if err := d.Finalize(); err != nil {
			t.Fatal(err)
		}
	}
	hier, err := hierarchy.NewSchema(mono, sib, tm)
	if err != nil {
		t.Fatal(err)
	}
	return hier
}

// zoneOracleResolver gives neighbouring R-rowids neighbouring base codes,
// so a block spans a narrow code range: one that starts on an odd P0 or
// straddles an M1 boundary is where a wrong level rule shows.
func zoneOracleResolver(rrowid int64, dst []int32) error {
	dst[0] = int32(rrowid / 3 % 1000)
	dst[1] = int32(rrowid / 5 % 64)
	dst[2] = int32(rrowid / 50 % 60)
	return nil
}

// ntRowIDs reads every node's NT R-rowids, in scan order, from a cube
// without CURE_DR.
func ntRowIDs(t *testing.T, dir string) map[lattice.NodeID][]int64 {
	t.Helper()
	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	out := map[lattice.NodeID][]int64{}
	for k := range r.Manifest().Nodes {
		n, _ := strconv.ParseInt(k, 10, 64)
		id := lattice.NodeID(n)
		if err := r.NTRows(id, func(row NTRow) error {
			out[id] = append(out[id], row.RRowid)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// zoneCheck counts what checkZonesBruteForce compared.
type zoneCheck struct {
	zones, bitmaps int
	// preds is the number of predicate sets pruned both ways, split is
	// how many of them kept some blocks and skipped others.
	preds, split int
}

// checkZonesBruteForce compares every zone map of the cube in dir with
// bruteZones of blockRows-row blocks over the rows a Reader returns,
// coded through resolve; ntIDs gives a CURE_DR cube's NT R-rowids (nil
// otherwise). Each map must then prune like a per-level brute-force
// index (checkPruneEquivalence).
func checkZonesBruteForce(t *testing.T, dir string, blockRows int, resolve func(int64, []int32) error, ntIDs map[lattice.NodeID][]int64) zoneCheck {
	t.Helper()
	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	m := r.Manifest()
	hier := r.Hier()
	zl := NewZoneLayout(hier)
	// codes returns a row's codes in the layout's slots and in a
	// per-level layout: one slot per real level of every dimension, the
	// zone maps' layout before coarser levels were lowered.
	codes := func(rrowid int64) ([]int32, []int32) {
		base := make([]int32, hier.NumDims())
		if err := resolve(rrowid, base); err != nil {
			t.Fatal(err)
		}
		slots := make([]int32, zl.slots)
		var levels []int32
		for d, dim := range hier.Dims {
			for l := 0; l < dim.AllLevel(); l++ {
				c := dim.MapCode(base[d], l)
				levels = append(levels, c)
				if s := zl.levels[d][l].slot; s >= 0 {
					slots[s] = c
				}
			}
		}
		return slots, levels
	}
	rng := rand.New(rand.NewSource(17))
	var zc zoneCheck
	for k, nm := range m.Nodes {
		n, _ := strconv.ParseInt(k, 10, 64)
		id := lattice.NodeID(n)
		levels := r.Enum().Decode(id, nil)
		var nt, tt, cat [2][][]int32
		add := func(rows *[2][][]int32, rrowid int64) {
			s, l := codes(rrowid)
			rows[0], rows[1] = append(rows[0], s), append(rows[1], l)
		}
		i := 0
		if err := r.NTRows(id, func(row NTRow) error {
			rrowid := row.RRowid
			if m.DimsInline {
				if i >= len(ntIDs[id]) {
					t.Fatalf("node %s: more NT rows than its twin's %d", k, len(ntIDs[id]))
				}
				rrowid = ntIDs[id][i]
				// The twin's row must be the one DR projected.
				base := make([]int32, hier.NumDims())
				if err := resolve(rrowid, base); err != nil {
					t.Fatal(err)
				}
				p := 0
				for d, l := range levels {
					if hier.Dims[d].IsAll(l) {
						continue
					}
					if want := hier.Dims[d].MapCode(base[d], l); row.Dims[p] != want {
						t.Fatalf("node %s row %d: DR code %d, twin's row maps to %d", k, i, row.Dims[p], want)
					}
					p++
				}
			}
			add(&nt, rrowid)
			i++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		ids, err := r.TTRowIDs(id, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, rrowid := range ids {
			add(&tt, rrowid)
		}
		aggs := make([]float64, m.NumAggrs())
		if err := r.CATRows(id, func(row CATRow) error {
			rrowid := row.RRowid
			if m.CatFormat == signature.FormatA {
				if rrowid, err = r.AggCursor().Read(row.ARowid, aggs, nil); err != nil {
					return err
				}
			}
			add(&cat, rrowid)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for _, z := range []struct {
			rel  string
			got  *ZoneIndex
			rows [2][][]int32
		}{{"nt", nm.NTZones, nt}, {"tt", nm.TTZones, tt}, {"cat", nm.CATZones, cat}} {
			want := bruteZones(blockRows, zl.slots, z.rows[0])
			if !reflect.DeepEqual(z.got, want) {
				t.Errorf("node %s %s zones:\ngot  %+v\nwant %+v", k, z.rel, z.got, want)
			}
			if want == nil {
				continue
			}
			zc.zones++
			ref := bruteZones(blockRows, len(z.rows[1][0]), z.rows[1])
			checkPruneEquivalence(t, fmt.Sprintf("node %s %s", k, z.rel), rng, hier, zl, z.got, ref, int64(len(z.rows[0])), &zc)
		}
		if nm.TTCodec != nil && nm.TTCodec.Encodings[encName(encBitmap)] > 0 && nm.TTZones != nil {
			zc.bitmaps++
		}
	}
	return zc
}

// checkPruneEquivalence prunes extent z (rows rows, laid out by zl) and
// ref, the same extent's brute-force index with a slot per real level of
// every dimension, with random predicates at every real level: ranges in
// the domain, empty ones, the whole domain, ranges partly and wholly
// outside it and up to MaxInt32, alone and combined. Kept ranges and
// block counts must be equal. Narrowed may differ: a level's slot can be
// sorted where its base slot is not. (A CURE_DR extent's map once held
// only the node's own levels, the only ones the engine accepts there; ref
// agrees with it on those.)
func checkPruneEquivalence(t *testing.T, what string, rng *rand.Rand, hier *hierarchy.Schema, zl *ZoneLayout, z, ref *ZoneIndex, rows int64, zc *zoneCheck) {
	t.Helper()
	type pred struct {
		d, l, refSlot int
		lo, hi        int32
	}
	var cands []pred
	refSlot := 0
	for d, dim := range hier.Dims {
		for l := 0; l < dim.AllLevel(); l++ {
			card := dim.Card(l)
			c, a, b := rng.Int31n(card), rng.Int31n(card), rng.Int31n(card)
			for _, rg := range [][2]int32{
				{0, card - 1}, {c, c}, {min(a, b), max(a, b)}, {-3, c}, {c, card + 3},
				{card, card + 7}, {-9, -1}, {c, math.MaxInt32}, {math.MinInt32, math.MaxInt32},
			} {
				cands = append(cands, pred{d, l, refSlot, rg[0], rg[1]})
			}
			refSlot++
		}
	}
	try := func(ps []pred) {
		var lowered, perLevel []ZonePred
		for _, p := range ps {
			lowered = append(lowered, zl.Lower(p.d, p.l, p.lo, p.hi))
			perLevel = append(perLevel, ZonePred{Slot: p.refSlot, Lo: p.lo, Hi: p.hi})
		}
		got, gs := PruneZonesStats(z, rows, lowered)
		want, ws := PruneZonesStats(ref, rows, perLevel)
		gs.Narrowed, ws.Narrowed = false, false
		if !slices.Equal(got, want) || gs != ws {
			t.Errorf("%s: predicates %+v lowered to %+v keep %v %+v; per level %v %+v", what, ps, lowered, got, gs, want, ws)
		}
		zc.preds++
		if ws.Kept > 0 && ws.Skipped > 0 {
			zc.split++
		}
	}
	for _, p := range cands {
		try([]pred{p})
	}
	for range 2 * len(cands) {
		ps := make([]pred, 2+rng.Intn(2))
		for i := range ps {
			ps[i] = cands[rng.Intn(len(cands))]
		}
		try(ps)
	}
}

// TestFinalizeIsOnePass watches the cube directory from inside Finalize:
// the resolver, which workers call for every zone-mapped row, lists the
// directory each time. Only the logs and the final files may ever exist
// — no temporary, no raw copy, no manifest before the end — and a final
// file, once created, only grows.
func TestFinalizeIsOnePass(t *testing.T) {
	dir := t.TempDir()
	allowed := map[string]bool{HierFile: true}
	for _, name := range []string{NTFile, TTFile, CATFile, AggFile} {
		allowed[name], allowed[name+".log"] = true, true
	}
	var (
		mu       sync.Mutex
		sizes    = map[string]int64{}
		calls    int
		problems []string
	)
	resolver := func(rrowid int64, dst []int32) error {
		mu.Lock()
		defer mu.Unlock()
		if calls++; calls%97 != 0 { // listing on every row is needlessly slow
			return finalizeTestResolver(rrowid, dst)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		for _, e := range entries {
			name := e.Name()
			if !allowed[name] {
				problems = append(problems, "unexpected file "+name)
				continue
			}
			if strings.HasSuffix(name, ".log") {
				continue
			}
			fi, err := e.Info()
			if err != nil {
				return err
			}
			if fi.Size() < sizes[name] {
				problems = append(problems, name+" shrank")
			}
			sizes[name] = fi.Size()
		}
		return finalizeTestResolver(rrowid, dst)
	}
	w := newTestWriter(t, Options{
		Dir: dir, FactRows: 5000, ZoneBlockRows: 64,
		Parallelism: 4, Resolver: perRow(resolver),
	})
	writeWorkload(t, w, true)
	if calls < 97 {
		t.Fatalf("resolver called %d times; the directory was never watched", calls)
	}
	for _, p := range problems {
		t.Error(p)
	}
	// Whatever was seen mid-pass was a prefix of the final file.
	for name, seen := range sizes {
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() < seen {
			t.Errorf("%s ended at %d bytes after being seen at %d", name, fi.Size(), seen)
		}
	}
	if st, err := ReadFinalizeStats(dir); err != nil || st.Encodings[encName(encBitmap)] == 0 {
		t.Errorf("workload wrote no bitmap TT block (err %v); the one-block rule went unwatched", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if n := e.Name(); !allowed[n] && n != ManifestFile && n != FinalizeStatsFile || strings.HasSuffix(n, ".log") {
			t.Errorf("finalized cube holds %s", n)
		}
	}
}

// explodingResolver is a DimResolver that panics on its first call.
func explodingResolver([]int64, [][]int32) error {
	panic("resolver exploded")
}

// TestFinalizeWorkerPanicKeepsContext: a panicking Resolver reaches the
// caller of Finalize as an *obsv.PanicError that names the relation and
// the node being built and carries the worker's own stack, inline (P=1)
// and on a helper (P=2).
func TestFinalizeWorkerPanicKeepsContext(t *testing.T) {
	ctxRE := regexp.MustCompile(`^finalize worker slot=\d+ relation=nt node=(\d+)$`)
	for _, p := range []int{1, 2} {
		w := newTestWriter(t, Options{
			Dir: t.TempDir(), FactRows: 5000, ZoneBlockRows: 64,
			Parallelism: p, Resolver: explodingResolver,
		})
		enum := w.Enum()
		got := func() (v any) {
			defer func() { v = recover() }()
			writeWorkload(t, w, false)
			return nil
		}()
		pe, ok := got.(*obsv.PanicError)
		if !ok {
			t.Fatalf("P=%d: recovered %T %v, want *obsv.PanicError", p, got, got)
		}
		m := ctxRE.FindStringSubmatch(pe.Context)
		if m == nil {
			t.Fatalf("P=%d: panic context %q names no NT node", p, pe.Context)
		}
		if node := m[1]; node != strconv.Itoa(int(enum.Encode([]int{0, 0}))) && node != strconv.Itoa(int(enum.Encode([]int{1, 1}))) {
			t.Fatalf("P=%d: panic names node %s, which has no NT extent", p, node)
		}
		if pe.Value != "resolver exploded" || !bytes.Contains(pe.Stack, []byte("storage.explodingResolver")) {
			t.Fatalf("P=%d: value %v, stack lacks the resolver's frame:\n%s", p, pe.Value, pe.Stack)
		}
	}
}

// TestFailedFinalizeLeavesNoCube kills Finalize mid-pass — the resolver
// fails once the NT file has been written and the TT pass is under way —
// and demands a directory that does not open: no logs, no partial
// relation files, no manifest, not even the one of the cube that was
// there before.
func TestFailedFinalizeLeavesNoCube(t *testing.T) {
	dir := t.TempDir()
	buildFinalizeCube(t, dir, 1, false, false)
	if r, err := OpenReader(dir); err != nil {
		t.Fatal(err)
	} else {
		r.Close()
	}

	boom := errors.New("injected resolver failure")
	var mu sync.Mutex
	calls := 0
	w := newTestWriter(t, Options{
		Dir: dir, FactRows: 5000, ZoneBlockRows: 64, Parallelism: 2,
		Resolver: perRow(func(rrowid int64, dst []int32) error {
			mu.Lock()
			defer mu.Unlock()
			if calls++; calls > 1200 { // 1000 NT rows, then into the TT extent
				return boom
			}
			return finalizeTestResolver(rrowid, dst)
		}),
	})
	enum := w.Enum()
	for i := 0; i < 1000; i++ {
		if err := w.WriteNT(enum.Encode([]int{0, 0}), int64(i), []float64{1, 1}); err != nil {
			t.Fatal(err)
		}
		if err := w.WriteTT(enum.Encode([]int{1, 1}), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.Finalize(signature.FormatNT); !errors.Is(err, boom) {
		t.Fatalf("Finalize error = %v, want the injected failure", err)
	}
	if _, err := OpenReader(dir); err == nil {
		t.Error("directory opens as a cube after a failed Finalize")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != FinalizeStatsFile { // the previous build's telemetry
			t.Errorf("failed Finalize left %s behind", e.Name())
		}
	}
}

// TestFinalizeStatsSidecar checks the sidecar's shape on a parallel
// build, and that ReadFinalizeStats fails cleanly on a directory
// without one.
func TestFinalizeStatsSidecar(t *testing.T) {
	dir := t.TempDir()
	buildFinalizeCube(t, dir, 8, true, false)
	st, err := ReadFinalizeStats(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Parallelism != 8 || st.Workers < 1 || st.Workers > 8 {
		t.Errorf("parallelism=%d workers=%d", st.Parallelism, st.Workers)
	}
	if st.Extents == 0 || st.Blocks == 0 || len(st.Encodings) == 0 {
		t.Errorf("empty pipeline record: %+v", st)
	}
	if st.ZoneExtents == 0 {
		t.Error("no zone extents recorded despite resolver being set")
	}
	if st.GatherSec <= 0 || st.EncodeSec <= 0 || st.ZoneFoldSec <= 0 {
		t.Errorf("work split not recorded: gather=%v encode=%v zone_fold=%v", st.GatherSec, st.EncodeSec, st.ZoneFoldSec)
	}
	if len(st.WorkerRawBytes) < 1 || len(st.WorkerRawBytes) > st.Workers {
		t.Errorf("worker skew record has %d slots for %d workers", len(st.WorkerRawBytes), st.Workers)
	}
	var sum int64
	for _, b := range st.WorkerRawBytes {
		sum += b
	}
	if sum == 0 {
		t.Error("worker skew record sums to zero")
	}
	if _, err := ReadFinalizeStats(t.TempDir()); err == nil {
		t.Error("sidecar read from empty dir succeeded")
	}
}

// TestSortRowIDs holds §5.3's row-id sort to slices.Sort on both sides of
// its rule — a bitset when the ids span fewer than 64 values per id, a
// comparison sort otherwise — and requires a repeated id to be an error.
func TestSortRowIDs(t *testing.T) {
	const factRows = 123_930
	rng := rand.New(rand.NewSource(5))
	// spread returns n distinct ids whose max − min is exactly span.
	spread := func(lo int64, n int, span int64) []int64 {
		ids := []int64{lo, lo + span}
		for _, off := range rng.Perm(int(span) - 1)[:n-2] {
			ids = append(ids, lo+1+int64(off))
		}
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		return ids
	}
	for _, tc := range []struct {
		name   string
		ids    []int64
		bitset bool // the rule's side
	}{
		{"empty", nil, false},
		{"one id", []int64{42}, false},
		{"dense span", spread(1000, 900, 999), true},
		{"span 64n-1", spread(7, 50, 64*50-1), true},
		{"span 64n", spread(7, 50, 64*50), false},
		{"ids at 0 and FactRows-1", spread(0, 3000, factRows-1), true},
		{"sparse ids at 0 and FactRows-1", spread(0, 100, factRows-1), false},
		{"near MaxInt64", []int64{math.MaxInt64, math.MaxInt64 - 64, math.MaxInt64 - 3}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := slices.Clone(tc.ids)
			slices.Sort(want)
			got := slices.Clone(tc.ids)
			words, err := sortRowIDs(got, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("sorted %v, want %v", got, want)
			}
			if (len(words) > 0) != tc.bitset {
				t.Errorf("bitset of %d words; want the bitset side = %v", len(words), tc.bitset)
			}
		})
	}
	for _, ids := range [][]int64{{5, 9, 5, 7}, {factRows - 1, 0, factRows - 1}} {
		if _, err := sortRowIDs(ids, nil); err == nil || !strings.Contains(err.Error(), "repeats") {
			t.Errorf("%v: error %v, want the repeated id reported", ids, err)
		}
	}
}

// TestFinalizeRejectsRepeatedRowID: a node's TT row-ids are distinct by
// construction, so a repeat is a finalize error that names the node.
func TestFinalizeRejectsRepeatedRowID(t *testing.T) {
	w := newTestWriter(t, Options{})
	node := w.Enum().Encode([]int{1, 0})
	for _, id := range []int64{4, 8, 4} {
		if err := w.WriteTT(node, id); err != nil {
			t.Fatal(err)
		}
	}
	_, err := w.Finalize(signature.FormatNT)
	if err == nil || !strings.Contains(err.Error(), "node "+strconv.Itoa(int(node))) {
		t.Fatalf("Finalize error %v, want one naming node %d", err, node)
	}
}

// BenchmarkSortRowIDs sorts the shape of the largest TT extent of an APB
// density-0.01 cube: 88,144 ids spread over 123,930 fact rows.
func BenchmarkSortRowIDs(b *testing.B) {
	const n, span = 88_144, 123_930
	src := make([]int64, n)
	for i, v := range rand.New(rand.NewSource(1)).Perm(span)[:n] {
		src[i] = int64(v)
	}
	ids := make([]int64, n)
	words, _ := sortRowIDs(slices.Clone(src), nil)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		copy(ids, src)
		var err error
		if words, err = sortRowIDs(ids, words); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/id")
}

// BenchmarkFoldExtentZones folds one resolved 64k-row chunk of APB base
// codes into a zone map at the default block size: per-block bounds of
// every base code. With Product's Class map permuted, Class is no longer
// non-decreasing and keeps a slot of its own, folded per block from its
// mapped codes.
func BenchmarkFoldExtentZones(b *testing.B) {
	for _, permuted := range []bool{false, true} {
		name := "monotone"
		if permuted {
			name = "permuted-class"
		}
		b.Run(name, func(b *testing.B) {
			hier := gen.APBSchema()
			rng := rand.New(rand.NewSource(1))
			if permuted {
				class := hier.Dims[0].Levels[1].Map
				perm := rng.Perm(int(hier.Dims[0].Card(1)))
				for i, c := range class {
					class[i] = int32(perm[c])
				}
			}
			zl := NewZoneLayout(hier)
			if own := zl.levels[0][1].slot >= 0; own != permuted {
				b.Fatalf("Class keeps its own slot = %v, want %v", own, permuted)
			}
			const rows = resolveChunkRows
			base := make([][]int32, hier.NumDims())
			for d := range base {
				base[d] = make([]int32, rows)
				for i := range base[d] {
					base[d][i] = rng.Int31n(hier.Dims[d].Card(0))
				}
			}
			zb := newZoneBuilder(DefaultZoneBlockRows, zl.slots)
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				zb.lo, zb.hi, zb.n = zb.lo[:0], zb.hi[:0], 0
				zl.fold(zb, base, rows)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
		})
	}
}
