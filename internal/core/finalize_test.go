package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"cure/internal/factstore"
	"cure/internal/obsv"
	"cure/internal/relation"
	"cure/internal/storage"
)

// readCubeFiles loads a cube's extent files and manifest keyed by name
// (the finalize sidecar is excluded — it records wall clocks, which
// legitimately vary run to run).
func readCubeFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for _, name := range []string{
		storage.NTFile, storage.TTFile, storage.CATFile,
		storage.AggFile, storage.HierFile, storage.ManifestFile,
	} {
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

// TestFinalizeParallelismByteIdentity is the end-to-end contract of the
// finalize pipeline: with the construction phase held sequential, any
// FinalizeParallelism must produce byte-identical extent files and
// manifests — across the flat, hierarchical, and pair-partitioned build
// paths. Run with -race this doubles as the pipeline's data-race regression
// test over real builds (the pair-partitioned case has every finalize
// worker dereferencing through the build's one paged fact store).
func TestFinalizeParallelismByteIdentity(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		seed int64
		pair bool
		rows int
	}{
		{name: "hierarchical", opts: Options{AggSpecs: testSpecs()}, seed: 7, rows: 1500},
		{name: "flat", opts: Options{AggSpecs: testSpecs(), Flat: true}, seed: 8, rows: 1500},
		{name: "pair-partitioned", opts: Options{AggSpecs: testSpecs(), MemoryBudget: 5_600}, seed: 27, pair: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := tc.opts
			opts.Parallelism = 1
			if tc.pair {
				opts.Hier = pairHier(t)
			} else {
				opts.Hier = paperHier(t)
			}
			ft := pairEquivFact(t, tc.seed)
			if !tc.pair {
				ft = randomFact(t, tc.rows, tc.seed)
			}

			// One shared fact file: the manifest embeds its path, and the
			// byte comparison must only see finalize-pipeline effects.
			base := t.TempDir()
			factPath := filepath.Join(base, "fact.bin")
			if err := relation.WriteFactFile(factPath, ft); err != nil {
				t.Fatal(err)
			}
			opts.FactPath = factPath

			var ref map[string][]byte
			for _, p := range []int{1, 2, 8} {
				opts.FinalizeParallelism = p
				cube := filepath.Join(base, "cube-fp"+string(rune('0'+p)))
				opts.Dir = cube
				if _, err := Build(opts); err != nil {
					t.Fatal(err)
				}
				got := readCubeFiles(t, cube)
				if ref == nil {
					ref = got
					continue
				}
				if len(got) != len(ref) {
					t.Fatalf("FinalizeParallelism=%d: %d files, want %d", p, len(got), len(ref))
				}
				for name, want := range ref {
					if !bytes.Equal(got[name], want) {
						t.Errorf("FinalizeParallelism=%d: %s differs from sequential finalize", p, name)
					}
				}
			}
		})
	}
}

// TestFinalizeUnderStoreEviction: an out-of-core finalize dereferences
// through a fact store that keeps a bounded number of pages, and every
// golden partitioned build fits inside the real bound. Here the store
// holds two pages of a twelve-page fact file, so zone folds and the
// CURE_DR projection evict constantly — from eight workers at once at P=8
// — and the cube must come out byte-identical to the one built with the
// whole file resident.
func TestFinalizeUnderStoreEviction(t *testing.T) {
	ft := randomFact(t, 3000, 13)
	base := t.TempDir()
	factPath := filepath.Join(base, "fact.bin")
	if err := relation.WriteFactFile(factPath, ft); err != nil {
		t.Fatal(err)
	}
	for _, dr := range []bool{false, true} {
		for _, p := range []int{1, 8} {
			name := fmt.Sprintf("dr=%v/P=%d", dr, p)
			opts := Options{
				FactPath: factPath, Hier: paperHier(t), AggSpecs: testSpecs(),
				MemoryBudget: 60_000, DimsInline: dr, ZoneBlockRows: 64,
				Parallelism: 1, FinalizeParallelism: p,
			}
			cubes := map[int64]map[string][]byte{}
			for _, storeRows := range []int64{factStoreRows, 2 * factstore.PageRows} {
				opts.Dir = filepath.Join(base, fmt.Sprintf("cube-%v-%d-%d", dr, p, storeRows))
				st, err := build(opts, nil, storeRows)
				if err != nil {
					t.Fatalf("%s: store of %d rows: %v", name, storeRows, err)
				}
				if !st.Partitioned {
					t.Fatalf("%s: the build ran in memory and never paged", name)
				}
				cubes[storeRows] = readCubeFiles(t, opts.Dir)
			}
			want := cubes[factStoreRows]
			if !bytes.Contains(want[storage.ManifestFile], []byte(`"block_rows":64`)) {
				t.Fatalf("%s: no zone map in the manifest; the folds went untested", name)
			}
			for fname, data := range cubes[2*factstore.PageRows] {
				if !bytes.Equal(data, want[fname]) {
					t.Errorf("%s: %s differs from the build whose store never evicted", name, fname)
				}
			}
		}
	}
}

// TestFinalizeSidecarFromBuild checks the wiring end to end: a core build
// leaves a finalize sidecar recording the configured parallelism and the
// pipeline's volume, and FinalizeParallelism=0 inherits Parallelism.
func TestFinalizeSidecarFromBuild(t *testing.T) {
	dir := t.TempDir()
	opts := Options{
		Hier: paperHier(t), AggSpecs: testSpecs(), Parallelism: 4,
	}
	buildAt(t, dir, randomFact(t, 1200, 5), opts)
	st, err := storage.ReadFinalizeStats(filepath.Join(dir, "cube"))
	if err != nil {
		t.Fatal(err)
	}
	if st.Parallelism != 4 {
		t.Errorf("sidecar parallelism = %d, want 4 (inherited from Options.Parallelism)", st.Parallelism)
	}
	if st.Extents == 0 || st.Blocks == 0 {
		t.Errorf("sidecar records no pipeline volume: %+v", st)
	}
	if st.CompressSec <= 0 {
		t.Errorf("sidecar records no finalize wall clock: %+v", st)
	}
}

// TestFinalizeSpansNameTheWork: the finalize span has one child per
// relation file plus the commit, and the sidecar's wall clocks account
// for the span.
func TestFinalizeSpansNameTheWork(t *testing.T) {
	reg := obsv.NewRegistry()
	dir := t.TempDir()
	buildAt(t, dir, randomFact(t, 3000, 5), Options{Hier: paperHier(t), AggSpecs: testSpecs(), Metrics: reg})
	var fin *obsv.SpanSnapshot
	for _, root := range reg.Snapshot().Spans {
		for i, ch := range root.Children {
			if root.Name == "build" && ch.Name == "finalize" {
				fin = &root.Children[i]
			}
		}
	}
	if fin == nil {
		t.Fatal("no build/finalize span")
	}
	var names []string
	for _, ch := range fin.Children {
		names = append(names, ch.Name)
	}
	if want := []string{"extents.nt", "extents.tt", "extents.agg", "extents.cat", "commit"}; !slices.Equal(names, want) {
		t.Errorf("finalize children = %v, want %v", names, want)
	}
	st, err := storage.ReadFinalizeStats(filepath.Join(dir, "cube"))
	if err != nil {
		t.Fatal(err)
	}
	sum := st.CompactSec + st.CompressSec + st.ZonesSec + st.CommitSec
	if sum > fin.ElapsedSec || sum < fin.ElapsedSec/2 {
		t.Errorf("sidecar wall clocks sum to %.4fs, the finalize span took %.4fs", sum, fin.ElapsedSec)
	}
}

// TestCompressionVestige: the one extent format answers to "", "auto" and
// "block"; the retired modes are errors, not silent fallbacks.
func TestCompressionVestige(t *testing.T) {
	ft := randomFact(t, 200, 5)
	for _, mode := range []string{"", "auto", "block"} {
		buildAt(t, t.TempDir(), ft, Options{Hier: paperHier(t), AggSpecs: testSpecs(), Compression: mode})
	}
	for _, mode := range []string{"none", "sampled", "zstd"} {
		opts := Options{Dir: t.TempDir(), Hier: paperHier(t), AggSpecs: testSpecs(), Compression: mode}
		if _, err := BuildFromTable(ft, opts); err == nil {
			t.Errorf("Compression %q accepted", mode)
		}
	}
}
