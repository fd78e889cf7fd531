package update

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"cure/internal/core"
	"cure/internal/hierarchy"
	"cure/internal/lattice"
	"cure/internal/query"
	"cure/internal/relation"
	"cure/internal/storage"
)

func testHier(t testing.TB) *hierarchy.Schema {
	t.Helper()
	am1 := hierarchy.BuildContiguousMap(12, 4)
	a, err := hierarchy.NewLinearDim("A", []string{"A0", "A1"}, []int32{12, 4}, [][]int32{am1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := hierarchy.NewLinearDim("B", []string{"B0", "B1"}, []int32{8, 2}, [][]int32{hierarchy.BuildContiguousMap(8, 2)})
	if err != nil {
		t.Fatal(err)
	}
	s, err := hierarchy.NewSchema(a, b, hierarchy.NewFlatDim("C", 3))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func randomRows(rng *rand.Rand, n int) *relation.FactTable {
	schema := &relation.Schema{DimNames: []string{"A", "B", "C"}, MeasureNames: []string{"M"}}
	ft := relation.NewFactTable(schema, n)
	for i := 0; i < n; i++ {
		ft.Append(
			[]int32{int32(rng.Intn(12)), int32(rng.Intn(8)), int32(rng.Intn(3))},
			[]float64{float64(rng.Intn(9))},
		)
	}
	return ft
}

func specs() []relation.AggSpec {
	return []relation.AggSpec{{Func: relation.AggSum, Measure: 0}, {Func: relation.AggCount}}
}

// combine concatenates two tables.
func combine(a, b *relation.FactTable) *relation.FactTable {
	out := relation.NewFactTable(a.Schema, a.Len()+b.Len())
	dims := make([]int32, a.Schema.NumDims())
	meas := make([]float64, a.Schema.NumMeasures())
	for _, t := range []*relation.FactTable{a, b} {
		for r := 0; r < t.Len(); r++ {
			dims = t.DimRow(r, dims)
			meas = t.MeasureRow(r, meas)
			out.Append(dims, meas)
		}
	}
	return out
}

// cubesEqual compares two cube directories node by node (dims + aggrs).
func cubesEqual(t *testing.T, gotDir, wantDir string) {
	t.Helper()
	got, err := query.OpenDefault(gotDir)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	want, err := query.OpenDefault(wantDir)
	if err != nil {
		t.Fatal(err)
	}
	defer want.Close()
	if got.Enum().NumNodes() != want.Enum().NumNodes() {
		t.Fatalf("node counts differ: %d vs %d", got.Enum().NumNodes(), want.Enum().NumNodes())
	}
	key := func(row query.Row) string {
		var b strings.Builder
		for _, d := range row.Dims {
			fmt.Fprintf(&b, "%d|", d)
		}
		return b.String()
	}
	for _, id := range want.Enum().AllNodes() {
		wantRows := map[string][]float64{}
		if err := want.Query(query.Spec{Node: id}, func(row query.Row) error {
			wantRows[key(row)] = append([]float64(nil), row.Aggrs...)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		count := 0
		if err := got.Query(query.Spec{Node: id}, func(row query.Row) error {
			w, ok := wantRows[key(row)]
			if !ok {
				return fmt.Errorf("unexpected tuple %v", row.Dims)
			}
			for i := range w {
				if w[i] != row.Aggrs[i] {
					return fmt.Errorf("tuple %v: aggrs %v, want %v", row.Dims, row.Aggrs, w)
				}
			}
			count++
			return nil
		}); err != nil {
			t.Fatalf("node %s: %v", want.Enum().Name(id), err)
		}
		if count != len(wantRows) {
			t.Fatalf("node %s: %d tuples, want %d", want.Enum().Name(id), count, len(wantRows))
		}
	}
}

func TestApplyMatchesRebuild(t *testing.T) {
	hier := testHier(t)
	rng := rand.New(rand.NewSource(77))
	base := randomRows(rng, 400)
	delta := randomRows(rng, 80)

	dir := t.TempDir()
	oldDir := filepath.Join(dir, "old")
	if _, err := core.BuildFromTable(base, core.Options{Dir: oldDir, Hier: hier, AggSpecs: specs()}); err != nil {
		t.Fatal(err)
	}
	newDir := filepath.Join(dir, "new")
	stats, err := Apply(Options{OldDir: oldDir, NewDir: newDir, Delta: delta})
	if err != nil {
		t.Fatal(err)
	}
	if stats.DeltaRows != 80 {
		t.Fatalf("stats = %+v", stats)
	}

	// Ground truth: a from-scratch cube over base ∪ delta.
	refDir := filepath.Join(dir, "ref")
	if _, err := core.BuildFromTable(combine(base, delta), core.Options{Dir: refDir, Hier: hier, AggSpecs: specs()}); err != nil {
		t.Fatal(err)
	}
	cubesEqual(t, newDir, refDir)
}

func TestApplyRepeatedBatches(t *testing.T) {
	// Three consecutive delta batches must equal one big rebuild.
	hier := testHier(t)
	rng := rand.New(rand.NewSource(5))
	base := randomRows(rng, 200)
	dir := t.TempDir()
	cur := filepath.Join(dir, "cube0")
	if _, err := core.BuildFromTable(base, core.Options{Dir: cur, Hier: hier, AggSpecs: specs()}); err != nil {
		t.Fatal(err)
	}
	all := base
	for batch := 1; batch <= 3; batch++ {
		delta := randomRows(rng, 50)
		next := filepath.Join(dir, fmt.Sprintf("cube%d", batch))
		if _, err := Apply(Options{OldDir: cur, NewDir: next, Delta: delta}); err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		all = combine(all, delta)
		cur = next
	}
	refDir := filepath.Join(dir, "ref")
	if _, err := core.BuildFromTable(all, core.Options{Dir: refDir, Hier: hier, AggSpecs: specs()}); err != nil {
		t.Fatal(err)
	}
	cubesEqual(t, cur, refDir)
}

func TestApplyTTTransitions(t *testing.T) {
	// A crafted case: the base has a singleton (a TT) that the delta
	// duplicates (TT → aggregated tuple) and the delta introduces a brand
	// new singleton (a new TT).
	hier := testHier(t)
	schema := &relation.Schema{DimNames: []string{"A", "B", "C"}, MeasureNames: []string{"M"}}
	base := relation.NewFactTable(schema, 3)
	base.Append([]int32{0, 0, 0}, []float64{1})
	base.Append([]int32{0, 0, 0}, []float64{2})
	base.Append([]int32{5, 5, 1}, []float64{3}) // singleton → TT
	delta := relation.NewFactTable(schema, 2)
	delta.Append([]int32{5, 5, 1}, []float64{4})  // hits the TT
	delta.Append([]int32{11, 7, 2}, []float64{5}) // new singleton

	dir := t.TempDir()
	oldDir := filepath.Join(dir, "old")
	if _, err := core.BuildFromTable(base, core.Options{Dir: oldDir, Hier: hier, AggSpecs: specs()}); err != nil {
		t.Fatal(err)
	}
	newDir := filepath.Join(dir, "new")
	if _, err := Apply(Options{OldDir: oldDir, NewDir: newDir, Delta: delta}); err != nil {
		t.Fatal(err)
	}
	refDir := filepath.Join(dir, "ref")
	if _, err := core.BuildFromTable(combine(base, delta), core.Options{Dir: refDir, Hier: hier, AggSpecs: specs()}); err != nil {
		t.Fatal(err)
	}
	cubesEqual(t, newDir, refDir)

	// The upgraded group must now report count 2 at the base node.
	eng, err := query.OpenDefault(newDir)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	node := eng.Enum().Encode([]int{0, 0, 0})
	found := false
	if err := eng.Query(query.Spec{Node: node}, func(row query.Row) error {
		if row.Dims[0] == 5 && row.Dims[1] == 5 && row.Dims[2] == 1 {
			found = true
			if row.Aggrs[1] != 2 || row.Aggrs[0] != 7 {
				t.Errorf("upgraded TT aggrs = %v", row.Aggrs)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Error("upgraded TT missing from base node")
	}
}

// TestApplyOnPlusCubeKeepsPlus: a refreshed cube has the CURE+ layout
// every build writes — each node's TT row-ids ascending, the delta's
// row-ids included — and answers like a from-scratch build.
func TestApplyOnPlusCubeKeepsPlus(t *testing.T) {
	hier := testHier(t)
	rng := rand.New(rand.NewSource(9))
	base := randomRows(rng, 150)
	delta := randomRows(rng, 30)
	dir := t.TempDir()
	oldDir := filepath.Join(dir, "old")
	if _, err := core.BuildFromTable(base, core.Options{Dir: oldDir, Hier: hier, AggSpecs: specs()}); err != nil {
		t.Fatal(err)
	}
	newDir := filepath.Join(dir, "new")
	if _, err := Apply(Options{OldDir: oldDir, NewDir: newDir, Delta: delta}); err != nil {
		t.Fatal(err)
	}
	r, err := storage.OpenReader(newDir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var tts []int64
	for _, id := range r.Enum().AllNodes() {
		ids, err := r.TTRowIDs(id, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.IsSorted(ids) {
			t.Errorf("node %s: TT row-ids %v not ascending", r.Enum().Name(id), ids)
		}
		tts = append(tts, ids...)
	}
	if len(tts) == 0 || slices.Max(tts) < int64(base.Len()) {
		t.Fatalf("refreshed cube holds %d TTs, none from the delta: the check is vacuous", len(tts))
	}
	refDir := filepath.Join(dir, "ref")
	if _, err := core.BuildFromTable(combine(base, delta), core.Options{Dir: refDir, Hier: hier, AggSpecs: specs()}); err != nil {
		t.Fatal(err)
	}
	cubesEqual(t, newDir, refDir)
}

// TestApplyKeepsVariant: a refresh is a build, so every variant a build
// supports can be refreshed, and the refreshed cube is the variant the old
// one was — equal to a from-scratch build of base ∪ delta with the same
// options.
func TestApplyKeepsVariant(t *testing.T) {
	hier := testHier(t)
	rng := rand.New(rand.NewSource(2))
	base := randomRows(rng, 60)
	delta := randomRows(rng, 10)
	for _, tc := range []struct {
		name string
		opts core.Options
	}{
		{"dr", core.Options{AggSpecs: specs(), DimsInline: true}},
		{"iceberg", core.Options{AggSpecs: specs(), Iceberg: 3}},
		{"nocount", core.Options{AggSpecs: []relation.AggSpec{{Func: relation.AggSum, Measure: 0}}}},
		{"flat", core.Options{AggSpecs: specs(), Flat: true}},
		{"shortplan", func() core.Options { o := core.Options{AggSpecs: specs()}; core.ShortestPlan(&o); return o }()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			opts := tc.opts
			opts.Hier = hier
			opts.Dir = filepath.Join(dir, "old")
			if _, err := core.BuildFromTable(base, opts); err != nil {
				t.Fatal(err)
			}
			newDir := filepath.Join(dir, "new")
			if _, err := Apply(Options{OldDir: opts.Dir, NewDir: newDir, Delta: delta}); err != nil {
				t.Fatal(err)
			}
			m, err := storage.ReadManifest(newDir)
			if err != nil {
				t.Fatal(err)
			}
			if m.DimsInline != tc.opts.DimsInline || m.Iceberg != max(tc.opts.Iceberg, 1) {
				t.Errorf("refreshed manifest is not the old variant: %+v", m)
			}
			opts.Dir = filepath.Join(dir, "ref")
			if _, err := core.BuildFromTable(combine(base, delta), opts); err != nil {
				t.Fatal(err)
			}
			cubesEqual(t, newDir, opts.Dir)
		})
	}
}

// TestApplyValidation: everything Apply refuses it refuses before it has
// written anything — the fact file keeps its bytes and NewDir is not made.
func TestApplyValidation(t *testing.T) {
	hier := testHier(t)
	rng := rand.New(rand.NewSource(2))
	base := randomRows(rng, 60)
	delta := randomRows(rng, 10)
	dir := t.TempDir()

	okDir := filepath.Join(dir, "ok")
	if _, err := core.BuildFromTable(base, core.Options{Dir: okDir, Hier: hier, AggSpecs: specs()}); err != nil {
		t.Fatal(err)
	}
	// A cube over a row-id-tagged fact file (what a partition file is).
	taggedBase := relation.NewFactTable(base.Schema, base.Len())
	for r := 0; r < base.Len(); r++ {
		taggedBase.AppendWithRowID(base.DimRow(r, nil), base.MeasureRow(r, nil), int64(r))
	}
	taggedDir := filepath.Join(dir, "tagged")
	if _, err := core.BuildFromTable(taggedBase, core.Options{Dir: taggedDir, Hier: hier, AggSpecs: specs()}); err != nil {
		t.Fatal(err)
	}

	empty := relation.NewFactTable(base.Schema, 0)
	tagged := relation.NewFactTable(base.Schema, 1)
	tagged.AppendWithRowID([]int32{0, 0, 0}, []float64{1}, 5)
	twoMeasures := relation.NewFactTable(&relation.Schema{DimNames: base.Schema.DimNames, MeasureNames: []string{"M", "N"}}, 1)
	twoMeasures.Append([]int32{0, 0, 0}, []float64{1, 2})
	twoDims := relation.NewFactTable(&relation.Schema{DimNames: []string{"A", "B"}, MeasureNames: []string{"M"}}, 1)
	twoDims.Append([]int32{0, 0}, []float64{1})

	newDir := filepath.Join(dir, "new")
	for _, tc := range []struct {
		name   string
		oldDir string
		newDir string
		delta  *relation.FactTable
	}{
		{"empty delta", okDir, newDir, empty},
		{"nil delta", okDir, newDir, nil},
		{"same old and new dir", okDir, okDir, delta},
		{"row-id-tagged delta", okDir, newDir, tagged},
		{"delta with another measure count", okDir, newDir, twoMeasures},
		{"delta with another dimension count", okDir, newDir, twoDims},
		{"row-id-tagged fact file", taggedDir, newDir, delta},
	} {
		factPath := filepath.Join(tc.oldDir, "fact.bin")
		before, err := os.ReadFile(factPath)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Apply(Options{OldDir: tc.oldDir, NewDir: tc.newDir, Delta: tc.delta}); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
		if after, err := os.ReadFile(factPath); err != nil || !bytes.Equal(before, after) {
			t.Errorf("%s: fact file changed (%v)", tc.name, err)
		}
		if _, err := os.Stat(newDir); !os.IsNotExist(err) {
			t.Errorf("%s: NewDir exists after the refusal (%v)", tc.name, err)
		}
	}

	// A cube that is not the newest over its fact file: the delta would
	// land after rows the cube does not cover.
	if _, err := Apply(Options{OldDir: okDir, NewDir: newDir, Delta: delta}); err != nil {
		t.Fatal(err)
	}
	if _, err := Apply(Options{OldDir: okDir, NewDir: filepath.Join(dir, "again"), Delta: delta}); err == nil || !strings.Contains(err.Error(), "covers") {
		t.Errorf("second apply onto the superseded cube: %v", err)
	}
}

// TestFailedApplyLeavesFactFileUntouched: the fact file is extended last,
// so an Apply that cannot write its cube (NewDir's parent is a regular
// file) leaves the file byte-identical, the old cube answering and no
// NewDir.
func TestFailedApplyLeavesFactFileUntouched(t *testing.T) {
	hier := testHier(t)
	rng := rand.New(rand.NewSource(21))
	base, delta := randomRows(rng, 120), randomRows(rng, 40)
	dir := t.TempDir()
	oldDir := filepath.Join(dir, "old")
	if _, err := core.BuildFromTable(base, core.Options{Dir: oldDir, Hier: hier, AggSpecs: specs()}); err != nil {
		t.Fatal(err)
	}
	factPath := filepath.Join(oldDir, "fact.bin")
	before, err := os.ReadFile(factPath)
	if err != nil {
		t.Fatal(err)
	}
	blocker := filepath.Join(dir, "file")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	newDir := filepath.Join(blocker, "new")
	if _, err := Apply(Options{OldDir: oldDir, NewDir: newDir, Delta: delta}); err == nil {
		t.Fatal("Apply into an uncreatable NewDir succeeded")
	}
	after, err := os.ReadFile(factPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Errorf("failed Apply changed the fact file: %d → %d bytes", len(before), len(after))
	}
	if _, err := os.Stat(newDir); err == nil {
		t.Error("failed Apply left a NewDir")
	}
	// The old cube is intact, and still the newest: the same Apply into a
	// creatable directory goes through.
	if _, err := Apply(Options{OldDir: oldDir, NewDir: filepath.Join(dir, "new"), Delta: delta}); err != nil {
		t.Fatal(err)
	}
}

// TestRefreshedCubeRefusesShortFactFile: a crash between the refreshed
// cube's finalize and the fact-file append leaves a NewDir whose manifest
// counts rows the file does not hold. It must refuse to open rather than
// answer from the wrong rows, while the old cube keeps answering.
func TestRefreshedCubeRefusesShortFactFile(t *testing.T) {
	hier := testHier(t)
	rng := rand.New(rand.NewSource(22))
	base, delta := randomRows(rng, 120), randomRows(rng, 40)
	dir := t.TempDir()
	oldDir := filepath.Join(dir, "old")
	if _, err := core.BuildFromTable(base, core.Options{Dir: oldDir, Hier: hier, AggSpecs: specs()}); err != nil {
		t.Fatal(err)
	}
	factPath := filepath.Join(oldDir, "fact.bin")
	preAppend, err := os.ReadFile(factPath)
	if err != nil {
		t.Fatal(err)
	}
	newDir := filepath.Join(dir, "new")
	if _, err := Apply(Options{OldDir: oldDir, NewDir: newDir, Delta: delta}); err != nil {
		t.Fatal(err)
	}
	// Rewind to the crash window.
	if err := os.WriteFile(factPath, preAppend, 0o644); err != nil {
		t.Fatal(err)
	}
	if eng, err := query.OpenDefault(newDir); err == nil {
		eng.Close()
		t.Error("refreshed cube opened over a fact file shorter than its manifest")
	} else if !strings.Contains(err.Error(), "120 rows") || !strings.Contains(err.Error(), "160 rows") {
		t.Errorf("unexpected open error: %v", err)
	}
	old, err := query.OpenDefault(oldDir)
	if err != nil {
		t.Fatalf("old cube no longer opens: %v", err)
	}
	defer old.Close()
	rep, err := old.Verify(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Errorf("old cube no longer verifies: %v", rep.Errors)
	}
}

func TestOldCubeStillQueryableAfterApply(t *testing.T) {
	// The fact file grows, but the old cube's manifest pins its row
	// count, so its queries keep returning the pre-delta state.
	hier := testHier(t)
	rng := rand.New(rand.NewSource(13))
	base := randomRows(rng, 120)
	delta := randomRows(rng, 40)
	dir := t.TempDir()
	oldDir := filepath.Join(dir, "old")
	if _, err := core.BuildFromTable(base, core.Options{Dir: oldDir, Hier: hier, AggSpecs: specs()}); err != nil {
		t.Fatal(err)
	}
	eng, err := query.OpenDefault(oldDir)
	if err != nil {
		t.Fatal(err)
	}
	root := lattice.NodeID(eng.Enum().NumNodes() - 1) // the apex: every dimension at ALL
	var beforeSum float64
	if err := eng.Query(query.Spec{Node: root}, func(row query.Row) error {
		beforeSum = row.Aggrs[0]
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	eng.Close()
	if _, err := Apply(Options{OldDir: oldDir, NewDir: filepath.Join(dir, "new"), Delta: delta}); err != nil {
		t.Fatal(err)
	}
	eng2, err := query.OpenDefault(oldDir)
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	var afterSum float64
	if err := eng2.Query(query.Spec{Node: root}, func(row query.Row) error {
		afterSum = row.Aggrs[0]
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if beforeSum != afterSum {
		t.Errorf("old cube changed after append: %v vs %v", beforeSum, afterSum)
	}
}

func TestApplyOnPartitionedCube(t *testing.T) {
	// The old cube was built out-of-core (TT sharing bounded at the
	// partition level, which its manifest records); the refreshed cube is
	// built in memory and must not inherit that bound.
	hier := testHier(t)
	rng := rand.New(rand.NewSource(41))
	base := randomRows(rng, 600)
	delta := randomRows(rng, 100)
	dir := t.TempDir()
	factPath := filepath.Join(dir, "fact.bin")
	if err := relation.WriteFactFile(factPath, base); err != nil {
		t.Fatal(err)
	}
	oldDir := filepath.Join(dir, "old")
	stats, err := core.Build(core.Options{
		Dir:          oldDir,
		FactPath:     factPath,
		Hier:         hier,
		AggSpecs:     specs(),
		MemoryBudget: 12_000, // forces partitioning (600 rows × 28 B)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Partitioned {
		t.Fatal("setup expected a partitioned build")
	}
	newDir := filepath.Join(dir, "new")
	if _, err := Apply(Options{OldDir: oldDir, NewDir: newDir, Delta: delta}); err != nil {
		t.Fatal(err)
	}
	refDir := filepath.Join(dir, "ref")
	if _, err := core.BuildFromTable(combine(base, delta), core.Options{Dir: refDir, Hier: hier, AggSpecs: specs()}); err != nil {
		t.Fatal(err)
	}
	cubesEqual(t, newDir, refDir)
}

func TestApplyMinMaxAggregates(t *testing.T) {
	// MIN/MAX over base ∪ delta (fold semantics differ from SUM).
	hier := testHier(t)
	rng := rand.New(rand.NewSource(14))
	base := randomRows(rng, 150)
	delta := randomRows(rng, 60)
	allSpecs := []relation.AggSpec{
		{Func: relation.AggSum, Measure: 0},
		{Func: relation.AggCount},
		{Func: relation.AggMin, Measure: 0},
		{Func: relation.AggMax, Measure: 0},
	}
	dir := t.TempDir()
	oldDir := filepath.Join(dir, "old")
	if _, err := core.BuildFromTable(base, core.Options{Dir: oldDir, Hier: hier, AggSpecs: allSpecs}); err != nil {
		t.Fatal(err)
	}
	newDir := filepath.Join(dir, "new")
	if _, err := Apply(Options{OldDir: oldDir, NewDir: newDir, Delta: delta}); err != nil {
		t.Fatal(err)
	}
	refDir := filepath.Join(dir, "ref")
	if _, err := core.BuildFromTable(combine(base, delta), core.Options{Dir: refDir, Hier: hier, AggSpecs: allSpecs}); err != nil {
		t.Fatal(err)
	}
	cubesEqual(t, newDir, refDir)
}

// TestApplyIsDeterministic: two applies of one delta onto copies of one
// cube (at one path, so that the manifests name the same fact file) must
// leave byte-identical directories.
func TestApplyIsDeterministic(t *testing.T) {
	hier := testHier(t)
	rng := rand.New(rand.NewSource(5))
	base, delta := randomRows(rng, 600), randomRows(rng, 150)
	dir := t.TempDir()
	pristine := filepath.Join(dir, "pristine")
	if _, err := core.BuildFromTable(base, core.Options{Dir: pristine, Hier: hier, AggSpecs: specs()}); err != nil {
		t.Fatal(err)
	}
	oldDir := filepath.Join(dir, "old")
	apply := func(newDir string) map[string][]byte {
		// Apply extends the old cube's fact file, so each run gets a fresh copy.
		for _, d := range []string{oldDir, newDir} {
			if err := os.RemoveAll(d); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.Mkdir(oldDir, 0o755); err != nil {
			t.Fatal(err)
		}
		src, err := os.ReadDir(pristine)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range src {
			data, err := os.ReadFile(filepath.Join(pristine, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(oldDir, e.Name()), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := Apply(Options{OldDir: oldDir, NewDir: newDir, Delta: delta}); err != nil {
			t.Fatal(err)
		}
		files := map[string][]byte{}
		entries, err := os.ReadDir(newDir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.Name() == storage.FinalizeStatsFile { // wall clocks
				continue
			}
			if files[e.Name()], err = os.ReadFile(filepath.Join(newDir, e.Name())); err != nil {
				t.Fatal(err)
			}
		}
		return files
	}
	first, second := apply(filepath.Join(dir, "new")), apply(filepath.Join(dir, "new"))
	if len(first) < 6 || len(first) != len(second) {
		t.Fatalf("applies wrote %d and %d files", len(first), len(second))
	}
	for name, want := range first {
		if !bytes.Equal(second[name], want) {
			t.Errorf("%s differs between two applies of the same delta", name)
		}
	}
}
