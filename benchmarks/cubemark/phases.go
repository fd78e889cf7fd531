package main

import (
	"encoding/gob"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cure/internal/core"
	"cure/internal/lattice"
	"cure/internal/obsv"
	"cure/internal/query"
	"cure/internal/relation"
	"cure/internal/storage"
	"cure/internal/update"
)

// Every timed phase runs in a child process of its own, so each starts
// from a cold heap and its peak RSS is its own. childReq is the child's
// command line; childRes is the JSON it prints.
type childReq struct {
	Phase    string
	Workload string
	Scale    string
	Seed     int64
	Dir      string // the run's work directory
	Cube     string // cube directory to open (open, verify, serve, probes)
	Rep      int
	Traced   bool    // record harness spans
	Registry bool    // build: attach an obsv registry (the traced run's last build)
	Corrupt  bool    // verify: falsify one oracle answer first
	Seconds  float64 // time budget: of the opens (open), of the timed rounds (serve)
}

type childRes struct {
	Values    map[string]float64   `json:"values"`
	Samples   map[string][]float64 `json:"samples,omitempty"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Failures  []string             `json:"failures,omitempty"`
	Spans     []span               `json:"spans,omitempty"`
	RSSMB     float64              `json:"rss_mb"` // filled in by the parent
}

func (r *childRes) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 5 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// phaseCtx is what a phase function works with.
type phaseCtx struct {
	req  childReq
	spec *spec
	rec  *recorder // nil unless traced
	res  *childRes
}

// Files of the set-up directory. The base cube of apb-update keeps its
// fact file inside its directory, so a copy of the directory is a private
// copy of both.
func (c *phaseCtx) setupDir() string  { return filepath.Join(c.req.Dir, "setup") }
func (c *phaseCtx) baseDir() string   { return filepath.Join(c.setupDir(), "base") }
func (c *phaseCtx) deltaPath() string { return filepath.Join(c.setupDir(), "delta.bin") }
func (c *phaseCtx) factPath() string {
	if c.spec.deltaDensity > 0 {
		return filepath.Join(c.baseDir(), "fact.bin")
	}
	return filepath.Join(c.setupDir(), "fact.bin")
}

// span times fn as a harness span (a plain call when untraced).
func (c *phaseCtx) span(parent int, layer, name string, fn func(id int) error) error {
	id := c.rec.begin(parent, layer, name)
	err := fn(id)
	c.rec.end(id)
	return err
}

var phases = map[string]func(*phaseCtx) error{
	"setup":  phaseSetup,
	"build":  phaseBuild,
	"open":   phaseOpen,
	"verify": phaseVerify,
	"serve":  phaseServe,
	"probes": phaseProbes,
}

// runPhase executes one phase in this process.
func runPhase(req childReq) (*childRes, error) {
	s, err := specFor(req.Workload, req.Scale)
	if err != nil {
		return nil, err
	}
	fn, ok := phases[req.Phase]
	if !ok {
		return nil, fmt.Errorf("unknown phase %q", req.Phase)
	}
	c := &phaseCtx{req: req, spec: s, res: &childRes{Values: map[string]float64{}, Samples: map[string][]float64{}}}
	if req.Traced {
		c.rec = newRecorder(req.Workload)
	}
	if err := fn(c); err != nil {
		return nil, fmt.Errorf("%s/%s: %w", req.Workload, req.Phase, err)
	}
	if c.rec != nil {
		c.res.Spans = c.rec.spans
	}
	return c.res, nil
}

func writeGob(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := gob.NewEncoder(f).Encode(v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readGob(path string, v any) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return gob.NewDecoder(f).Decode(v)
}

func loadPlan(dir string) (*plan, error) {
	p := &plan{}
	return p, readGob(filepath.Join(dir, "plan.gob"), p)
}

// phaseSetup does everything that is not measured as build or serving:
// generate the data, write the fact file, build the base cube of
// apb-update, compute the oracle's answers and generate the op lists.
func phaseSetup(c *phaseCtx) error {
	s, dir := c.spec, c.setupDir()
	start := time.Now()
	root := c.rec.begin(-1, "harness", "setup")
	defer c.rec.end(root)
	h, err := s.hier()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(c.factPath()), 0o755); err != nil {
		return err
	}
	var (
		fact, delta *relation.FactTable
		o           *oracle
		answers     []nodeAnswer
		p           plan
	)
	steps := []struct {
		layer, name string
		fn          func() error
	}{
		{"gen", "gen.generate", func() (err error) {
			fact, delta, err = s.generate(c.req.Seed)
			o = &oracle{hier: h, aggs: s.aggs, facts: []*relation.FactTable{fact}}
			return err
		}},
		{"relation", "relation.WriteFactFile", func() error {
			if err := relation.WriteFactFile(c.factPath(), fact); err != nil || delta == nil {
				return err
			}
			return relation.WriteFactFile(c.deltaPath(), delta)
		}},
		{"core", "core.Build(base)", func() error {
			if delta == nil {
				return nil
			}
			o.facts = append(o.facts, delta)
			_, err := core.Build(s.buildOptions(c.baseDir(), c.factPath(), h))
			return err
		}},
		{"harness", "oracle.groupBy", func() error {
			enum := lattice.NewEnum(h)
			for _, id := range sampleNodes(h, c.req.Seed) {
				answers = append(answers, o.groupBy(id, enum.Decode(id, nil)))
			}
			return nil
		}},
		{"harness", "oracle.ops", func() error {
			newOpGen(s, o, c.req.Seed).lists(s, &p)
			return nil
		}},
		{"harness", "plan.write", func() error {
			if err := writeGob(filepath.Join(dir, "oracle.gob"), answers); err != nil {
				return err
			}
			return writeGob(filepath.Join(dir, "plan.gob"), &p)
		}},
	}
	for _, st := range steps {
		if err := c.span(root, st.layer, st.name, func(int) error { return st.fn() }); err != nil {
			return err
		}
	}
	c.res.Values["setup_s"] = time.Since(start).Seconds()
	return nil
}

// dirBytes sums every file under dir except the finalize.json sidecar:
// it holds wall-clock timings whose printed length changes from run to
// run, and no reader needs it.
func dirBytes(dir string) (total int64, err error) {
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || d.Name() == storage.FinalizeStatsFile {
			return err
		}
		fi, err := d.Info()
		if err != nil {
			return err
		}
		total += fi.Size()
		return nil
	})
	return total, err
}

func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// writtenBytes reads the process's cumulative write(2) volume.
func writtenBytes() float64 {
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "wchar: "); ok {
			n, _ := strconv.ParseFloat(v, 64)
			return n
		}
	}
	return 0
}

// phaseBuild times the one call that produces the served cube directory:
// core.Build, or update.Apply on apb-update.
func phaseBuild(c *phaseCtx) error {
	s, v := c.spec, c.res.Values
	h, err := s.hier()
	if err != nil {
		return err
	}
	out := filepath.Join(c.req.Dir, "build."+strconv.Itoa(c.req.Rep))
	cube := filepath.Join(out, "cube")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	var reg *obsv.Registry
	if c.req.Registry && s.deltaDensity == 0 {
		reg = obsv.NewRegistry()
	}
	factPath := c.factPath()
	var delta *relation.FactTable
	if s.deltaDensity > 0 {
		old := filepath.Join(out, "old")
		if err := copyDir(c.baseDir(), old); err != nil {
			return err
		}
		factPath = filepath.Join(old, "fact.bin")
		if delta, err = relation.ReadFactFile(c.deltaPath()); err != nil {
			return err
		}
	}
	written := writtenBytes()
	start := time.Now()
	if delta != nil {
		err = c.span(-1, "update", "update.Apply", func(int) error {
			_, err := update.Apply(update.Options{OldDir: filepath.Join(out, "old"), NewDir: cube, Delta: delta})
			return err
		})
		v["update.apply_s"] = time.Since(start).Seconds()
		v["update.tuples_per_s"] = float64(delta.Len()) / time.Since(start).Seconds()
	} else {
		err = c.span(-1, "core", "core.Build", func(id int) error {
			opts := s.buildOptions(cube, factPath, h)
			opts.Metrics = reg
			st, err := core.Build(opts)
			if err != nil {
				return err
			}
			v["partition.count"] = float64(st.NumPartitions)
			v["signature.flushes"] = float64(st.Pool.Flushes)
			if st.Pool.Total > 0 {
				v["signature.cat_share"] = float64(st.Pool.CatSigs) / float64(st.Pool.Total)
			}
			c.rec.adopt(id, importRegistrySpans(reg.Snapshot().Spans))
			return nil
		})
	}
	if err != nil {
		return err
	}
	v["build_s"] = time.Since(start).Seconds()
	written = writtenBytes() - written

	fi, err := os.Stat(factPath)
	if err != nil {
		return err
	}
	cubeBytes, err := dirBytes(cube)
	if err != nil {
		return err
	}
	v["fact_bytes"] = float64(fi.Size())
	v["cube_bytes"] = float64(cubeBytes)
	v["storage.bytes_written_per_fact_byte"] = written / float64(fi.Size())
	if mf, err := os.Stat(filepath.Join(cube, "manifest.json")); err == nil {
		v["storage.manifest_bytes"] = float64(mf.Size())
		v["storage.extent_bytes"] = float64(cubeBytes - mf.Size())
	}
	if fs, err := storage.ReadFinalizeStats(cube); err == nil {
		v["storage.finalize_s"] = fs.CompactSec + fs.CompressSec + fs.ZonesSec + fs.CommitSec
		v["storage.finalize.compact_s"] = fs.CompactSec
		v["storage.finalize.encode_s"] = fs.EncodeSec
		v["storage.finalize.zone_fold_s"] = fs.ZoneFoldSec
	}
	if reg != nil {
		buildSpanValues(reg.Snapshot().Spans, fi.Size(), v)
	}
	c.res.Attempted = 1
	return nil
}

// buildSpanValues reads the library's own build/* spans: how long each
// stage took and how much of the build they account for together.
func buildSpanValues(roots []obsv.SpanSnapshot, factBytes int64, v map[string]float64) {
	names := map[string]string{
		"load": "core.load_s", "cube": "core.cube_s", "pool.flush": "core.pool_flush_s",
		"partition.cube": "core.partition_cube_s", "n.cube": "core.n_cube_s", "finalize": "core.finalize_s",
		"partition.split": "partition.split_s",
	}
	for _, root := range roots {
		if root.Name != "build" || root.ElapsedSec == 0 {
			continue
		}
		var covered float64
		for _, ch := range root.Children {
			covered += ch.ElapsedSec
			if key, ok := names[ch.Name]; ok {
				v[key] += ch.ElapsedSec
			}
		}
		v["core.span_coverage"] = covered / root.ElapsedSec
	}
	if split := v["partition.split_s"]; split > 0 {
		v["partition.scan_mb_per_s"] = float64(factBytes) / 1e6 / split
	}
}

// The open child opens the cube at least openSamples times and goes on
// for openShare of the run's time budget (at most openMaxSamples times),
// so that a cube that opens in milliseconds is sampled often enough for
// its fastest open to repeat.
const (
	openSamples    = 9
	openMaxSamples = 100
	openShare      = 0.05
)

func phaseOpen(c *phaseCtx) error {
	opts := c.spec.serve
	var samples []float64
	for begin := time.Now(); len(samples) < openSamples || (len(samples) < openMaxSamples && time.Since(begin).Seconds() < c.req.Seconds); {
		if err := c.span(-1, "query", "query.Open", func(int) error {
			start := time.Now()
			e, err := query.Open(c.req.Cube, opts)
			if err != nil {
				return err
			}
			samples = append(samples, time.Since(start).Seconds()*1e3)
			return e.Close()
		}); err != nil {
			return err
		}
	}
	c.res.Samples["open_ms"] = samples
	c.res.Values["open_ms"] = slices.Min(samples)
	c.res.Attempted = int64(len(samples))
	if c.req.Traced {
		var rs []float64
		for i := 0; i < 5; i++ {
			if err := c.span(-1, "storage", "storage.OpenReader", func(int) error {
				start := time.Now()
				r, err := storage.OpenReader(c.req.Cube)
				if err != nil {
					return err
				}
				rs = append(rs, time.Since(start).Seconds()*1e3)
				return r.Close()
			}); err != nil {
				return err
			}
		}
		c.res.Values["storage.open_reader_ms"] = slices.Min(rs)
	}
	return nil
}

// phaseVerify compares the served cube with the oracle, group by group,
// on the sampled nodes.
func phaseVerify(c *phaseCtx) error {
	var answers []nodeAnswer
	if err := readGob(filepath.Join(c.setupDir(), "oracle.gob"), &answers); err != nil {
		return err
	}
	if c.req.Corrupt {
		answers[0].Aggs[0]++
	}
	h, err := c.spec.hier()
	if err != nil {
		return err
	}
	e, err := query.Open(c.req.Cube, c.spec.serve)
	if err != nil {
		return err
	}
	defer e.Close()
	enum := lattice.NewEnum(h)
	return c.span(-1, "harness", "oracle.verify", func(root int) error {
		for _, ans := range answers {
			c.res.Attempted++
			id := c.rec.begin(root, "query", "query.NodeQuery")
			err := checkNode(e, h, ans)
			c.rec.end(id)
			if err != nil {
				c.res.fail("node %s: %v", enum.Name(lattice.NodeID(ans.Node)), err)
			}
		}
		return nil
	})
}

// runOp executes one op and returns the rows it produced.
func runOp(e *query.Engine, o op) (rows int64, err error) {
	count := func(query.Row) error { rows++; return nil }
	switch o.Kind {
	case opPoint:
		err = e.SliceQuery(lattice.NodeID(o.Node), 0, o.Level, o.Lo, count)
	case opRange:
		err = e.NodeQueryWhere(lattice.NodeID(o.Node), []query.Predicate{{Dim: 0, Level: o.Level, Lo: o.Lo, Hi: o.Hi}}, count)
	default:
		err = e.NodeQuery(lattice.NodeID(o.Node), count)
	}
	return rows, err
}

var opNames = [...]string{opPoint: "query.slice", opRange: "query.where", opRollup: "query.node"}

// replayChunks is how many consecutive slices a list is timed in. A
// phase's time is the sum over slices of the fastest any round ran that
// slice in: the best round, taken slice by slice, so a burst of host
// noise costs one slice of one round and not the round.
const replayChunks = 40

// pass is what one replay of a list measured.
type pass struct {
	wall   float64   // seconds for the whole list
	chunks []float64 // seconds per slice
	rows   int64     // rows returned
	lat    []int64   // per-op nanoseconds (single client only)
}

// replay is the closed loop: each of clients goroutines runs its next op
// only after the previous one returned, and every answer is checked
// against the oracle's row count. Clients meet at the end of each slice.
// Op spans are recorded for a single client only, so spans never overlap.
func (c *phaseCtx) replay(e *query.Engine, ops []op, clients int, rec *recorder, parent int) pass {
	var failed atomic.Int64
	check := func(i int) int64 {
		n, err := runOp(e, ops[i])
		if err != nil || n != ops[i].Want {
			if failed.Add(1) == 1 {
				c.res.fail("op %d %+v: %d rows, err %v", i, ops[i], n, err)
			}
		}
		return n
	}
	p := pass{chunks: make([]float64, 0, replayChunks)}
	if clients <= 1 {
		p.lat = make([]int64, len(ops))
	}
	start := time.Now()
	for k := 0; k < replayChunks; k++ {
		lo, hi := k*len(ops)/replayChunks, (k+1)*len(ops)/replayChunks
		chunkStart := time.Now()
		if clients <= 1 {
			for i := lo; i < hi; i++ {
				id := rec.begin(parent, "query", opNames[ops[i].Kind])
				t := time.Now()
				p.rows += check(i)
				p.lat[i] = int64(time.Since(t))
				rec.end(id)
			}
		} else {
			var total atomic.Int64
			next := atomic.Int64{}
			next.Store(int64(lo))
			var wg sync.WaitGroup
			for w := 0; w < clients; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := int(next.Add(1)) - 1; i < hi; i = int(next.Add(1)) - 1 {
						total.Add(check(i))
					}
				}()
			}
			wg.Wait()
			p.rows += total.Load()
		}
		p.chunks = append(p.chunks, time.Since(chunkStart).Seconds())
	}
	p.wall = time.Since(start).Seconds()
	c.res.Attempted += int64(len(ops))
	// The first failure was recorded with its message above.
	if f := failed.Load(); f > 1 {
		c.res.Failed += f - 1
	}
	return p
}

// sliceTime adds up, slice by slice, pick of the times the passes took.
func sliceTime(passes []pass, pick func([]float64) float64) float64 {
	total := 0.0
	times := make([]float64, len(passes))
	for k := range passes[0].chunks {
		for i, p := range passes {
			times[i] = p.chunks[k]
		}
		total += pick(times)
	}
	return total
}

// bestTime is the time of the best round, taken slice by slice.
func bestTime(passes []pass) float64 { return sliceTime(passes, slices.Min[[]float64]) }

// peakRSS returns the process's peak resident set in MB since the last
// call and starts a new peak (0 where /proc does not say).
func peakRSS() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	// Writing 5 resets VmHWM to the current RSS.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// p99 returns the 99th percentile of latencies in nanoseconds, as
// milliseconds.
func p99(lat []int64) float64 {
	s := append([]int64(nil), lat...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	return float64(s[len(s)*99/100]) / 1e6
}

// servePhase is one of the five timed phases of a serve round.
type servePhase struct {
	name    string
	ops     []op
	clients int
}

func servePhases(p *plan) []servePhase {
	return []servePhase{
		{"point", p.Point, 1}, {"range", p.Range, 1}, {"rollup", p.Rollup, 1},
		{"mixed", p.Mixed, 1}, {"mixed_conc", p.Mixed, min(runtime.NumCPU(), 4)},
	}
}

// minRounds is how many interleaved rounds the serve child always runs.
// The first one fills the caches; it is timed like the others, and being
// cold it loses every slice a cache helps.
const minRounds = 4

// phaseServe opens the cube once and runs interleaved rounds of the five
// phases until the time budget is spent.
func phaseServe(c *phaseCtx) error {
	if c.req.Traced {
		return phaseServeTraced(c)
	}
	p, err := loadPlan(c.setupDir())
	if err != nil {
		return err
	}
	e, err := query.Open(c.req.Cube, c.spec.serve)
	if err != nil {
		return err
	}
	defer e.Close()
	list := servePhases(p)
	// The oracle's row total of each list: every pass must return it.
	want := make([]int64, len(list))
	for i, ph := range list {
		for _, o := range ph.ops {
			want[i] += o.Want
		}
	}

	v, samples := c.res.Values, c.res.Samples
	passes := make([][]pass, len(list))
	// best[i] is the fastest any round answered op i of the mixed list.
	best := make([]int64, len(p.Mixed))
	peakRSS()
	start := time.Now()
	var lastRound time.Duration
	for round := 0; round < minRounds || time.Since(start)+lastRound < time.Duration(c.req.Seconds*float64(time.Second)); round++ {
		roundStart := time.Now()
		for i, ph := range list {
			ps := c.replay(e, ph.ops, ph.clients, nil, -1)
			if ps.rows != want[i] {
				c.res.fail("round %d %s: %d rows, the oracle expects %d", round, ph.name, ps.rows, want[i])
			}
			passes[i] = append(passes[i], ps)
			samples[ph.name+"_s"] = append(samples[ph.name+"_s"], ps.wall)
			if mb := peakRSS(); mb > 0 {
				samples["pass_peak_rss_mb"] = append(samples["pass_peak_rss_mb"], mb)
			}
			if ph.name == "mixed" {
				for j, l := range ps.lat {
					if round == 0 || l < best[j] {
						best[j] = l
					}
				}
				samples["query_p99_ms"] = append(samples["query_p99_ms"], p99(ps.lat))
			}
		}
		lastRound = time.Since(roundStart)
	}
	samples["p99_samples"] = []float64{float64(len(p.Mixed))}
	v["point_qps"] = float64(len(p.Point)) / bestTime(passes[0])
	v["range_qps"] = float64(len(p.Range)) / bestTime(passes[1])
	v["rollup_mrows_per_s"] = float64(want[2]) / 1e6 / bestTime(passes[2])
	v["query_qps"] = float64(len(p.Mixed)) / bestTime(passes[3])
	// With several clients the engine has a rare fast regime (no lock
	// convoy on the fact cache) that the best round would report once in
	// a few runs; the median round repeats.
	v["query_conc_qps"] = float64(len(p.Mixed)) / sliceTime(passes[4], median)
	v["query_p99_ms"] = p99(best)
	// A garbage-collected heap overshoots now and then, so the one peak
	// of the whole process does not repeat; the median of the passes'
	// peaks does.
	if peaks := samples["pass_peak_rss_mb"]; len(peaks) > 0 {
		v["serve_peak_rss_mb"] = median(peaks)
	}
	return nil
}

// phaseServeTraced is the serve child of the traced run: one engine
// without a registry and one with, so the cost of the registry is the
// ratio of the two on the same list, and then one traced pass over every
// list whose op spans and counter deltas give the query-layer metrics.
func phaseServeTraced(c *phaseCtx) error {
	p, err := loadPlan(c.setupDir())
	if err != nil {
		return err
	}
	plain, err := query.Open(c.req.Cube, c.spec.serve)
	if err != nil {
		return err
	}
	defer plain.Close()
	reg := obsv.NewRegistry()
	opts := c.spec.serve
	opts.Metrics = reg
	traced, err := query.Open(c.req.Cube, opts)
	if err != nil {
		return err
	}
	defer traced.Close()
	root := c.rec.begin(-1, "harness", "serve")
	defer c.rec.end(root)

	list := servePhases(p)[:4]
	_ = c.span(root, "query", "warm", func(id int) error {
		for _, ph := range list {
			c.replay(plain, ph.ops, 1, nil, -1)
			c.replay(traced, ph.ops, 1, nil, -1)
		}
		return nil
	})
	var plainS, tracedS []pass
	for round := 0; round < 2; round++ {
		_ = c.span(root, "query", "mixed.plain", func(id int) error {
			plainS = append(plainS, c.replay(plain, p.Mixed, 1, nil, -1))
			return nil
		})
		_ = c.span(root, "harness", "mixed.traced", func(id int) error {
			tracedS = append(tracedS, c.replay(traced, p.Mixed, 1, c.rec, id))
			return nil
		})
	}
	v := c.res.Values
	v["obsv.serve_overhead_pct"] = 100 * (bestTime(tracedS)/bestTime(plainS) - 1)

	before := reg.Snapshot().Counters
	var ops int
	for _, ph := range list {
		_ = c.span(root, "harness", "traced."+ph.name, func(id int) error {
			lat := c.replay(traced, ph.ops, 1, c.rec, id).lat
			ops += len(ph.ops)
			if key, ok := map[string]string{"point": "query.slice_us", "range": "query.where_us", "rollup": "query.node_us"}[ph.name]; ok {
				us := make([]float64, len(lat))
				for i, l := range lat {
					us[i] = float64(l) / 1e3
				}
				v[key] = median(us)
			}
			return nil
		})
	}
	after := reg.Snapshot().Counters
	d := func(name string) float64 { return float64(after[name] - before[name]) }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	v["query.fact_cache.hit_rate"] = ratio(d("query.cache.hits"), d("query.cache.hits")+d("query.cache.misses"))
	v["query.fact_cache.misses_per_op"] = d("query.cache.misses") / float64(ops)
	v["query.block_cache.hit_rate"] = ratio(d("query.block_cache.hits"), d("query.block_cache.hits")+d("query.block_cache.misses"))
	v["query.index.skip_ratio"] = ratio(d("query.index.blocks_skipped"), d("query.index.blocks_skipped")+d("query.index.hits"))
	v["query.rows_scanned_per_row_returned"] = ratio(d("query.scan.tt_rows")+d("query.scan.nt_rows")+d("query.scan.cat_rows"), d("query.rows"))
	v["query.bytes_read_per_op"] = d("query.bytes_read") / float64(ops)
	v["query.bytes_decoded_per_op"] = d("query.bytes_decoded") / float64(ops)
	return nil
}
