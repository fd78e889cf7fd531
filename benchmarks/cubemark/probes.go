package main

import (
	"math/rand"
	"time"

	"cure/internal/core"
	"cure/internal/lattice"
	"cure/internal/relation"
	"cure/internal/signature"
	"cure/internal/sortutil"
	"cure/internal/storage"
)

// Layer probes: each times one layer's public entry point on the
// workload's real data, outside any build or query, so a change to that
// layer shows here first. A probe is repeated probeReps times and
// reports its fastest repetition.
const probeReps = 3

// probe runs fn probeReps times under a span and returns the fastest
// wall time in seconds.
func (c *phaseCtx) probe(root int, layer, name string, fn func() error) (float64, error) {
	best := 0.0
	for i := 0; i < probeReps; i++ {
		var wall float64
		if err := c.span(root, layer, name, func(int) error {
			start := time.Now()
			err := fn()
			wall = time.Since(start).Seconds()
			return err
		}); err != nil {
			return 0, err
		}
		if best == 0 || wall < best {
			best = wall
		}
	}
	return best, nil
}

// discardSink counts what a signature pool flushes and drops it.
type discardSink struct{ aggRows int64 }

func (d *discardSink) WriteNT(lattice.NodeID, int64, []float64) error { return nil }
func (d *discardSink) AppendAggregate(int64, []float64) (int64, error) {
	d.aggRows++
	return d.aggRows - 1, nil
}
func (d *discardSink) WriteCAT(lattice.NodeID, int64, int64) error { return nil }

func phaseProbes(c *phaseCtx) error {
	p, err := loadPlan(c.setupDir())
	if err != nil {
		return err
	}
	v := c.res.Values
	root := c.rec.begin(-1, "harness", "probes")
	defer c.rec.end(root)

	// relation: bulk load, batch scan, random single-row reads.
	var fact *relation.FactTable
	wall, err := c.probe(root, "relation", "relation.LoadFactRows", func() error {
		fact, err = relation.LoadFactRows(c.factPath(), -1)
		return err
	})
	if err != nil {
		return err
	}
	v["relation.load_ms"] = wall * 1e3
	fr, err := relation.OpenFactReader(c.factPath())
	if err != nil {
		return err
	}
	defer fr.Close()
	if wall, err = c.probe(root, "relation", "relation.ScanBatches", func() error {
		return fr.ScanBatches(0, fr.Rows(), 0, func(*relation.Batch) error { return nil })
	}); err != nil {
		return err
	}
	v["relation.scan_mrows_per_s"] = float64(fr.Rows()) / 1e6 / wall
	rng := rand.New(rand.NewSource(c.req.Seed + 13))
	ids := make([]int64, 20_000)
	for i := range ids {
		ids[i] = rng.Int63n(fr.Rows())
	}
	buf := make([]byte, fr.RowWidth())
	if wall, err = c.probe(root, "relation", "relation.ReadRaw", func() error {
		for _, id := range ids {
			if err := fr.ReadRaw(id, buf); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	v["relation.read_row_ns"] = wall * 1e9 / float64(len(ids))

	// sortutil: both algorithms on the first fact column.
	h, err := c.spec.hier()
	if err != nil {
		return err
	}
	key := sortutil.SliceKeyer{Col: fact.Dims[0], Hi: h.Dims[0].Card(0)}
	idx := make([]int32, fact.Len())
	for _, alg := range []struct {
		name   string
		sorter sortutil.Sorter
	}{
		{"sortutil.counting_mkeys_per_s", sortutil.Sorter{ForceCounting: true}},
		{"sortutil.quick_mkeys_per_s", sortutil.Sorter{ForceQuick: true}},
	} {
		best := 0.0
		for i := 0; i < probeReps; i++ {
			sortutil.Iota(idx, len(idx))
			_ = c.span(root, "sortutil", alg.name, func(int) error {
				start := time.Now()
				alg.sorter.Sort(idx, key)
				if wall := time.Since(start).Seconds(); best == 0 || wall < best {
					best = wall
				}
				return nil
			})
		}
		v[alg.name] = float64(len(idx)) / 1e6 / best
	}

	// signature: fill a default-capacity pool with one signature per
	// fact row (its measures as aggregates, spread over 16 nodes) and
	// flush it into a sink that discards.
	numAggrs := len(fact.Measures)
	aggrs := make([]float64, numAggrs)
	if wall, err = c.probe(root, "signature", "signature.Add+Flush", func() error {
		pool, err := signature.NewPool(numAggrs, core.DefaultPoolCapacity, &discardSink{})
		if err != nil {
			return err
		}
		for r := 0; r < fact.Len(); r++ {
			for m := range aggrs {
				aggrs[m] = fact.Measures[m][r]
			}
			if err := pool.Add(lattice.NodeID(r&15), int64(r), aggrs); err != nil {
				return err
			}
		}
		return pool.Flush()
	}); err != nil {
		return err
	}
	v["signature.flush_msigs_per_s"] = float64(fact.Len()) / 1e6 / wall

	// storage: decode every extent of every node with no block cache,
	// and prune zones with the point ops' predicates.
	r, err := storage.OpenReader(c.req.Cube)
	if err != nil {
		return err
	}
	defer r.Close()
	var rows int64
	if wall, err = c.probe(root, "storage", "storage.decode", func() error {
		rows = 0
		var tt []int64
		for _, id := range r.Enum().AllNodes() {
			if err := r.NTRows(id, func(storage.NTRow) error { rows++; return nil }); err != nil {
				return err
			}
			if err := r.CATRows(id, func(storage.CATRow) error { rows++; return nil }); err != nil {
				return err
			}
			if tt, err = r.TTRowIDs(id, tt); err != nil {
				return err
			}
			rows += int64(len(tt))
		}
		return nil
	}); err != nil {
		return err
	}
	v["storage.decode_mrows_per_s"] = float64(rows) / 1e6 / wall
	offs, _ := storage.ZoneSlots(r.Hier())
	if wall, err = c.probe(root, "storage", "storage.PruneZones", func() error {
		for _, o := range p.Point {
			nm, ok := r.Manifest().NodeMeta(lattice.NodeID(o.Node))
			if !ok {
				continue
			}
			preds := []storage.ZonePred{{Slot: offs[0] + o.Level, Lo: o.Lo, Hi: o.Hi}}
			storage.PruneZones(nm.NTZones, nm.NTRows, preds)
			storage.PruneZones(nm.TTZones, nm.TTRows, preds)
			storage.PruneZones(nm.CATZones, nm.CATRows, preds)
		}
		return nil
	}); err != nil {
		return err
	}
	v["storage.prune_us"] = wall * 1e6 / float64(len(p.Point))
	return nil
}
