// Package update maintains a CURE cube under insertion — the future-work
// direction of §8 of the paper — by re-cubing: there is one way to turn
// fact rows into a cube, core's executor, and a refresh is a build. (What
// a delta-merge needs to beat that build and earn a second path:
// EXPERIMENTS.md, "the merge that lost to the rebuild".) Apply
//
//  1. checks the delta against the cube and its fact file;
//  2. loads the rows the old cube covers, appends the delta to them in
//     memory and has core cube that table into NewDir with the old cube's
//     variant — CURE_DR, iceberg threshold, plan, hierarchy. The new
//     manifest references the old fact file and counts old + delta rows,
//     so delta tuple i is row-id FactRows+i;
//  3. only then appends the delta to the fact file. The old cube, whose
//     manifest pins its row count, stays queryable until the caller swaps
//     directories; the refreshed cube refuses to open until the file holds
//     the rows its manifest counts, so a crash between 2 and 3 leaves the
//     old cube and nothing that answers wrongly.
//
// The refreshed cube has the one layout every build writes (§5.3's sorted
// row-ids and bitmaps) and no zone maps, whatever the old cube had:
// DESIGN.md §11 gives the byte ratios behind the second choice.
package update

import (
	"errors"
	"fmt"
	"os"
	"time"

	"cure/internal/core"
	"cure/internal/relation"
	"cure/internal/storage"
)

// Options configures an incremental update.
type Options struct {
	// OldDir is the existing cube directory. It must be the newest cube
	// over its fact file: the file holds exactly the rows the cube covers.
	OldDir string
	// NewDir receives the refreshed cube (must differ from OldDir).
	NewDir string
	// Delta holds the new fact tuples (same schema as the fact table).
	Delta *relation.FactTable
	// PoolCapacity sizes the signature pool, as core.Options.PoolCapacity.
	PoolCapacity int
}

// Stats reports what an update did.
type Stats struct {
	// DeltaRows is the number of appended fact tuples.
	DeltaRows int
	// TTs is the number of trivial tuples in the refreshed cube.
	TTs int64
	// Sizes is the refreshed cube's footprint.
	Sizes storage.Sizes
	// Elapsed is the wall-clock time of the whole update.
	Elapsed time.Duration
}

// Apply writes into NewDir the cube of OldDir's fact table extended by
// Delta, then appends Delta to the fact file. A failed Apply leaves OldDir
// and the rows the fact file holds as they were, and removes the NewDir it
// created.
func Apply(opts Options) (_ *Stats, err error) {
	start := time.Now()
	if opts.OldDir == "" || opts.NewDir == "" || opts.OldDir == opts.NewDir {
		return nil, errors.New("update: need distinct OldDir and NewDir")
	}
	delta := opts.Delta
	if delta == nil || delta.Len() == 0 {
		return nil, errors.New("update: empty delta")
	}
	if delta.RowIDs != nil {
		return nil, errors.New("update: delta must not carry explicit row-ids")
	}
	old, err := storage.OpenReader(opts.OldDir)
	if err != nil {
		return nil, err
	}
	m, hier, factPath := old.Manifest(), old.Hier(), old.FactPath()
	old.Close()
	fr, err := relation.OpenFactReader(factPath)
	if err != nil {
		return nil, err
	}
	schema, fileRows, tagged := fr.Schema(), fr.Rows(), fr.HasRowIDs()
	fr.Close()
	switch {
	case tagged:
		return nil, fmt.Errorf("update: fact file %s carries explicit row-ids and cannot be appended to", factPath)
	case schema.NumDims() != delta.Schema.NumDims() || schema.NumMeasures() != delta.Schema.NumMeasures():
		return nil, fmt.Errorf("update: delta has %d dims × %d measures, the fact table %d × %d",
			delta.Schema.NumDims(), delta.Schema.NumMeasures(), schema.NumDims(), schema.NumMeasures())
	case fileRows != m.FactRows:
		// The delta would land after rows this cube does not cover.
		return nil, fmt.Errorf("update: fact file %s holds %d rows, the cube covers %d: Apply needs the cube that covers the whole file",
			factPath, fileRows, m.FactRows)
	}

	table, err := relation.LoadFactRows(factPath, m.FactRows)
	if err != nil {
		return nil, err
	}
	table.AppendBatch(&relation.Batch{N: delta.Len(), Dims: delta.Dims, Meas: delta.Measures})

	if _, statErr := os.Stat(opts.NewDir); os.IsNotExist(statErr) {
		defer func() {
			if err != nil {
				os.RemoveAll(opts.NewDir)
			}
		}()
	}
	built, err := core.BuildLoaded(table, core.Options{
		Dir:          opts.NewDir,
		FactPath:     factPath,
		Hier:         hier,
		AggSpecs:     m.AggSpecs,
		PoolCapacity: opts.PoolCapacity,
		DimsInline:   m.DimsInline,
		Iceberg:      m.Iceberg,
		// Becomes "as the old manifest says" once zone maps leave the JSON
		// manifest.
		ZoneBlockRows: -1,
	})
	if err != nil {
		return nil, err
	}
	if _, err := relation.AppendToFactFile(factPath, delta); err != nil {
		return nil, fmt.Errorf("update: refreshed cube built, extending the fact file failed: %w", err)
	}
	return &Stats{DeltaRows: delta.Len(), TTs: built.TTs, Sizes: built.Sizes, Elapsed: time.Since(start)}, nil
}
