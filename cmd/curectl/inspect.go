package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"cure/internal/lattice"
	"cure/internal/storage"
)

// cmdInspect renders the per-node extent table of a cube directory from
// its manifest: rows, raw bytes, encoded bytes, compression ratio, and
// the encoding histogram each extent settled on.
func cmdInspect(args []string) {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	cube := fs.String("cube", "", "cube directory (or positional: curectl inspect <cube-dir>)")
	fs.Parse(args)
	if *cube == "" && fs.NArg() == 1 {
		*cube = fs.Arg(0)
	}
	if *cube == "" {
		fatalf("inspect needs -cube or a cube directory argument")
	}
	r, err := storage.OpenReader(*cube)
	if err != nil {
		fatalf("%v", err)
	}
	defer r.Close()
	m := r.Manifest()
	enum := r.Enum()

	fmt.Printf("manifest version: %d\n", m.Version)

	// histogram renders an encoding histogram as "enc:count" pairs.
	histogram := func(encodings map[string]int64) string {
		if len(encodings) == 0 {
			return "-"
		}
		keys := make([]string, 0, len(encodings))
		for k := range encodings {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, 0, len(keys))
		for _, k := range keys {
			parts = append(parts, fmt.Sprintf("%s:%d", k, encodings[k]))
		}
		return strings.Join(parts, " ")
	}
	ratio := func(raw, enc int64) string {
		if enc <= 0 {
			return "-"
		}
		return fmt.Sprintf("%.2fx", float64(raw)/float64(enc))
	}

	type extRow struct {
		node           int64
		name, rel      string
		rows, raw, enc int64
		hist           string
	}
	var rows []extRow
	add := func(node int64, name, rel string, n int64, c *storage.ExtentCodec) {
		rows = append(rows, extRow{node: node, name: name, rel: rel, rows: n, raw: c.RawBytes, enc: c.EncodedBytes(), hist: histogram(c.Encodings)})
	}
	for k, nm := range m.Nodes {
		id, err := strconv.ParseInt(k, 10, 64)
		if err != nil {
			fatalf("manifest node key %q: %v", k, err)
		}
		name := enum.Name(lattice.NodeID(id))
		if nm.NTRows > 0 {
			add(id, name, "nt", nm.NTRows, nm.NTCodec)
		}
		if nm.TTRows > 0 {
			add(id, name, "tt", nm.TTRows, nm.TTCodec)
		}
		if nm.CATRows > 0 {
			add(id, name, "cat", nm.CATRows, nm.CATCodec)
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].node != rows[j].node {
			return rows[i].node < rows[j].node
		}
		return rows[i].rel < rows[j].rel
	})
	if m.AggRows > 0 {
		add(-1, "(shared)", "agg", m.AggRows, m.AggCodec)
	}

	fmt.Printf("%-6s %-28s %-7s %10s %12s %12s %8s  %s\n",
		"node", "name", "rel", "rows", "raw B", "enc B", "ratio", "encodings")
	var totRaw, totEnc int64
	for _, e := range rows {
		totRaw += e.raw
		totEnc += e.enc
		node := strconv.FormatInt(e.node, 10)
		if e.node < 0 {
			node = "-"
		}
		fmt.Printf("%-6s %-28s %-7s %10d %12d %12d %8s  %s\n",
			node, e.name, e.rel, e.rows, e.raw, e.enc, ratio(e.raw, e.enc), e.hist)
	}
	fmt.Printf("%-6s %-28s %-7s %10s %12d %12d %8s\n",
		"", "TOTAL", "", "", totRaw, totEnc, ratio(totRaw, totEnc))
	// Every file of the directory is the cube's footprint: the manifest
	// holds the block offsets and zone maps the extents cannot be read
	// without. Left out are the finalize sidecar (wall clocks, no reader)
	// and the fact table, when it happens to live here: it is the cube's
	// input, not the cube.
	entries, err := os.ReadDir(*cube)
	if err != nil {
		fatalf("%v", err)
	}
	var onDisk int64
	for _, e := range entries {
		if e.Name() == storage.FinalizeStatsFile || filepath.Join(*cube, e.Name()) == filepath.Clean(r.FactPath()) {
			continue
		}
		if fi, err := e.Info(); err == nil && fi.Mode().IsRegular() {
			onDisk += fi.Size()
		}
	}
	fmt.Printf("cube bytes on disk: %d (extents %d)\n", onDisk, m.Sizes.Total())
	fmt.Printf("overall ratio: %s\n", ratio(totRaw, totEnc))

	// Finalize sidecar: where the wall clock went, and the CPU time of
	// the extent passes split by the work done.
	st, err := storage.ReadFinalizeStats(*cube)
	if err != nil {
		return
	}
	fmt.Printf("\nfinalize (parallelism %d, %d worker(s)):\n", st.Parallelism, st.Workers)
	for _, ph := range []struct {
		name string
		sec  float64
	}{
		{"seal logs", st.CompactSec}, {"extent passes", st.CompressSec}, {"commit", st.CommitSec},
	} {
		fmt.Printf("  %-13s %8.3fs\n", ph.name, ph.sec)
	}
	fmt.Printf("  work in the extent passes (CPU, summed over workers): gather+transform %.3fs, encode %.3fs, zone fold %.3fs, write %.3fs\n",
		st.GatherSec, st.EncodeSec, st.ZoneFoldSec, st.WriteSec)
	fmt.Printf("  extents=%d blocks=%d commit_stalls=%d\n", st.Extents, st.Blocks, st.CommitStalls)
	fmt.Printf("  codec histogram: %s\n", histogram(st.Encodings))
}
