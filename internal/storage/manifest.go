// Package storage implements CURE's relational cube store (§5): per-node
// NT, TT, and CAT relations, the shared AGGREGATES relation, and the
// CURE+ layout of §5.3 — sorted row-ids, bitmaps for dense TT extents —
// which every cube has (PlainLayout keeps the paper's baseline reachable).
//
// During construction, classified tuples arrive interleaved across nodes
// (the signature pool flushes whenever it fills), so the writer appends
// node-tagged blocks to sequential log files. Finalize turns the logs
// into per-node extents of column-encoded blocks inside one file per
// relation class — the paper's D = 28 experiment materializes 88,932
// relations, which would be pathological as individual files — and
// records the extents in a JSON manifest next to the data.
package storage

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"cure/internal/lattice"
	"cure/internal/relation"
	"cure/internal/signature"
)

// File names inside a cube directory.
const (
	ManifestFile = "manifest.json"
	HierFile     = "hier.gob"
	NTFile       = "nt.bin"
	TTFile       = "tt.bin"
	CATFile      = "cat.bin"
	AggFile      = "agg.bin"
)

// NodeMeta records where one lattice node's tuples live inside the
// relation files. Offsets are byte offsets; counts are rows.
type NodeMeta struct {
	NTOff   int64 `json:"nt_off"`
	NTRows  int64 `json:"nt_rows"`
	TTOff   int64 `json:"tt_off"`
	TTRows  int64 `json:"tt_rows"`
	CATOff  int64 `json:"cat_off"`
	CATRows int64 `json:"cat_rows"`
	// Zone maps of the extents (nil when the extent is smaller than one
	// zone block or the cube was written without a resolver).
	NTZones  *ZoneIndex `json:"nt_zones,omitempty"`
	TTZones  *ZoneIndex `json:"tt_zones,omitempty"`
	CATZones *ZoneIndex `json:"cat_zones,omitempty"`
	// Block records of the extents (nil when the extent is empty). A TT
	// extent may be one bitmap block (see encodeBitmapBlock).
	NTCodec  *ExtentCodec `json:"nt_codec,omitempty"`
	TTCodec  *ExtentCodec `json:"tt_codec,omitempty"`
	CATCodec *ExtentCodec `json:"cat_codec,omitempty"`
}

// Sizes breaks down the on-disk footprint of a cube, the quantity the
// paper's storage-space figures report, and records the size of every
// file OpenReader opens so that it can refuse one that was cut or grown.
type Sizes struct {
	NT  int64 `json:"nt"`
	TT  int64 `json:"tt"`
	CAT int64 `json:"cat"`
	Agg int64 `json:"agg"`
	// Hier is the size of the hierarchy sidecar; Total leaves it out.
	Hier int64 `json:"hier"`
}

// Total returns the cube data footprint in bytes: the four relations.
func (s Sizes) Total() int64 { return s.NT + s.TT + s.CAT + s.Agg }

// Manifest is the catalog of a cube directory.
type Manifest struct {
	Version int `json:"version"`
	// AggSpecs are the cube's aggregate definitions in fact-table terms.
	AggSpecs []relation.AggSpec `json:"agg_specs"`
	// CatFormat is the CAT storage format locked during construction.
	CatFormat signature.Format `json:"cat_format"`
	// DimsInline marks the CURE_DR variant: NT rows carry projected
	// dimension values instead of an R-rowid.
	DimsInline bool `json:"dims_inline"`
	// PlanParents records the plan tree the build ran wherever it differs
	// from lattice.PlanParent, keyed like Nodes: PlanRoot at each phase
	// root a partitioned build entered, and the P2 parent of every node
	// whose parent the shortest-plan ablation changes. A trivial tuple
	// is shared along the recorded tree (see Reader.PlanParent).
	PlanParents map[string]lattice.NodeID `json:"plan_parents,omitempty"`
	// FactFile is the path of the fact table the cube's row-ids point
	// into (relative paths are resolved against the cube directory).
	FactFile string `json:"fact_file"`
	// FactRows is the row count of that fact table.
	FactRows int64 `json:"fact_rows"`
	// AggRows is the number of tuples in the AGGREGATES relation.
	AggRows int64 `json:"agg_rows"`
	// Nodes maps node ids (as decimal strings, a JSON map-key
	// restriction) to their extents. Nodes with no materialized tuples
	// are absent.
	Nodes map[string]NodeMeta `json:"nodes"`
	// Sizes is the on-disk footprint breakdown.
	Sizes Sizes `json:"sizes"`
	// Checksums maps the relation files and the hierarchy sidecar to
	// their CRC-32 (IEEE) over the whole file, computed at finalize;
	// Reader.VerifyChecksums rechecks them on demand.
	Checksums map[string]uint32 `json:"checksums,omitempty"`
	// Iceberg is the min-count threshold the cube was built with (1 for
	// a complete cube).
	Iceberg int64 `json:"iceberg"`
	// AggCodec is the block record of the AGGREGATES relation (one extent
	// covering all AggRows rows), nil when the relation is empty.
	AggCodec *ExtentCodec `json:"agg_codec,omitempty"`
}

// NodeMeta returns the extent record for a node.
func (m *Manifest) NodeMeta(id lattice.NodeID) (NodeMeta, bool) {
	nm, ok := m.Nodes[nodeKey(id)]
	return nm, ok
}

// NumAggrs returns Y, the number of aggregate columns.
func (m *Manifest) NumAggrs() int { return len(m.AggSpecs) }

// ntRowWidth returns the byte width of one NT row of the given node.
// Plain CURE: <R-rowid, aggrs> (8 + 8Y). CURE_DR: <dims…, aggrs>
// (4·arity + 8Y) where arity is the node's grouping arity.
func (m *Manifest) ntRowWidth(arity int) int {
	if m.DimsInline {
		return 4*arity + 8*m.NumAggrs()
	}
	return 8 + 8*m.NumAggrs()
}

// catRowWidth returns the raw byte width of one CAT row.
func (m *Manifest) catRowWidth() int {
	if m.CatFormat == signature.FormatA {
		return 8 // bare A-rowid
	}
	return 16 // <R-rowid, A-rowid>
}

// aggRowWidth returns the byte width of one AGGREGATES row.
func (m *Manifest) aggRowWidth() int {
	if m.CatFormat == signature.FormatA {
		return 8 + 8*m.NumAggrs()
	}
	return 8 * m.NumAggrs()
}

// WriteManifest writes m into dir: to a temporary file first, then
// renamed into place, so the manifest is either absent or whole.
func WriteManifest(dir string, m *Manifest) error {
	data, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("storage: marshaling manifest: %w", err)
	}
	path := filepath.Join(dir, ManifestFile)
	if err := os.WriteFile(path+".tmp", data, 0o644); err != nil {
		return err
	}
	return os.Rename(path+".tmp", path)
}

// ReadManifest loads and validates the manifest of a cube directory.
func ReadManifest(dir string) (*Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestFile))
	if err != nil {
		return nil, err
	}
	m := &Manifest{}
	if err := json.Unmarshal(data, m); err != nil {
		return nil, fmt.Errorf("storage: parsing manifest in %s: %w", dir, err)
	}
	if why, ok := retiredVersions[m.Version]; ok {
		return nil, fmt.Errorf("storage: %s is a version-%d cube: %s, rebuild the cube", dir, m.Version, why)
	}
	if m.Version != manifestVersion {
		return nil, fmt.Errorf("storage: manifest version %d, want %d", m.Version, manifestVersion)
	}
	if err := m.AggCodec.check(m.AggRows); err != nil {
		return nil, fmt.Errorf("storage: manifest in %s: AGGREGATES: %w", dir, err)
	}
	for k, nm := range m.Nodes {
		err := nm.NTCodec.check(nm.NTRows)
		if err == nil {
			err = nm.TTCodec.check(nm.TTRows)
		}
		if err == nil {
			err = nm.CATCodec.check(nm.CATRows)
		}
		if err != nil {
			return nil, fmt.Errorf("storage: manifest in %s: node %s: %w", dir, k, err)
		}
	}
	return m, nil
}

// manifestVersion is the one manifest format this build writes and reads:
// block-columnar extents, the recorded plan, and zone maps in ZoneLayout's
// slots.
const manifestVersion = 4

// retiredVersions says why each older manifest version no longer opens.
var retiredVersions = map[int]string{
	1: "the fixed-width extent format is retired",
	2: "it does not record the plan its trivial tuples are shared along",
	3: "its zone maps keep a slot per level, which this layout would read as other dimensions' bounds",
}

// PlanRoot is the PlanParents value of a phase root: a node a build phase
// entered the plan at, whose trivial tuples no ancestor shares.
const PlanRoot lattice.NodeID = -1

// decodePlanParents turns PlanParents into a map by node id. It refuses a
// key that is not a node of enum in nodeKey's form, and a parent that is
// neither PlanRoot nor a strictly coarser node, so every walk up the
// recorded tree ends.
func (m *Manifest) decodePlanParents(enum *lattice.Enum) (map[lattice.NodeID]lattice.NodeID, error) {
	out := make(map[lattice.NodeID]lattice.NodeID, len(m.PlanParents))
	for k, p := range m.PlanParents {
		v, err := strconv.ParseInt(k, 10, 64)
		id := lattice.NodeID(v)
		if err != nil || nodeKey(id) != k || !enum.Valid(id) {
			return nil, fmt.Errorf("storage: plan_parents key %q is not a node", k)
		}
		if p != PlanRoot && (p == id || !enum.Valid(p) || !enum.Refines(id, p)) {
			return nil, fmt.Errorf("storage: plan_parents: %d is not a parent of node %d", p, id)
		}
		out[id] = p
	}
	return out, nil
}

// resolveFactPath resolves the manifest's fact-file reference against the
// cube directory.
func resolveFactPath(dir, factFile string) string {
	if filepath.IsAbs(factFile) {
		return factFile
	}
	return filepath.Join(dir, factFile)
}
