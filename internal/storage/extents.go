package storage

import (
	"bufio"
	"fmt"
	"os"

	"cure/internal/lattice"
)

// Extent locates one node's rows inside an extent file.
type Extent struct {
	Off  int64 `json:"off"`
	Rows int64 `json:"rows"`
}

// ExtentWriter is the generic node-tagged spill-and-compact store used by
// the baseline implementations (BUC's per-node cube relations). Rows are
// fixed width; construction appends in any node order; Compact produces a
// file with each node's rows contiguous.
type ExtentWriter struct {
	log      *blockLog
	rowWidth int
}

// NewExtentWriter creates the construction log at logPath.
func NewExtentWriter(logPath string, rowWidth int, budgetBytes int64) (*ExtentWriter, error) {
	if budgetBytes <= 0 {
		budgetBytes = 8 << 20
	}
	l, err := newBlockLog(logPath, rowWidth, &stageBudget{limit: budgetBytes})
	if err != nil {
		return nil, err
	}
	return &ExtentWriter{log: l, rowWidth: rowWidth}, nil
}

// Append adds one row (must be RowWidth bytes) for node.
func (w *ExtentWriter) Append(node lattice.NodeID, row []byte) error {
	if len(row) != w.rowWidth {
		return fmt.Errorf("storage: extent row is %d bytes, want %d", len(row), w.rowWidth)
	}
	return w.log.append(node, row)
}

// Compact turns the log into the extent file at finalPath — each node's
// rows contiguous, nodes in ascending id order — removes the log, and
// returns the per-node extents (byte offsets).
func (w *ExtentWriter) Compact(finalPath string) (map[lattice.NodeID]Extent, error) {
	defer w.log.remove()
	if err := w.log.finish(); err != nil {
		return nil, err
	}
	out, err := os.Create(finalPath)
	if err != nil {
		return nil, err
	}
	defer out.Close()
	bw := bufio.NewWriterSize(out, 1<<20)
	extents := map[lattice.NodeID]Extent{}
	var buf []byte
	var off int64
	for _, id := range w.log.nodeIDs() {
		rows, err := w.log.gather(id, &buf)
		if err != nil {
			return nil, err
		}
		if _, err := bw.Write(rows); err != nil {
			return nil, err
		}
		extents[id] = Extent{Off: off, Rows: int64(len(rows) / w.rowWidth)}
		off += int64(len(rows))
	}
	if err := bw.Flush(); err != nil {
		return nil, err
	}
	return extents, out.Close()
}

// Abort discards the log without compacting.
func (w *ExtentWriter) Abort() { w.log.remove() }

// ReadExtent reads rows [0, ext.Rows) of an extent into a buffer.
func ReadExtent(f *os.File, ext Extent, rowWidth int) ([]byte, error) {
	buf := make([]byte, ext.Rows*int64(rowWidth))
	if ext.Rows == 0 {
		return buf, nil
	}
	if _, err := f.ReadAt(buf, ext.Off); err != nil {
		return nil, err
	}
	return buf, nil
}
