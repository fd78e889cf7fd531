package storage

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"slices"

	"cure/internal/lattice"
)

// blockLog is the sequential construction-time spill target for one
// relation class (NT, TT, CAT or AGGREGATES). Rows for the same node are
// staged in memory and written as node-tagged blocks of fixed-width rows,
// so construction I/O is purely sequential no matter how the signature
// pool interleaves nodes.
//
// Every block header names the node's previous block, so a node's rows
// are a chain through the file that gather walks backwards from the
// newest block. The log itself remembers only each node's row count and
// newest block: writer memory is O(nodes), not O(blocks) — the paper's
// D = 28 cube has 88,932 relations and far more blocks.
type blockLog struct {
	path     string
	f        *os.File // write handle until finish, read handle after
	w        *bufio.Writer
	rowWidth int
	nodes    map[lattice.NodeID]*nodeLog
	dirty    []*nodeLog // nodes holding staged rows, in first-staged order
	budget   *stageBudget
	staged   int64
	off      int64 // bytes written so far: the next block's offset
	scratch  []byte
	rows     int64
}

// nodeLog is what the log remembers of one node.
type nodeLog struct {
	id      lattice.NodeID
	stage   []byte // rows not yet spilled
	rows    int64  // rows appended in total
	lastOff int64  // offset of the node's newest block, -1 before the first spill
	lastLen int32  // payload bytes of that block
}

// logHdrSize is the block header: <node int64, payloadLen int32,
// prevLen int32, prevOff int64>. prevOff is -1 on a node's first block.
const logHdrSize = 24

// stageBudget caps the total bytes staged across the logs that share it.
type stageBudget struct {
	limit int64
	used  int64
}

func newBlockLog(path string, rowWidth int, budget *stageBudget) (*blockLog, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &blockLog{
		path:     path,
		f:        f,
		w:        bufio.NewWriterSize(f, 1<<20),
		rowWidth: rowWidth,
		nodes:    map[lattice.NodeID]*nodeLog{},
		budget:   budget,
		scratch:  make([]byte, rowWidth),
	}, nil
}

// rowBuf returns the shared scratch row buffer (rowWidth bytes); callers
// fill it and pass it to append, which copies it.
func (l *blockLog) rowBuf() []byte { return l.scratch }

func (l *blockLog) append(node lattice.NodeID, row []byte) error {
	n := l.nodes[node]
	if n == nil {
		n = &nodeLog{id: node, lastOff: -1}
		l.nodes[node] = n
	}
	if len(n.stage) == 0 {
		l.dirty = append(l.dirty, n)
	}
	n.stage = append(n.stage, row[:l.rowWidth]...)
	n.rows++
	l.staged += int64(l.rowWidth)
	l.budget.used += int64(l.rowWidth)
	l.rows++
	if l.budget.used > l.budget.limit {
		return l.spill()
	}
	return nil
}

// spill writes all staged rows out as blocks, each chained to its node's
// previous one, and releases their budget.
func (l *blockLog) spill() error {
	var hdr [logHdrSize]byte
	for _, n := range l.dirty {
		binary.LittleEndian.PutUint64(hdr[0:], uint64(n.id))
		binary.LittleEndian.PutUint32(hdr[8:], uint32(len(n.stage)))
		binary.LittleEndian.PutUint32(hdr[12:], uint32(n.lastLen))
		binary.LittleEndian.PutUint64(hdr[16:], uint64(n.lastOff))
		if _, err := l.w.Write(hdr[:]); err != nil {
			return err
		}
		if _, err := l.w.Write(n.stage); err != nil {
			return err
		}
		n.lastOff, n.lastLen = l.off, int32(len(n.stage))
		l.off += logHdrSize + int64(len(n.stage))
		n.stage = nil
	}
	l.dirty = l.dirty[:0]
	l.budget.used -= l.staged
	l.staged = 0
	return nil
}

// finish spills remaining stages, flushes the log to disk and reopens it
// for gather. Call it once.
func (l *blockLog) finish() error {
	if err := l.spill(); err != nil {
		return err
	}
	if err := l.w.Flush(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	f, err := os.Open(l.path)
	if err != nil {
		return err
	}
	l.f = f
	return nil
}

// remove closes and deletes the log file.
func (l *blockLog) remove() {
	l.f.Close()
	os.Remove(l.path)
}

// nodeIDs returns the nodes that received rows, ascending.
func (l *blockLog) nodeIDs() []lattice.NodeID {
	ids := make([]lattice.NodeID, 0, len(l.nodes))
	for id := range l.nodes {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// gather reads all rows of node in arrival order, after finish. *scratch
// is grown when too small and the result aliases it. Safe for concurrent
// calls with distinct scratch buffers.
//
// The chain is walked newest block first and the buffer filled from the
// back. Each block is one ReadAt of header plus payload: the payload
// lands in place and the header on the bytes just before it, which belong
// to an older block not read yet (or to the slack in front of the first).
func (l *blockLog) gather(node lattice.NodeID, scratch *[]byte) ([]byte, error) {
	n := l.nodes[node]
	size := int(n.rows) * l.rowWidth
	if cap(*scratch) < logHdrSize+size {
		*scratch = make([]byte, logHdrSize+size)
	}
	buf := (*scratch)[:logHdrSize+size]
	pos, off, ln := size, n.lastOff, int(n.lastLen)
	for pos > 0 {
		if off < 0 || ln <= 0 || ln > pos {
			return nil, fmt.Errorf("storage: %s: block chain of node %d is broken at %d", l.path, node, off)
		}
		seg := buf[pos-ln : pos+logHdrSize]
		if _, err := l.f.ReadAt(seg, off); err != nil {
			return nil, fmt.Errorf("storage: reading %s: %w", l.path, err)
		}
		if lattice.NodeID(binary.LittleEndian.Uint64(seg)) != node || int(binary.LittleEndian.Uint32(seg[8:])) != ln {
			return nil, fmt.Errorf("storage: %s: block at %d does not belong to node %d", l.path, off, node)
		}
		pos -= ln
		ln = int(binary.LittleEndian.Uint32(seg[12:]))
		off = int64(binary.LittleEndian.Uint64(seg[16:]))
	}
	if off != -1 {
		return nil, fmt.Errorf("storage: %s: node %d has more blocks than rows counted", l.path, node)
	}
	return buf[logHdrSize:], nil
}
