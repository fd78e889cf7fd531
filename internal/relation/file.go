package relation

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
)

// The on-disk fact-table format is a small header followed by fixed-width
// rows (4 bytes little-endian per dimension code, 8 bytes per measure).
// Fixed width is what makes O(1) random access by row-id possible, which
// CURE's query path depends on: cube tuples store R-rowids instead of
// dimension values and must fetch the referenced fact rows cheaply.

const (
	factMagic   = 0x43555245 // "CURE"
	factVersion = 1

	// flagRowIDs marks files whose rows carry an 8-byte original row-id
	// after the measures. Partition files use it so cube tuples built
	// from a partition keep referencing the original fact table.
	flagRowIDs uint16 = 1 << 0
)

// headerSize is the byte length of the fact-file header preceding row data.
func headerSize(s *Schema) int {
	n := 4 + 2 + 2 + 2 + 2 + 8 // magic, version, flags, numDims, numMeasures, rowCount
	for _, name := range s.DimNames {
		n += 2 + len(name)
	}
	for _, name := range s.MeasureNames {
		n += 2 + len(name)
	}
	return n
}

func writeHeader(w io.Writer, s *Schema, rows int64, flags uint16) error {
	var buf [8]byte
	binary.LittleEndian.PutUint32(buf[:4], factMagic)
	if _, err := w.Write(buf[:4]); err != nil {
		return err
	}
	binary.LittleEndian.PutUint16(buf[:2], factVersion)
	if _, err := w.Write(buf[:2]); err != nil {
		return err
	}
	binary.LittleEndian.PutUint16(buf[:2], flags)
	if _, err := w.Write(buf[:2]); err != nil {
		return err
	}
	binary.LittleEndian.PutUint16(buf[:2], uint16(len(s.DimNames)))
	if _, err := w.Write(buf[:2]); err != nil {
		return err
	}
	binary.LittleEndian.PutUint16(buf[:2], uint16(len(s.MeasureNames)))
	if _, err := w.Write(buf[:2]); err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(buf[:8], uint64(rows))
	if _, err := w.Write(buf[:8]); err != nil {
		return err
	}
	writeName := func(name string) error {
		binary.LittleEndian.PutUint16(buf[:2], uint16(len(name)))
		if _, err := w.Write(buf[:2]); err != nil {
			return err
		}
		_, err := io.WriteString(w, name)
		return err
	}
	for _, name := range s.DimNames {
		if err := writeName(name); err != nil {
			return err
		}
	}
	for _, name := range s.MeasureNames {
		if err := writeName(name); err != nil {
			return err
		}
	}
	return nil
}

func readHeader(r io.Reader) (*Schema, int64, uint16, error) {
	var buf [8]byte
	if _, err := io.ReadFull(r, buf[:4]); err != nil {
		return nil, 0, 0, fmt.Errorf("relation: reading magic: %w", err)
	}
	if binary.LittleEndian.Uint32(buf[:4]) != factMagic {
		return nil, 0, 0, errors.New("relation: not a fact-table file (bad magic)")
	}
	if _, err := io.ReadFull(r, buf[:2]); err != nil {
		return nil, 0, 0, err
	}
	if v := binary.LittleEndian.Uint16(buf[:2]); v != factVersion {
		return nil, 0, 0, fmt.Errorf("relation: unsupported fact-file version %d", v)
	}
	if _, err := io.ReadFull(r, buf[:2]); err != nil {
		return nil, 0, 0, err
	}
	flags := binary.LittleEndian.Uint16(buf[:2])
	if _, err := io.ReadFull(r, buf[:2]); err != nil {
		return nil, 0, 0, err
	}
	numDims := int(binary.LittleEndian.Uint16(buf[:2]))
	if _, err := io.ReadFull(r, buf[:2]); err != nil {
		return nil, 0, 0, err
	}
	numMeasures := int(binary.LittleEndian.Uint16(buf[:2]))
	if _, err := io.ReadFull(r, buf[:8]); err != nil {
		return nil, 0, 0, err
	}
	rows := int64(binary.LittleEndian.Uint64(buf[:8]))
	if rows < 0 {
		return nil, 0, 0, fmt.Errorf("relation: corrupt fact-file header: row count %d", rows)
	}
	readName := func() (string, error) {
		if _, err := io.ReadFull(r, buf[:2]); err != nil {
			return "", err
		}
		b := make([]byte, binary.LittleEndian.Uint16(buf[:2]))
		if _, err := io.ReadFull(r, b); err != nil {
			return "", err
		}
		return string(b), nil
	}
	s := &Schema{}
	for i := 0; i < numDims; i++ {
		name, err := readName()
		if err != nil {
			return nil, 0, 0, err
		}
		s.DimNames = append(s.DimNames, name)
	}
	for i := 0; i < numMeasures; i++ {
		name, err := readName()
		if err != nil {
			return nil, 0, 0, err
		}
		s.MeasureNames = append(s.MeasureNames, name)
	}
	if err := s.Validate(); err != nil {
		return nil, 0, 0, fmt.Errorf("relation: corrupt fact-file header: %w", err)
	}
	return s, rows, flags, nil
}

// encodeRow serializes one row into buf, which must be RowWidth bytes.
func encodeRow(buf []byte, dims []int32, measures []float64) {
	off := 0
	for _, v := range dims {
		binary.LittleEndian.PutUint32(buf[off:], uint32(v))
		off += 4
	}
	for _, v := range measures {
		binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(v))
		off += 8
	}
}

// decodeRow deserializes one row from buf.
func decodeRow(buf []byte, dims []int32, measures []float64) {
	off := 0
	for d := range dims {
		dims[d] = int32(binary.LittleEndian.Uint32(buf[off:]))
		off += 4
	}
	for m := range measures {
		measures[m] = math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
		off += 8
	}
}

// WriteFactFile persists an in-memory fact table to path. Tables with
// explicit row-ids keep them (the file grows by 8 bytes per row).
// A table whose columns disagree in length is refused before the file is
// created.
func WriteFactFile(path string, t *FactTable) (err error) {
	if err := t.Validate(); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriterSize(f, 1<<20)
	var flags uint16
	width := t.Schema.RowWidth()
	if t.RowIDs != nil {
		flags |= flagRowIDs
		width += 8
	}
	if err := writeHeader(w, t.Schema, int64(t.Len()), flags); err != nil {
		return err
	}
	buf := make([]byte, width)
	dims := make([]int32, t.Schema.NumDims())
	meas := make([]float64, t.Schema.NumMeasures())
	for r := 0; r < t.Len(); r++ {
		dims = t.DimRow(r, dims)
		meas = t.MeasureRow(r, meas)
		encodeRow(buf, dims, meas)
		if t.RowIDs != nil {
			binary.LittleEndian.PutUint64(buf[t.Schema.RowWidth():], uint64(t.RowIDs[r]))
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return w.Flush()
}

// FactWriter streams rows to a fact file without holding them in memory;
// it is used by the data generators and the external partitioner.
type FactWriter struct {
	f          *os.File
	w          *bufio.Writer
	schema     *Schema
	buf        []byte
	rows       int64
	withRowIDs bool
}

// NewFactWriter creates path and writes a provisional header. Close fixes
// up the row count. withRowIDs selects the partition-file layout where
// every row carries its original row-id.
func NewFactWriter(path string, schema *Schema, withRowIDs bool) (*FactWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	width := schema.RowWidth()
	var flags uint16
	if withRowIDs {
		flags |= flagRowIDs
		width += 8
	}
	fw := &FactWriter{
		f:          f,
		w:          bufio.NewWriterSize(f, 1<<20),
		schema:     schema,
		buf:        make([]byte, width),
		withRowIDs: withRowIDs,
	}
	if err := writeHeader(fw.w, schema, 0, flags); err != nil {
		f.Close()
		return nil, err
	}
	return fw, nil
}

// Write appends one row (only for writers without row-ids; a row-id-tagged
// file is written whole, by WriteRawRows).
func (fw *FactWriter) Write(dims []int32, measures []float64) error {
	if fw.withRowIDs {
		return errors.New("relation: a row-id writer takes raw rows")
	}
	encodeRow(fw.buf, dims, measures)
	if _, err := fw.w.Write(fw.buf); err != nil {
		return err
	}
	fw.rows++
	return nil
}

// Rows returns the number of rows written so far.
func (fw *FactWriter) Rows() int64 { return fw.rows }

// Close flushes buffered rows, patches the header row count, and closes
// the file.
func (fw *FactWriter) Close() error {
	if err := fw.w.Flush(); err != nil {
		fw.f.Close()
		return err
	}
	// Patch the row count at its fixed offset in the header.
	var cnt [8]byte
	binary.LittleEndian.PutUint64(cnt[:], uint64(fw.rows))
	if _, err := fw.f.WriteAt(cnt[:], 4+2+2+2+2); err != nil {
		fw.f.Close()
		return err
	}
	return fw.f.Close()
}

// ReadFactFile loads an entire fact file into memory via the chunked
// batch scan (see scan.go).
func ReadFactFile(path string) (*FactTable, error) {
	return LoadFactRows(path, -1)
}

// FactReader provides O(1) random access to rows of a fact file by row-id
// without loading the file. It is the backing store for CURE's R-rowid
// dereferences during query answering.
type FactReader struct {
	f        *os.File
	schema   *Schema
	rows     int64
	rowWidth int
	hasIDs   bool
	dataOff  int64
}

// OpenFactReader opens a fact file for random access.
func OpenFactReader(path string) (*FactReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	schema, rows, flags, err := readHeader(bufio.NewReader(io.NewSectionReader(f, 0, 1<<20)))
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("relation: %s: %w", path, err)
	}
	width := schema.RowWidth()
	if flags&flagRowIDs != 0 {
		width += 8
	}
	return &FactReader{
		f:        f,
		schema:   schema,
		rows:     rows,
		rowWidth: width,
		hasIDs:   flags&flagRowIDs != 0,
		dataOff:  int64(headerSize(schema)),
	}, nil
}

// Schema returns the schema of the underlying fact file.
func (fr *FactReader) Schema() *Schema { return fr.schema }

// Rows returns the number of rows in the file.
func (fr *FactReader) Rows() int64 { return fr.rows }

// RowWidth returns the fixed byte width of one row.
func (fr *FactReader) RowWidth() int { return fr.rowWidth }

// ReadRaw reads the raw bytes of row id into buf (len >= RowWidth).
func (fr *FactReader) ReadRaw(id int64, buf []byte) error { return fr.ReadRawAt(id, 1, buf) }

// ReadRawAt reads count consecutive rows starting at row id into buf.
func (fr *FactReader) ReadRawAt(id int64, count int, buf []byte) error {
	if id < 0 || id+int64(count) > fr.rows {
		return fmt.Errorf("relation: row range [%d,%d) out of range [0,%d)", id, id+int64(count), fr.rows)
	}
	_, err := fr.f.ReadAt(buf[:fr.rowWidth*count], fr.dataOff+id*int64(fr.rowWidth))
	return err
}

// HasRowIDs reports whether rows carry an explicit original row-id.
func (fr *FactReader) HasRowIDs() bool { return fr.hasIDs }

// Close closes the underlying file.
func (fr *FactReader) Close() error { return fr.f.Close() }

// AppendToFactFile appends the rows of t to an existing fact file and
// patches the header row count, returning the row-id of the first
// appended row. Schemas must match; the target file must not use explicit
// row-ids. The header patch comes last, so a failed append leaves a file
// that still reads as its old rows. update.Apply extends the fact table
// with this as its last step, once the refreshed cube is finalized.
func AppendToFactFile(path string, t *FactTable) (firstID int64, err error) {
	fr, err := OpenFactReader(path)
	if err != nil {
		return 0, err
	}
	oldRows := fr.Rows()
	schema := fr.Schema()
	hasIDs := fr.HasRowIDs()
	fr.Close()
	if hasIDs {
		return 0, errors.New("relation: cannot append to a row-id-tagged file")
	}
	if schema.NumDims() != t.Schema.NumDims() || schema.NumMeasures() != t.Schema.NumMeasures() {
		return 0, fmt.Errorf("relation: append schema mismatch: %dx%d vs %dx%d",
			t.Schema.NumDims(), t.Schema.NumMeasures(), schema.NumDims(), schema.NumMeasures())
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return 0, err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	// Seek to the end of the existing rows (O_APPEND would forbid the
	// header patch below).
	if _, err := f.Seek(int64(headerSize(schema))+oldRows*int64(schema.RowWidth()), io.SeekStart); err != nil {
		return 0, err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	buf := make([]byte, schema.RowWidth())
	dims := make([]int32, schema.NumDims())
	meas := make([]float64, schema.NumMeasures())
	for r := 0; r < t.Len(); r++ {
		dims = t.DimRow(r, dims)
		meas = t.MeasureRow(r, meas)
		encodeRow(buf, dims, meas)
		if _, err := w.Write(buf); err != nil {
			return 0, err
		}
	}
	if err := w.Flush(); err != nil {
		return 0, err
	}
	var cnt [8]byte
	binary.LittleEndian.PutUint64(cnt[:], uint64(oldRows+int64(t.Len())))
	if _, err := f.WriteAt(cnt[:], 4+2+2+2+2); err != nil {
		return 0, err
	}
	return oldRows, nil
}
