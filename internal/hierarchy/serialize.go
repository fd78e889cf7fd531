package hierarchy

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"
	"os"
)

// wireDim is the gob-encoded form of a Dim: only the declarative fields
// travel; the dashed-edge tree is recomputed by Finalize on load so that
// the serialized form stays independent of plan internals.
type wireDim struct {
	Name   string
	Levels []Level
}

type wireSchema struct {
	Dims []wireDim
}

// WriteSchema persists a hierarchy schema (names, cardinalities, level
// maps, roll-up edges) so that a cube on disk can be queried by a fresh
// process.
func WriteSchema(w io.Writer, s *Schema) error {
	ws := wireSchema{}
	for _, d := range s.Dims {
		ws.Dims = append(ws.Dims, wireDim{Name: d.Name, Levels: d.Levels})
	}
	if err := gob.NewEncoder(w).Encode(&ws); err != nil {
		return fmt.Errorf("hierarchy: encoding schema: %w", err)
	}
	return nil
}

// ReadSchemaFile loads a schema written by WriteSchema, revalidating
// it and rebuilding the dashed-edge trees.
func ReadSchemaFile(path string) (*Schema, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var ws wireSchema
	if err := gob.NewDecoder(bufio.NewReader(f)).Decode(&ws); err != nil {
		return nil, fmt.Errorf("hierarchy: decoding schema %s: %w", path, err)
	}
	dims := make([]*Dim, len(ws.Dims))
	for i, wd := range ws.Dims {
		d := &Dim{Name: wd.Name, Levels: wd.Levels}
		if err := d.Finalize(); err != nil {
			return nil, err
		}
		dims[i] = d
	}
	return NewSchema(dims...)
}
