package storage

import (
	"os"
	"testing"
)

// FuzzReadManifestBytes exercises manifest parsing against arbitrary
// bytes: it must reject garbage with an error, never panic.
func FuzzReadManifestBytes(f *testing.F) {
	f.Add([]byte(`{"version":1,"agg_specs":[{"Func":0,"Measure":0}],"nodes":{"7":{"nt_rows":3}}}`))
	f.Add([]byte(`{"version":4,"nodes":{"7":{"nt_rows":3,"nt_codec":{"block_rows":256,"offs":[0,9]}}}}`))
	f.Add([]byte(`{"version":4,"nodes":{"7":{"nt_rows":3}}}`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))
	f.Add([]byte(`{"version":99}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := writeFileHelper(dir, data); err != nil {
			t.Skip()
		}
		m, err := ReadManifest(dir)
		if err == nil && m.Version != manifestVersion {
			t.Fatalf("accepted manifest with version %d", m.Version)
		}
	})
}

func writeFileHelper(dir string, data []byte) error {
	return os.WriteFile(dir+"/"+ManifestFile, data, 0o644)
}
