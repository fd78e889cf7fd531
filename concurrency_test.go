package cure_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestGoroutinesOnlyFromPar pins the module's worker-pool invariant:
// outside internal/par (the one worker pool, with its claim, error and
// panic contract) and internal/obsv (the sampling clock, the servers and
// the panic capture), no non-test Go starts a goroutine or calls
// recover(). benchmarks/ is its own module and is not walked.
func TestGoroutinesOnlyFromPar(t *testing.T) {
	allowed := map[string]bool{
		filepath.Join("internal", "par"):  true,
		filepath.Join("internal", "obsv"): true,
	}
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path == "benchmarks" || allowed[path] || name == "testdata" || path != "." && strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files++
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				t.Errorf("%s: go statement outside internal/par and internal/obsv", fset.Position(n.Pos()))
			case *ast.CallExpr:
				if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "recover" {
					t.Errorf("%s: recover() outside internal/par and internal/obsv", fset.Position(n.Pos()))
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 50 {
		t.Fatalf("walked %d Go files; the walk must start at the module root", files)
	}
}
