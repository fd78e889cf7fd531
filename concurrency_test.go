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

// TestExportedFuncsHaveCallers keeps the module free of exported API that
// only tests use: every exported function or method declared in a
// non-test file under internal/ must be referenced from a non-test file
// of the module or of benchmarks/cubemark. A function counts as
// referenced through its package-qualified name outside its package or
// its bare name inside it; a method, having no resolved receiver type in
// a parse-only walk, through any selector of its name.
func TestExportedFuncsHaveCallers(t *testing.T) {
	// Methods that satisfy standard-library interfaces are called through
	// those interfaces, never by name.
	viaInterface := map[string]bool{
		"String":    true, // fmt.Stringer
		"Error":     true, // error
		"ServeHTTP": true, // http.Handler
	}
	type funcRef struct{ pkg, name string }
	refs := map[funcRef]bool{}    // package-qualified and same-package uses
	selected := map[string]bool{} // every selector's name
	type decl struct {
		funcRef
		method bool
		pos    token.Position
	}
	var decls []decl
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == "testdata" || path != "." && strings.HasPrefix(name, ".") {
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
		pkg := "cure"
		if dir := filepath.ToSlash(filepath.Dir(path)); dir != "." {
			pkg += "/" + dir
		}
		imports := map[string]string{}
		for _, spec := range f.Imports {
			p := strings.Trim(spec.Path.Value, `"`)
			name := p[strings.LastIndex(p, "/")+1:]
			if spec.Name != nil {
				name = spec.Name.Name
			}
			imports[name] = p
		}
		declared := map[*ast.Ident]bool{} // a declaration's name is not a use
		for _, dd := range f.Decls {
			if fd, ok := dd.(*ast.FuncDecl); ok {
				declared[fd.Name] = true
				if fd.Name.IsExported() && strings.HasPrefix(pkg, "cure/internal/") {
					decls = append(decls, decl{funcRef{pkg, fd.Name.Name}, fd.Recv != nil, fset.Position(fd.Pos())})
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				selected[n.Sel.Name] = true
				if x, ok := n.X.(*ast.Ident); ok {
					if p, ok := imports[x.Name]; ok {
						refs[funcRef{p, n.Sel.Name}] = true
						return false
					}
				}
			case *ast.Ident:
				if !declared[n] {
					refs[funcRef{pkg, n.Name}] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) < 100 {
		t.Fatalf("found %d exported functions under internal/; the walk must start at the module root", len(decls))
	}
	for _, d := range decls {
		used := refs[d.funcRef]
		if d.method {
			used = selected[d.name] || viaInterface[d.name]
		}
		if !used {
			t.Errorf("%s: exported %s has no caller outside _test.go files", d.pos, d.name)
		}
	}
}
