package cure_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
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
// of the module or of benchmarks/cubemark. The walk type-checks those
// files (go/types, the standard library read from the export data `go
// list -export` names), so a use is of the declared object itself: a
// method another type shares the name of does not count. A method also
// counts as used when a method of a module interface it satisfies is, or
// when it satisfies a standard-library interface that calls it by name.
func TestExportedFuncsHaveCallers(t *testing.T) {
	viaInterface := map[string]bool{
		"String":    true, // fmt.Stringer
		"Error":     true, // error
		"ServeHTTP": true, // http.Handler
		"Write":     true, // io.Writer
		"Read":      true, // io.Reader
	}
	fset := token.NewFileSet()
	files := map[string][]*ast.File{} // import path → non-test files
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
		dir, name := filepath.Split(path)
		if ok, err := build.Default.MatchFile(filepath.Join(".", dir), name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := "cure"
		if dir := filepath.ToSlash(filepath.Dir(path)); dir != "." {
			pkg += "/" + dir
		}
		files[pkg] = append(files[pkg], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// One `go list` names the export data of every standard package the
	// module builds on; any other (one only cubemark imports) is looked
	// up alone.
	exports := map[string]string{}
	out, err := exec.Command("go", "list", "-deps", "-export", "-f", "{{if .Standard}}{{.ImportPath}}={{.Export}}{{end}}", "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	for _, line := range strings.Fields(string(out)) {
		if p, file, ok := strings.Cut(line, "="); ok {
			exports[p] = file
		}
	}
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			out, err := exec.Command("go", "list", "-export", "-f", "{{.Export}}", path).Output()
			if err != nil {
				return nil, fmt.Errorf("go list %s: %w", path, err)
			}
			file = strings.TrimSpace(string(out))
		}
		return os.Open(file)
	})
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	checked := map[string]*types.Package{}
	var check func(path string) (*types.Package, error)
	check = func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		conf := types.Config{Importer: importerFunc(func(p string) (*types.Package, error) {
			if _, ok := files[p]; ok {
				return check(p)
			}
			return std.Import(p)
		})}
		p, err := conf.Check(path, fset, files[path], info)
		if err != nil {
			return nil, err
		}
		checked[path] = p
		return p, nil
	}
	for path := range files {
		if _, err := check(path); err != nil {
			t.Fatal(err)
		}
	}

	used := map[*types.Func]bool{}
	var ifaceMethods []*types.Func // used methods of module interfaces
	for _, obj := range info.Uses {
		f, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		f = f.Origin()
		used[f] = true
		if recv := f.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
			ifaceMethods = append(ifaceMethods, f)
		}
	}
	viaModuleInterface := func(m *types.Func) bool {
		recv := m.Type().(*types.Signature).Recv().Type()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		for _, im := range ifaceMethods {
			iface := im.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
			if im.Name() == m.Name() && (types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface)) {
				return true
			}
		}
		return false
	}
	decls := 0
	for path, fs := range files {
		if !strings.HasPrefix(path, "cure/internal/") {
			continue
		}
		for _, f := range fs {
			for _, dd := range f.Decls {
				fd, ok := dd.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				decls++
				fn := info.Defs[fd.Name].(*types.Func)
				if used[fn] || fd.Recv != nil && (viaInterface[fn.Name()] || viaModuleInterface(fn)) {
					continue
				}
				t.Errorf("%s: exported %s has no caller outside _test.go files", fset.Position(fd.Pos()), fn.FullName())
			}
		}
	}
	if decls < 100 {
		t.Fatalf("found %d exported functions under internal/; the walk must start at the module root", decls)
	}
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
