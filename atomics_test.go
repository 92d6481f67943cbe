package triad

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// atomicTypes are the types of sync/atomic; every other name it exports
// is a function.
var atomicTypes = map[string]bool{
	"Bool": true, "Int32": true, "Int64": true, "Uint32": true,
	"Uint64": true, "Uintptr": true, "Pointer": true, "Value": true,
}

// atomicCalls returns, as file:line: name, every use of a sync/atomic
// function in the Go source src. It reads the syntax only: a selector on
// the file's sync/atomic import that names no atomic type names a
// function.
func atomicCalls(fset *token.FileSet, name string, src any) ([]string, error) {
	f, err := parser.ParseFile(fset, name, src, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	local := ""
	for _, imp := range f.Imports {
		if path, _ := strconv.Unquote(imp.Path.Value); path == "sync/atomic" {
			local = "atomic"
			if imp.Name != nil {
				local = imp.Name.Name
			}
		}
	}
	if local == "" || local == "_" {
		return nil, nil
	}
	var uses []string
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if x, ok := sel.X.(*ast.Ident); ok && x.Name == local && !atomicTypes[sel.Sel.Name] {
			uses = append(uses, fset.Position(sel.Pos()).String()+": atomic."+sel.Sel.Name)
		}
		return true
	})
	return uses, nil
}

// TestTypedAtomicsOnly holds the module to typed atomics: no file, test
// files included, calls a sync/atomic function. An atomic.Int64 field
// cannot be read plainly and is 8-byte aligned on every target, which the
// raw functions over plain fields leave to discipline.
func TestTypedAtomicsOnly(t *testing.T) {
	fset := token.NewFileSet()
	seeded := "package p\n\nimport \"sync/atomic\"\n\nvar n int64\nvar m atomic.Int64\n\nfunc f() { atomic.AddInt64(&n, 1); m.Add(1) }\n"
	if uses, err := atomicCalls(fset, "seeded.go", seeded); err != nil || len(uses) != 1 {
		t.Fatalf("the check finds %v (%v) in a file with one atomic.AddInt64", uses, err)
	}
	files := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // another module
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		files++
		uses, err := atomicCalls(fset, path, nil)
		for _, u := range uses {
			t.Errorf("%s; use a typed atomic", u)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 100 {
		t.Fatalf("walked %d Go files; is the test running from the module root?", files)
	}
}
