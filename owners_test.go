package triad

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// constructors names, by the import path of its package, each function
// that builds what the shards of a store share or run on: an engine, the
// background pool and the block cache.
var constructors = map[string]string{
	"repro/internal/lsm":     "Open",
	"repro/internal/bgsched": "NewPool",
	"repro/internal/sstable": "NewCache",
}

// constructorUses returns, as file:line: name, every use of a constructor
// in the Go source src of the package pkgPath: a selector on the
// constructor's package import, or a call of its bare name inside that
// package. It reads the syntax only.
func constructorUses(fset *token.FileSet, name, pkgPath string, src any) ([]string, error) {
	f, err := parser.ParseFile(fset, name, src, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	imported := map[string]string{} // local name -> import path
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		if _, ok := constructors[path]; !ok {
			continue
		}
		local := path[strings.LastIndex(path, "/")+1:]
		if imp.Name != nil {
			local = imp.Name.Name
		}
		imported[local] = path
	}
	var uses []string
	use := func(n ast.Node, fn string) {
		uses = append(uses, fset.Position(n.Pos()).String()+": "+fn)
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok {
				if path, ok := imported[x.Name]; ok && constructors[path] == n.Sel.Name {
					use(n, x.Name+"."+n.Sel.Name)
				}
			}
		case *ast.CallExpr:
			if fn, ok := n.Fun.(*ast.Ident); ok && constructors[pkgPath] == fn.Name {
				use(n, fn.Name)
			}
		}
		return true
	})
	return uses, nil
}

// TestOnlyShardOpenBuildsSharedState holds the module to one owner of what
// shards share: outside tests, only internal/shard (shard.Open) opens an
// engine, builds a background pool or builds a block cache. Anything else
// that opened an engine would run it on a pool and a cache of its own,
// beside the store's.
func TestOnlyShardOpenBuildsSharedState(t *testing.T) {
	fset := token.NewFileSet()
	seeded := "package p\n\nimport (\n\t\"repro/internal/lsm\"\n\tsc \"repro/internal/sstable\"\n)\n\nfunc f() { lsm.Open(lsm.Options{}); _ = sc.NewCache }\n"
	if uses, err := constructorUses(fset, "seeded.go", "repro/p", seeded); err != nil || len(uses) != 2 {
		t.Fatalf("the check finds %v (%v) in a file with lsm.Open and sstable.NewCache", uses, err)
	}
	seeded = "package bgsched\n\nfunc f() { NewPool(1) }\n"
	if uses, err := constructorUses(fset, "seeded.go", "repro/internal/bgsched", seeded); err != nil || len(uses) != 1 {
		t.Fatalf("the check finds %v (%v) in bgsched calling NewPool", uses, err)
	}
	for _, path := range moduleGoFiles(t) {
		dir := filepath.ToSlash(filepath.Dir(path))
		if strings.HasSuffix(path, "_test.go") || dir == "internal/shard" {
			continue
		}
		pkgPath := "repro"
		if dir != "." {
			pkgPath += "/" + dir
		}
		uses, err := constructorUses(fset, path, pkgPath, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range uses {
			t.Errorf("%s; only shard.Open builds an engine, a pool or a block cache", u)
		}
	}
}
