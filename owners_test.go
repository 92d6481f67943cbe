package triad

import (
	"go/ast"
	"go/parser"
	"go/token"
	"maps"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// constructors names, by the import path of their package, functions
// whose callers a rule of this file restricts.
type constructors map[string][]string

// sharedState are the functions that build what the shards of a store
// share or run on: an engine, the background pool and the block cache.
var sharedState = constructors{
	"repro/internal/lsm":     {"Open"},
	"repro/internal/bgsched": {"NewPool"},
	"repro/internal/sstable": {"NewCache"},
}

// sketchMakers are the functions that make a HyperLogLog sketch.
var sketchMakers = constructors{"repro/internal/hll": {"New", "MustNew"}}

// constructorUses returns, as file:line: name, every use of one of ctors
// in the Go source src of the package pkgPath: a selector on the
// constructor's package import, or a call of its bare name inside that
// package. It reads the syntax only.
func constructorUses(fset *token.FileSet, ctors constructors, name, pkgPath string, src any) ([]string, error) {
	f, err := parser.ParseFile(fset, name, src, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	imported := map[string]string{} // local name -> import path
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		if _, ok := ctors[path]; !ok {
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
				if path, ok := imported[x.Name]; ok && slices.Contains(ctors[path], n.Sel.Name) {
					use(n, x.Name+"."+n.Sel.Name)
				}
			}
		case *ast.CallExpr:
			if fn, ok := n.Fun.(*ast.Ident); ok && slices.Contains(ctors[pkgPath], fn.Name) {
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
	if uses, err := constructorUses(fset, sharedState, "seeded.go", "repro/p", seeded); err != nil || len(uses) != 2 {
		t.Fatalf("the check finds %v (%v) in a file with lsm.Open and sstable.NewCache", uses, err)
	}
	seeded = "package bgsched\n\nfunc f() { NewPool(1) }\n"
	if uses, err := constructorUses(fset, sharedState, "seeded.go", "repro/internal/bgsched", seeded); err != nil || len(uses) != 1 {
		t.Fatalf("the check finds %v (%v) in bgsched calling NewPool", uses, err)
	}
	for _, u := range usesOutside(t, fset, sharedState, "internal/shard") {
		t.Errorf("%s; only shard.Open builds an engine, a pool or a block cache", u)
	}
}

// usesOutside returns every use of ctors in the module's non-test Go files
// outside the package directories owners.
func usesOutside(t *testing.T, fset *token.FileSet, ctors constructors, owners ...string) []string {
	t.Helper()
	var all []string
	for _, path := range moduleGoFiles(t) {
		dir := filepath.ToSlash(filepath.Dir(path))
		if strings.HasSuffix(path, "_test.go") || slices.Contains(owners, dir) {
			continue
		}
		pkgPath := "repro"
		if dir != "." {
			pkgPath += "/" + dir
		}
		uses, err := constructorUses(fset, ctors, path, pkgPath, nil)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, uses...)
	}
	return all
}

// TestOnlyLSMMakesSketches holds TRIAD-DISK's key sketches to one owner:
// outside tests, only internal/lsm, which writes L0's tables, makes a
// HyperLogLog sketch (internal/hll's own code aside), and internal/sstable
// does not depend on internal/hll at all.
func TestOnlyLSMMakesSketches(t *testing.T) {
	fset := token.NewFileSet()
	seeded := "package sstable\n\nimport \"repro/internal/hll\"\n\nfunc f() { _ = hll.MustNew(12) }\n"
	if uses, err := constructorUses(fset, sketchMakers, "seeded.go", "repro/internal/sstable", seeded); err != nil || len(uses) != 1 {
		t.Fatalf("the check finds %v (%v) in sstable calling hll.MustNew", uses, err)
	}
	for _, u := range usesOutside(t, fset, sketchMakers, "internal/lsm", "internal/hll") {
		t.Errorf("%s; only internal/lsm makes a key sketch", u)
	}
	if deps := moduleDeps(t, fset, "internal/sstable"); deps["repro/internal/hll"] {
		t.Errorf("internal/sstable depends on internal/hll: %v", slices.Sorted(maps.Keys(deps)))
	}
}

// moduleDeps returns the module's packages that the package in dir imports,
// directly or not, through non-test Go files.
func moduleDeps(t *testing.T, fset *token.FileSet, dir string) map[string]bool {
	t.Helper()
	deps := map[string]bool{}
	var walk func(dir string)
	walk = func(dir string) {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range files {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				if sub, ok := strings.CutPrefix(path, "repro/"); ok && !deps[path] {
					deps[path] = true
					walk(sub)
				}
			}
		}
	}
	walk(dir)
	return deps
}
