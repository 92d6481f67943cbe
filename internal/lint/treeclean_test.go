package lint

import (
	"go/types"
	"testing"
)

// TestTreeIsClean runs the full suite over the repository — the same
// check CI's triadlint step performs — so a violation anywhere in the
// tree fails `go test ./internal/lint` too, keeping the invariants
// enforced even where triadlint is not wired in.
//
// It also holds the tree to typed atomics: no file uses a sync/atomic
// function. An atomic.Int64 field cannot be read plainly and is 8-byte
// aligned on every target, which the raw functions over plain fields
// leave to discipline.
func TestTreeIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole repository; skipped in -short")
	}
	l := NewLoader("../..")
	pkgs, err := l.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("loader found no packages")
	}
	for _, d := range Run(pkgs, Analyzers()) {
		t.Errorf("%s", d)
	}
	for _, p := range pkgs {
		for id, obj := range p.TypesInfo.Uses {
			fn, ok := obj.(*types.Func)
			if ok && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic" && fn.Type().(*types.Signature).Recv() == nil {
				t.Errorf("%s: uses sync/atomic.%s; use a typed atomic", p.Fset.Position(id.Pos()), fn.Name())
			}
		}
	}
}
