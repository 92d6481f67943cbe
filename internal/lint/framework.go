package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named invariant check. The shape deliberately
// mirrors golang.org/x/tools/go/analysis so the suite could migrate to
// the real framework if the repository ever grows dependencies.
type Analyzer struct {
	Name string // short lower-case identifier, shown in findings
	Doc  string // one-line description of the invariant enforced
	Run  func(*Pass)
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// Diagnostic is one finding at one position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run applies every analyzer to every package and returns the findings
// in (file, line, analyzer) order — the order is stable so driver
// output and test comparisons are deterministic.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				diags:     &diags,
			}
			a.Run(pass)
		}
	}
	sortDiagnostics(diags)
	return dedupDiagnostics(diags)
}

func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// dedupDiagnostics collapses findings reported identically from the
// plain and test-augmented views of the same package.
func dedupDiagnostics(diags []Diagnostic) []Diagnostic {
	out := diags[:0]
	for i, d := range diags {
		if i > 0 && d == diags[i-1] {
			continue
		}
		out = append(out, d)
	}
	return out
}

// --- shared type-matching helpers -----------------------------------

// pkgMatches reports whether p's import path is path itself or ends in
// "/"+path. Analyzers name packages by suffix ("internal/shard",
// "internal/lsm", ...) so the same analyzer binds to both the real
// tree (repro/internal/shard) and the stub packages under testdata
// (shard — matched via their last path element).
func pkgMatches(p *types.Package, suffix string) bool {
	if p == nil {
		return false
	}
	path := p.Path()
	if path == suffix {
		return true
	}
	if strings.HasSuffix(path, "/"+suffix) {
		return true
	}
	// testdata stubs use the bare last element of the suffix.
	if i := strings.LastIndexByte(suffix, '/'); i >= 0 {
		last := suffix[i+1:]
		if path == last || strings.HasSuffix(path, "/"+last) {
			return true
		}
	}
	return false
}

// namedOf unwraps pointers and aliases down to a named type, or nil.
func namedOf(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Alias:
			t = types.Unalias(t)
		case *types.Named:
			return u
		default:
			return nil
		}
	}
}

// isNamedType reports whether t (through pointers) is type name in a
// package matching pkgSuffix.
func isNamedType(t types.Type, pkgSuffix, name string) bool {
	n := namedOf(t)
	if n == nil {
		return false
	}
	obj := n.Obj()
	return obj.Name() == name && pkgMatches(obj.Pkg(), pkgSuffix)
}

// calleeName returns the syntactic name of a call target: the method
// or function identifier, ignoring the receiver/package qualifier.
func calleeName(call *ast.CallExpr) string {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		return fn.Sel.Name
	}
	return ""
}

// resultTypes returns the flattened result types of a call expression.
func resultTypes(info *types.Info, call *ast.CallExpr) []types.Type {
	tv, ok := info.Types[call]
	if !ok {
		return nil
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		out := make([]types.Type, t.Len())
		for i := range t.Len() {
			out[i] = t.At(i).Type()
		}
		return out
	default:
		if t == nil {
			return nil
		}
		return []types.Type{t}
	}
}

// buildParents maps every node in root to its enclosing node.
func buildParents(root ast.Node) map[ast.Node]ast.Node {
	parents := make(map[ast.Node]ast.Node)
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}

// enclosingStmt walks up the parent chain to the nearest statement for
// which the CFG has a node.
func enclosingStmt(parents map[ast.Node]ast.Node, g *cfg, n ast.Node) ast.Stmt {
	for n != nil {
		if s, ok := n.(ast.Stmt); ok {
			if _, ok := g.nodes[s]; ok {
				return s
			}
		}
		n = parents[n]
	}
	return nil
}

// funcBodies yields every function body in the files: declarations and
// function literals alike, each paired with its receiver declaration
// (nil for non-methods and literals).
func funcBodies(files []*ast.File, fn func(body *ast.BlockStmt, decl *ast.FuncDecl)) {
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch d := n.(type) {
			case *ast.FuncDecl:
				if d.Body != nil {
					fn(d.Body, d)
				}
			case *ast.FuncLit:
				fn(d.Body, nil)
			}
			return true
		})
	}
}
