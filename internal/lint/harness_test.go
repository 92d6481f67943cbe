package lint

// The golden-test harness mirrors golang.org/x/tools/go/analysis/
// analysistest in miniature: each analyzer gets a package under
// testdata/src/<name>/ containing seeded violations annotated with
// `// want "regexp"` comments on the line the diagnostic is reported
// at, plus known-good code that must stay silent. Stub dependencies
// (shard, lsm, sstable, ...) live beside the targets and are resolved
// by import path relative to testdata/src, so the analyzers bind to
// them through the same suffix matching they use on the real tree.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// stubLoader type-checks packages rooted at testdata/src, resolving
// imports among them.
type stubLoader struct {
	fset *token.FileSet
	root string
	pkgs map[string]*Package
}

func newStubLoader() *stubLoader {
	return &stubLoader{
		fset: token.NewFileSet(),
		root: filepath.Join("testdata", "src"),
		pkgs: make(map[string]*Package),
	}
}

func (l *stubLoader) Import(path string) (*types.Package, error) {
	p, err := l.load(path)
	if err != nil {
		return nil, err
	}
	return p.Types, nil
}

func (l *stubLoader) load(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir := filepath.Join(l.root, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("stub package %q: %v", path, err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("stub package %q: no Go files in %s", path, dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: l, Sizes: types.SizesFor("gc", "amd64")}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-check stub %q: %v", path, err)
	}
	p := &Package{Path: path, Fset: l.fset, Files: files, Types: tpkg, TypesInfo: info}
	l.pkgs[path] = p
	return p, nil
}

// want is one expectation parsed from a `// want "re"` comment.
type want struct {
	line int
	re   *regexp.Regexp
	used bool
}

// parseWants extracts the expectations from a package's files, keyed
// by filename.
func parseWants(t *testing.T, fset *token.FileSet, files []*ast.File) map[string][]*want {
	t.Helper()
	wants := make(map[string][]*want)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//")
				if !ok {
					continue
				}
				text = strings.TrimSpace(text)
				body, ok := strings.CutPrefix(text, "want ")
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, pat := range splitWantPatterns(t, pos, body) {
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", pos, pat, err)
					}
					wants[pos.Filename] = append(wants[pos.Filename], &want{line: pos.Line, re: re})
				}
			}
		}
	}
	return wants
}

// splitWantPatterns parses the sequence of quoted or backquoted
// regexps after the `want` keyword.
func splitWantPatterns(t *testing.T, pos token.Position, s string) []string {
	t.Helper()
	var pats []string
	for {
		s = strings.TrimSpace(s)
		if s == "" {
			return pats
		}
		switch s[0] {
		case '`':
			end := strings.IndexByte(s[1:], '`')
			if end < 0 {
				t.Fatalf("%s: unterminated want pattern: %s", pos, s)
			}
			pats = append(pats, s[1:1+end])
			s = s[end+2:]
		case '"':
			// Find the closing unescaped quote and let strconv undo
			// the escaping.
			end := 1
			for end < len(s) && (s[end] != '"' || s[end-1] == '\\') {
				end++
			}
			if end == len(s) {
				t.Fatalf("%s: unterminated want pattern: %s", pos, s)
			}
			unq, err := strconv.Unquote(s[:end+1])
			if err != nil {
				t.Fatalf("%s: bad want pattern %s: %v", pos, s[:end+1], err)
			}
			pats = append(pats, unq)
			s = s[end+1:]
		default:
			t.Fatalf("%s: want patterns must be quoted or backquoted: %s", pos, s)
		}
	}
}

// runGolden loads testdata/src/<path>, runs exactly one analyzer over
// it, and compares the diagnostics against the `// want` annotations:
// every diagnostic must be expected, and every expectation must fire.
func runGolden(t *testing.T, a *Analyzer, path string) {
	t.Helper()
	l := newStubLoader()
	pkg, err := l.load(path)
	if err != nil {
		t.Fatal(err)
	}
	diags := Run([]*Package{pkg}, []*Analyzer{a})
	wants := parseWants(t, l.fset, pkg.Files)

	for _, d := range diags {
		matched := false
		for _, w := range wants[d.Pos.Filename] {
			if !w.used && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.used = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for file, ws := range wants {
		for _, w := range ws {
			if !w.used {
				t.Errorf("%s:%d: no diagnostic matched want %q", file, w.line, w.re)
			}
		}
	}
}
