package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// obsNilSafeTypes are the observability types whose nil receiver is a
// documented no-op. Each is nil on a path that records nothing: an
// unsampled request's Trace (Tracer.Start), the Tracer of a server at
// -trace-sample 0 (NewTracer), and the Journal of a bare engine outside
// the sharded store (lsm.Options.Events unset). Those rely on every
// exported method compiling down to a pointer test, so instrumentation
// call sites never branch. Hist and SlowLog are not listed: every one
// comes from NewHist or NewSlowLog.
var obsNilSafeTypes = []string{"Tracer", "Trace", "Journal"}

// NilSafeObs enforces the obs layer's nil-receiver contract:
//
//  1. inside internal/obs, every exported method with a pointer
//     receiver on a nil-safe type must guard `recv == nil` before the
//     first receiver field access (a method that touches no fields
//     needs no guard — method calls on a nil receiver are fine as long
//     as the callee guards);
//  2. outside internal/obs, code must never access fields of these
//     types directly — only methods keep the nil contract, so a field
//     poked from a caller is one unsampled request (or one bare engine)
//     away from a nil dereference.
var NilSafeObs = &Analyzer{
	Name: "nilsafeobs",
	Doc:  "obs nil-safe types must guard the nil receiver before field access; callers must not touch their fields",
	Run:  runNilSafeObs,
}

func runNilSafeObs(pass *Pass) {
	inObs := pkgMatches(pass.Pkg, "internal/obs")
	for _, f := range pass.Files {
		if inObs {
			checkObsMethods(pass, f)
		} else {
			checkObsFieldAccess(pass, f)
		}
	}
}

func isObsNilSafe(t types.Type) (string, bool) {
	n := namedOf(t)
	if n == nil || !pkgMatches(n.Obj().Pkg(), "internal/obs") {
		return "", false
	}
	for _, name := range obsNilSafeTypes {
		if n.Obj().Name() == name {
			return name, true
		}
	}
	return "", false
}

// checkObsMethods verifies the guard-before-field-access discipline on
// exported pointer-receiver methods inside the obs package.
func checkObsMethods(pass *Pass, f *ast.File) {
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Recv == nil || fd.Body == nil || !fd.Name.IsExported() {
			continue
		}
		if len(fd.Recv.List) != 1 || len(fd.Recv.List[0].Names) != 1 {
			continue // unnamed receiver cannot be dereferenced
		}
		recvIdent := fd.Recv.List[0].Names[0]
		recvObj := pass.TypesInfo.Defs[recvIdent]
		if recvObj == nil {
			continue
		}
		if _, ok := recvObj.Type().(*types.Pointer); !ok {
			continue // value receiver: a nil pointer can't reach it
		}
		typeName, ok := isObsNilSafe(recvObj.Type())
		if !ok {
			continue
		}
		if acc := firstUnguardedFieldAccess(pass, fd.Body, recvObj); acc != nil {
			pass.Reportf(acc.Pos(),
				"%s.%s accesses field %s before guarding the nil receiver; obs.%s must be nil-safe (add `if %s == nil { return ... }` first)",
				typeName, fd.Name.Name, fieldAccessName(acc), typeName, recvIdent.Name)
		}
	}
}

// firstUnguardedFieldAccess scans the method body's top-level
// statements in order. Once a statement of the form
// `if recv == nil { ...return }` (possibly `recv == nil || more` —
// short-circuit evaluation makes trailing field reads safe) has been
// seen, everything after is considered guarded. A receiver field
// access found before that point is returned.
func firstUnguardedFieldAccess(pass *Pass, body *ast.BlockStmt, recv types.Object) *ast.SelectorExpr {
	for _, stmt := range body.List {
		if ifStmt, ok := stmt.(*ast.IfStmt); ok && ifStmt.Init == nil {
			if guardsNil(pass, ifStmt, recv) {
				return nil // everything after the guard is safe
			}
		}
		if acc := receiverFieldAccess(pass, stmt, recv); acc != nil {
			return acc
		}
	}
	return nil
}

// guardsNil reports whether ifStmt is a nil guard for recv: the
// condition's short-circuit spine starts with `recv == nil` and the
// body unconditionally leaves the function.
func guardsNil(pass *Pass, ifStmt *ast.IfStmt, recv types.Object) bool {
	if !condStartsWithNilCheck(pass, ifStmt.Cond, recv) {
		return false
	}
	return blockTerminates(ifStmt.Body)
}

// condStartsWithNilCheck walks the left spine of a `||` chain looking
// for `recv == nil` as the first evaluated operand — the only position
// where later operands may legally touch receiver fields.
func condStartsWithNilCheck(pass *Pass, cond ast.Expr, recv types.Object) bool {
	cond = ast.Unparen(cond)
	be, ok := cond.(*ast.BinaryExpr)
	if !ok {
		return false
	}
	if be.Op == token.LOR {
		return condStartsWithNilCheck(pass, be.X, recv)
	}
	if be.Op != token.EQL {
		return false
	}
	lhs, rhs := ast.Unparen(be.X), ast.Unparen(be.Y)
	for _, pair := range [][2]ast.Expr{{lhs, rhs}, {rhs, lhs}} {
		if id, ok := pair[0].(*ast.Ident); ok && pass.TypesInfo.Uses[id] == recv && isNilIdent(pass, pair[1]) {
			return true
		}
	}
	return false
}

// blockTerminates reports whether the block's last statement
// unconditionally leaves the function.
func blockTerminates(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt:
		return true
	default:
		return terminates(last)
	}
}

// receiverFieldAccess finds a selector `recv.field` (through nested
// selectors like recv.mu.Lock) anywhere in stmt where field resolves
// to a struct field, excluding accesses syntactically inside a nested
// nil guard (an inner `if recv == nil` conditional) — only the
// top-level-ordering heuristic above decides guardedness, but the
// guard's own condition may contain post-check accesses.
func receiverFieldAccess(pass *Pass, stmt ast.Stmt, recv types.Object) *ast.SelectorExpr {
	var found *ast.SelectorExpr
	ast.Inspect(stmt, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		// Inside a guard-shaped if: the condition short-circuits, so
		// accesses after the nil check are fine; the body never runs
		// on nil. Skip the whole statement.
		if inner, ok := n.(*ast.IfStmt); ok && inner.Init == nil && guardsNil(pass, inner, recv) {
			return false
		}
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		base, ok := ast.Unparen(sel.X).(*ast.Ident)
		if !ok || pass.TypesInfo.Uses[base] != recv {
			return true
		}
		if s := pass.TypesInfo.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
			found = sel
			return false
		}
		return true
	})
	return found
}

func fieldAccessName(sel *ast.SelectorExpr) string {
	return sel.Sel.Name
}

// checkObsFieldAccess flags direct field access on nil-safe obs types
// from outside the obs package.
func checkObsFieldAccess(pass *Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		s := pass.TypesInfo.Selections[sel]
		if s == nil || s.Kind() != types.FieldVal {
			return true
		}
		if name, ok := isObsNilSafe(s.Recv()); ok {
			pass.Reportf(sel.Sel.Pos(),
				"direct access to obs.%s field %s outside internal/obs; use its nil-safe methods",
				name, sel.Sel.Name)
		}
		return true
	})
}
