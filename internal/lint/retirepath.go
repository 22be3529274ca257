package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// AnalyzerRetirePath proves that what a scope acquires on behalf of the
// ledgers or the network is accounted for on every path. Both obligations
// are CFG liveness queries on the chargeflow engine (escapesUndischarged):
// the value defined at the acquiring statement must be discharged on every
// path from there to function exit.
//
//   - Measured energy: each profiled section (x := prof.Profile(...)
//     returning a core.Breakdown) must be retired into the session/worker
//     ledgers, or handed to someone who will, whether the statement
//     succeeds, fails, or unwinds early — otherwise the device counters
//     advanced and the joules vanish between the per-query and per-session
//     views (the exact-partition invariant). The breakdown is discharged
//     when the whole value is passed to a call or returned, or when a field
//     of it is passed to a retire-family or Add call. The rule applies in
//     scopes that retire and in packages that define or import a Ledger
//     with an Add method; elsewhere a Profile call is a measurement
//     harness, not statement execution. A scope that does not retire
//     itself may also hand the breakdown to its enclosing function by
//     assigning a captured variable (walerr's closure-export rule).
//   - Connections: the result of a Dial* call with a Close method must be
//     closed (directly or in a deferred cleanup, the guard-flag
//     `defer func() { if !ok { c.Close() } }()` shape included), returned,
//     stored beyond the call, sent, or handed to a goroutine on every path.
//     Only the then-branch of the acquisition's own `err != nil` test is
//     exempt (same types.Object: the connection was never obtained), so a
//     shadowing `if err := handshake(nc); err != nil { return }` — the
//     client.Dial socket leak fixed in an earlier PR — is still a leak.
var AnalyzerRetirePath = &Analyzer{
	Name: "retirepath",
	Doc:  "profiled breakdowns must be retired or handed off, and Dial* connections closed or handed off, on every path",
	Run:  runRetirePath,
}

func runRetirePath(p *Pass) {
	ledgerPkg := pkgHasLedger(p)
	for _, f := range p.Pkg.Files {
		for _, fs := range funcScopes(f) {
			retires := scopeRetires(fs)
			inspectShallow(fs.body, func(n ast.Node) bool {
				if st, ok := n.(*ast.AssignStmt); ok && len(st.Rhs) == 1 {
					if ledgerPkg || retires {
						checkProfileRetired(p, fs, st, retires)
					}
					checkDialReleased(p, fs, st)
				}
				return true
			})
		}
	}
}

// pkgHasLedger reports whether the package defines or imports a type named
// Ledger with an Add method — the energy-accounting scope object.
func pkgHasLedger(p *Pass) bool {
	probe := func(pkg *types.Package) bool {
		tn, ok := pkg.Scope().Lookup("Ledger").(*types.TypeName)
		return ok && hasMethod(tn.Type(), "Add")
	}
	if probe(p.Pkg.Types) {
		return true
	}
	for _, imp := range p.Pkg.Types.Imports() {
		if probe(imp) {
			return true
		}
	}
	return false
}

// isRetireName reports whether a callee name retires energy into a ledger.
func isRetireName(name string) bool {
	return strings.Contains(strings.ToLower(name), "retire")
}

// scopeRetires reports whether the scope itself calls a retire-family
// function: it owns the accounting of everything it profiles.
func scopeRetires(fs funcScope) bool {
	found := false
	inspectShallow(fs.body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isRetireName(calleeName(call)) {
			found = true
		}
		return !found
	})
	return found
}

// checkProfileRetired applies the measured-energy obligation to one
// x := recv.Profile(...) assignment.
func checkProfileRetired(p *Pass, fs funcScope, st *ast.AssignStmt, retires bool) {
	call, ok := ast.Unparen(st.Rhs[0]).(*ast.CallExpr)
	if !ok || len(st.Lhs) != 1 {
		return
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); !ok || sel.Sel.Name != "Profile" {
		return
	}
	id, ok := ast.Unparen(st.Lhs[0]).(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	obj := p.Pkg.Info.ObjectOf(id)
	if obj == nil || !retires && capturedBy(fs, obj) {
		return
	}
	is := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && p.Pkg.Info.Uses[id] == obj
	}
	consumes := func(s ast.Stmt) bool {
		root := stmtEvalNode(s)
		if root == nil {
			return false
		}
		found := false
		ast.Inspect(root, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ReturnStmt:
				for _, r := range n.Results {
					found = found || is(r)
				}
			case *ast.CallExpr:
				retire := isRetireName(calleeName(n)) || calleeName(n) == "Add"
				for _, a := range n.Args {
					found = found || is(a) || retire && is(rootIdent(a))
				}
			}
			return !found
		})
		return found
	}
	if escapesUndischarged(p, fs, st, consumes) {
		p.Reportf(st.Pos(),
			"%s: profiled breakdown %q can reach function exit without being retired to the ledger; every path (success, error, early return) must account the measured energy",
			fs.name, obj.Name())
	}
}

// checkDialReleased applies the connection obligation to one
// c, err := DialX(...) assignment.
func checkDialReleased(p *Pass, fs funcScope, st *ast.AssignStmt) {
	call, ok := ast.Unparen(st.Rhs[0]).(*ast.CallExpr)
	if !ok || !strings.HasPrefix(calleeName(call), "Dial") {
		return
	}
	id, ok := st.Lhs[0].(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	conn := p.Pkg.Info.ObjectOf(id)
	if conn == nil || !closeable(conn.Type()) {
		return
	}
	// Aliases: closeable locals wrapping the connection keep it reachable.
	aliases := map[types.Object]bool{conn: true}
	mentions := func(n ast.Node) bool {
		found := false
		ast.Inspect(n, func(m ast.Node) bool {
			if id, ok := m.(*ast.Ident); ok && aliases[p.Pkg.Info.Uses[id]] {
				found = true
			}
			return !found
		})
		return found
	}
	// The then-branch of the acquisition's own err != nil test: nothing
	// was acquired there.
	exempt := map[ast.Stmt]bool{}
	var errObj types.Object
	if len(st.Lhs) > 1 {
		if e, ok := st.Lhs[len(st.Lhs)-1].(*ast.Ident); ok {
			errObj = p.Pkg.Info.ObjectOf(e)
		}
	}
	inspectShallow(fs.body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IfStmt:
			if errObj != nil && len(n.Body.List) > 0 && testsNonNil(p, n.Cond, errObj) {
				exempt[n.Body.List[0]] = true
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				rhs := n.Rhs[0] // x, y := f(conn) wraps through one call
				if len(n.Rhs) == len(n.Lhs) {
					rhs = n.Rhs[i]
				}
				if id, ok := lhs.(*ast.Ident); ok {
					if obj := p.Pkg.Info.ObjectOf(id); obj != nil && closeable(obj.Type()) && mentions(rhs) {
						aliases[obj] = true
					}
				}
			}
		}
		return true
	})
	releases := func(s ast.Stmt) bool {
		if exempt[s] {
			return true
		}
		switch s := s.(type) {
		case *ast.ReturnStmt, *ast.SendStmt, *ast.GoStmt:
			return mentions(s)
		case *ast.AssignStmt:
			for i, lhs := range s.Lhs {
				if _, local := lhs.(*ast.Ident); !local && i < len(s.Rhs) && mentions(s.Rhs[i]) {
					return true // stored into a field, index or deref
				}
			}
		}
		closed := false
		if root := stmtEvalNode(s); root != nil {
			ast.Inspect(root, func(n ast.Node) bool {
				if c, ok := n.(*ast.CallExpr); ok && calleeName(c) == "Close" {
					if sel, ok := ast.Unparen(c.Fun).(*ast.SelectorExpr); ok && mentions(sel.X) {
						closed = true
					}
				}
				return !closed
			})
		}
		return closed
	}
	if escapesUndischarged(p, fs, st, releases) {
		p.Reportf(st.Pos(),
			"%s: %s result %s can reach function exit without being closed, returned or stored (the client.Dial handshake-leak shape); close it on every path or guard with a deferred cleanup",
			fs.name, calleeName(call), id.Name)
	}
}

// closeable reports whether values of type t have a Close method.
func closeable(t types.Type) bool {
	m, _, _ := types.LookupFieldOrMethod(t, true, nil, "Close")
	_, ok := m.(*types.Func)
	return ok
}

// testsNonNil reports whether cond is `x != nil` (either order) for the
// given object.
func testsNonNil(p *Pass, cond ast.Expr, obj types.Object) bool {
	bin, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || bin.Op != token.NEQ {
		return false
	}
	is := func(e ast.Expr, want types.Object) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && p.Pkg.Info.Uses[id] == want
	}
	isNil := func(e ast.Expr) bool { return is(e, types.Universe.Lookup("nil")) }
	return is(bin.X, obj) && isNil(bin.Y) || is(bin.Y, obj) && isNil(bin.X)
}
