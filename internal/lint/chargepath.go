package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// AnalyzerChargePath proves energy-attribution soundness over the executor:
// every loop that advances tuples, batches, pages or version chains in the
// hot packages must charge the energy meter on every iteration path — the
// invariant the paper's micro-measurements depend on, since an uncharged
// loop silently attributes its traffic to the wrong component (or to
// nothing). The analysis runs on the chargeflow engine (cfg.go,
// dataflow.go, summary.go): statement-level CFGs plus an interprocedural
// may/must charge summary, so helpers that charge on behalf of callers
// (vec.Metered sections, chargeKernel, Device.Charge*) satisfy the
// obligation of the loops that call them.
//
// Four rules, the first three in decreasing specificity:
//
//  1. Pull loops (the body pulls a batch via a Next/NextBatch call): no
//     iteration that consumes a pulled batch may complete without touching
//     the meter (a charge or a cancellation poll). This catches the
//     classic "empty batch: continue" fast path skipping Poll.
//
//  2. Element loops (classified by what they iterate: element slices,
//     bounded windows, Len/Cap-bounded counters, raw cursors,
//     batch/vector payloads, version-chain hops): some charge must cover
//     each iteration. The charge may be in the body (may-charge on every
//     completing path, or a touch on every path plus a lexical charge),
//     guaranteed on every path from an enclosing anchor to the loop
//     (batch-granular charging before a per-element loop), or guaranteed
//     between loop exit and the end of the enclosing iteration (charging
//     after the loop, chargeKernel style).
//
//  3. Vectorized dispatch (package vec only): element loops must also be
//     covered by a per-batch dispatch charge (Ctx.TupleCost) — in the
//     body, dominating the loop from an anchor, or guaranteed after it
//     before the enclosing iteration completes. Payload charges alone do
//     not pay the interpretation overhead the model attributes per batch.
//
//  4. Cancellation (packages exec, vec, engine): raw-cursor loops
//     (Next/Valid/NextBatch on a concrete receiver), loops over
//     materialized []Row, and sort.Slice/SliceStable comparator closures
//     must poll (TupleCost, Poll or PollEvery) — in the body, or on every
//     path from an enclosing per-batch anchor. A charge is not a poll:
//     without one a statement timeout cannot interrupt the loop. Child
//     operators are pulled through an Operator interface and poll on
//     their own.
//
// Plus one boundary rule: a Next method returning (*Batch, error) that
// emits via element loops without pulling from a child must poll
// cancellation directly (Ctx.Poll/PollEvery) — emit-only operators are the
// top of the pull chain and nobody polls on their behalf.
//
// Setup-only loops (allocation, precomputation whose cost is charged
// elsewhere) and host-side passes are waived with //lint:nocharge on or
// above the loop.
var AnalyzerChargePath = &Analyzer{
	Name:      "chargepath",
	Doc:       "executor loops advancing tuples/batches/pages/version chains must charge the energy meter on every path; cursor/row loops and sort comparators must poll cancellation",
	WaiverKey: "nocharge",
	Run:       runChargePath,
}

// chargePathPackages are the import-path basenames under analysis, mapped
// to whether the package owns cancellation polling (rule 4). Below the
// executor (btree, storage, txn) there is no Ctx to poll: the executor loop
// driving the cursor polls on their behalf.
var chargePathPackages = map[string]bool{
	"exec": true, "vec": true, "engine": true,
	"btree": false, "storage": false, "txn": false,
}

// elemTypeNames are the named types whose slices/values mark a loop as
// advancing elements of the data plane.
var elemTypeNames = map[string]bool{
	"Row": true, "Version": true, "Record": true,
	"Batch": true, "Vector": true, "Page": true,
}

func pathBase(p string) string {
	if i := strings.LastIndex(p, "/"); i >= 0 {
		return p[i+1:]
	}
	return p
}

func runChargePath(p *Pass) {
	polls, ok := chargePathPackages[pathBase(p.Pkg.Path)]
	if !ok {
		return
	}
	sum := p.Prog.chargeSummary()
	isVec := pathBase(p.Pkg.Path) == "vec"
	for _, f := range p.Pkg.Files {
		for _, fs := range funcScopes(f) {
			checkChargeScope(p, sum, fs, isVec, polls)
			if polls {
				checkComparators(p, sum, fs)
			}
		}
		if isVec {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					checkEmitBoundary(p, fd)
				}
			}
		}
	}
}

// checkChargeScope applies the pull/element/dispatch rules to every loop in
// one function scope.
func checkChargeScope(p *Pass, sum *summary, fs funcScope, isVec, polls bool) {
	var loops []ast.Stmt
	inspectShallow(fs.body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt:
			loops = append(loops, n)
		case *ast.RangeStmt:
			loops = append(loops, n)
		}
		return true
	})
	if len(loops) == 0 {
		return
	}
	g := p.Prog.cfgOf(fs.body)

	mayCharge := func(st ast.Stmt) bool { return sum.stmtFacts(p.Pkg, st).charges }
	touch := func(st ast.Stmt) bool {
		f := sum.stmtFacts(p.Pkg, st)
		return f.charges || f.polls
	}
	mustCharge := func(st ast.Stmt) bool { return sum.stmtMustCharges(p.Pkg, st) }
	mustDispatch := func(st ast.Stmt) bool { return sum.stmtMustDispatches(p.Pkg, st) }
	mayPoll := func(st ast.Stmt) bool { return sum.stmtFacts(p.Pkg, st).polls }
	mustPoll := func(st ast.Stmt) bool { return sum.stmtMustPolls(p.Pkg, st) }

	counts := countVarObjects(p, fs.body)

	for _, loop := range loops {
		// Anchors: enclosing loop heads, innermost first, then scope entry.
		var anchors []*cnode
		var iterEnd *cnode = g.exit
		for _, outer := range enclosingLoops(loops, loop) {
			if n := g.byStmt[outer]; n != nil {
				anchors = append(anchors, n)
				if iterEnd == g.exit {
					iterEnd = n // innermost enclosing head
				}
			}
		}
		anchors = append(anchors, g.entry)
		loopHead := g.byStmt[loop]
		if loopHead == nil {
			continue
		}

		// dominated: the fact is guaranteed on every path from an enclosing
		// anchor to the loop (batch-granular, before a per-element loop).
		dominated := func(must stmtPred) bool {
			for _, a := range anchors {
				if guaranteedOn(a, loopHead, must) {
					return true
				}
			}
			return false
		}
		// afterLoop: the fact is guaranteed between loop exit and the end of
		// the enclosing iteration (or scope exit), chargeKernel style.
		afterLoop := func(must stmtPred) bool {
			after := g.afterOf[loop]
			return after != nil && !avoidSearch(after, map[*cnode]bool{iterEnd: true, g.exit: true}, must)
		}

		var kind string
		if pulls := pullStmts(p, g, loop); len(pulls) > 0 {
			// Rule 1: pull loops.
			pullPred := func(st ast.Stmt) bool { return pulls[st] }
			if iterationCompletes(g, loop, pullPred, touch) {
				p.Reportf(loop.Pos(),
					"%s: loop can pull a batch and complete the iteration without charging or polling the meter; charge or Poll on every path (or waive with //lint:nocharge)",
					fs.name)
				continue
			}
			kind = "batch-pulling cursor loop"
		} else {
			if kind = classifyElemLoop(p, loop, counts); kind == "" {
				continue
			}
			// Rule 2: some charge covers each iteration: the body charges
			// on every completing path, or touches on every path and
			// charges somewhere, or a charge dominates or follows the loop.
			if iterationCompletes(g, loop, nil, mayCharge) &&
				(iterationCompletes(g, loop, nil, touch) || !bodyHasStmt(g, loop, mayCharge)) &&
				!dominated(mustCharge) && !afterLoop(mustCharge) {
				p.Reportf(loop.Pos(),
					"%s: %s can complete an iteration without charging the meter, and no charge is guaranteed before or after the loop (waive setup-only loops with //lint:nocharge)",
					fs.name, kind)
				continue
			}
			// Rule 3: vectorized loops also need the per-batch dispatch.
			if isVec && !bodyHasStmt(g, loop, mustDispatch) && !dominated(mustDispatch) && !afterLoop(mustDispatch) {
				p.Reportf(loop.Pos(),
					"%s: %s has no per-batch dispatch charge: no Ctx.TupleCost in the body, dominating the loop, or guaranteed after it (waive with //lint:nocharge)",
					fs.name, kind)
				continue
			}
		}

		// Rule 4: raw-cursor and row loops poll cancellation, in the body
		// or on every path from a per-batch anchor.
		if polls && pollLoop(p, loop) && !bodyHasStmt(g, loop, mayPoll) && !dominated(mustPoll) {
			p.Reportf(loop.Pos(),
				"%s: %s never polls cancellation: call Ctx.TupleCost, Ctx.Poll or Ctx.PollEvery in the body or on every path from the enclosing per-batch anchor (waive with //lint:nocharge)",
				fs.name, kind)
		}
	}
}

// enclosingLoops returns the loops (from the same scope's loop list) that
// lexically enclose target, innermost first.
func enclosingLoops(loops []ast.Stmt, target ast.Stmt) []ast.Stmt {
	var out []ast.Stmt
	for _, l := range loops {
		if l != target && l.Pos() <= target.Pos() && target.End() <= l.End() {
			out = append(out, l)
		}
	}
	// Innermost = latest starting position.
	for i := 0; i < len(out); i++ {
		for j := i + 1; j < len(out); j++ {
			if out[j].Pos() > out[i].Pos() {
				out[i], out[j] = out[j], out[i]
			}
		}
	}
	return out
}

// bodyHasStmt reports whether any statement inside the loop body satisfies
// the predicate.
func bodyHasStmt(g *cfg, loop ast.Stmt, pred stmtPred) bool {
	for n := range g.loopBodyNodes(loop) {
		if n.matches(pred) {
			return true
		}
	}
	return false
}

// pullStmts returns the loop-body statements that pull a batch from a child
// operator: a call to a method named Next/NextBatch whose first result is a
// *Batch or a []Row.
func pullStmts(p *Pass, g *cfg, loop ast.Stmt) map[ast.Stmt]bool {
	out := map[ast.Stmt]bool{}
	for n := range g.loopBodyNodes(loop) {
		if n.stmt == nil {
			continue
		}
		if stmtHasPull(p, n.stmt) {
			out[n.stmt] = true
		}
	}
	return out
}

func stmtHasPull(p *Pass, st ast.Stmt) bool {
	found := false
	ast.Inspect(st, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Next" && sel.Sel.Name != "NextBatch") {
			return true
		}
		if isBatchPull(p.TypeOf(call)) {
			found = true
			return false
		}
		return true
	})
	return found
}

// isBatchPull reports whether a call-result type delivers a batch of
// tuples: first result *Batch (any package's named Batch) or []Row.
func isBatchPull(t types.Type) bool {
	if t == nil {
		return false
	}
	if tup, ok := t.(*types.Tuple); ok {
		if tup.Len() == 0 {
			return false
		}
		t = tup.At(0).Type()
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	} else if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	switch tt := t.(type) {
	case *types.Named:
		if tt.Obj().Name() == "Batch" {
			return true
		}
		if sl, ok := tt.Underlying().(*types.Slice); ok {
			return isNamedElem(sl.Elem(), "Row")
		}
	case *types.Slice:
		return isNamedElem(tt.Elem(), "Row")
	}
	return false
}

func isNamedElem(t types.Type, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == name
}

// namedElemType reports whether t (after stripping one pointer) is one of
// the data-plane element types.
func namedElemType(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && elemTypeNames[named.Obj().Name()]
}

// elemSliceType reports whether t is a slice/array of data-plane elements.
func elemSliceType(t types.Type) bool {
	if t == nil {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Slice:
		return namedElemType(u.Elem())
	case *types.Array:
		return namedElemType(u.Elem())
	}
	return false
}

// countVarObjects collects the variables in this scope assigned from an
// element count: x.Len() / x.Cap() on a Batch or Vector, or len() of an
// element slice. Loops bounded by these variables iterate per element.
func countVarObjects(p *Pass, body *ast.BlockStmt) map[types.Object]bool {
	out := map[types.Object]bool{}
	inspectShallow(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			if !isCountCall(p, rhs) {
				continue
			}
			if id, ok := as.Lhs[i].(*ast.Ident); ok {
				if obj := p.Pkg.Info.Defs[id]; obj != nil {
					out[obj] = true
				} else if obj := p.Pkg.Info.Uses[id]; obj != nil {
					out[obj] = true
				}
			}
		}
		return true
	})
	return out
}

// isCountCall reports whether e is an element-count expression.
func isCountCall(p *Pass, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fun.Name == "len" && len(call.Args) == 1 {
			return elemSliceType(p.TypeOf(call.Args[0]))
		}
	case *ast.SelectorExpr:
		if fun.Sel.Name == "Len" || fun.Sel.Name == "Cap" {
			return namedElemType(p.TypeOf(fun.X))
		}
	}
	return false
}

// classifyElemLoop decides whether the loop advances data-plane elements
// and returns a short description for diagnostics ("" = not classified).
func classifyElemLoop(p *Pass, loop ast.Stmt, counts map[types.Object]bool) string {
	switch l := loop.(type) {
	case *ast.RangeStmt:
		if t := p.TypeOf(l.X); elemSliceType(t) {
			return "loop over " + types.TypeString(t, types.RelativeTo(p.Pkg.Types))
		}
		if se, ok := ast.Unparen(l.X).(*ast.SliceExpr); ok && se.Low != nil && se.High != nil {
			return "loop over window " + exprString(se.X) + "[lo:hi]"
		}
	case *ast.ForStmt:
		if l.Cond != nil && condBoundByCount(p, l.Cond, counts) {
			return "element-count bounded loop"
		}
	}
	if rawCursorLoop(p, loop) {
		return "raw-cursor loop"
	}
	// Body-shape triggers, shared by both loop forms.
	body := loopBody(loop)
	if body == nil {
		return ""
	}
	desc := ""
	inspectShallow(body, func(n ast.Node) bool {
		if desc != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.IndexExpr:
			if elemSliceType(p.TypeOf(n.X)) {
				desc = "loop indexing " + exprString(n.X)
			}
		case ast.Expr:
			if namedElemType(p.TypeOf(n)) {
				desc = "loop touching batch/vector data"
			}
		case *ast.AssignStmt:
			if isChainHop(n) {
				desc = "version-chain walk"
			}
		}
		return true
	})
	return desc
}

// pollLoop reports whether the loop walks a tuple stream a statement
// timeout must be able to interrupt: a raw cursor, or a materialized row
// set.
func pollLoop(p *Pass, loop ast.Stmt) bool {
	if rs, ok := loop.(*ast.RangeStmt); ok && p.TypeOf(rs.X) != nil {
		if sl, ok := p.TypeOf(rs.X).Underlying().(*types.Slice); ok && isNamedElem(sl.Elem(), "Row") {
			return true
		}
	}
	return rawCursorLoop(p, loop)
}

// rawCursorLoop reports whether the loop's condition or body advances a raw
// cursor: Next/Valid/NextBatch on a concrete receiver (storage scanner,
// btree iterator, batch scanner). Child operators are pulled through an
// Operator interface and poll on their own.
func rawCursorLoop(p *Pass, loop ast.Stmt) bool {
	found := false
	visit := func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				switch sel.Sel.Name {
				case "Next", "Valid", "NextBatch":
					t := p.TypeOf(sel.X)
					found = t != nil && !types.IsInterface(t)
				}
			}
		}
		return !found
	}
	if f, ok := loop.(*ast.ForStmt); ok && f.Cond != nil {
		ast.Inspect(f.Cond, visit)
	}
	if !found {
		inspectShallow(loopBody(loop), visit)
	}
	return found
}

// checkComparators applies the poll rule to sort.Slice/SliceStable
// comparator closures: sorting n tuples is O(n log n) comparator calls with
// no tuple boundary, the longest uncancellable stretch a query can have.
func checkComparators(p *Pass, sum *summary, fs funcScope) {
	inspectShallow(fs.body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		f, ok := calleeObject(p.Pkg, call).(*types.Func)
		if !ok || f.Pkg() == nil || f.Pkg().Path() != "sort" || (f.Name() != "Slice" && f.Name() != "SliceStable") {
			return true
		}
		for _, arg := range call.Args {
			lit, ok := arg.(*ast.FuncLit)
			if !ok {
				continue
			}
			polled := false
			ast.Inspect(lit.Body, func(m ast.Node) bool {
				if c, ok := m.(*ast.CallExpr); ok && sum.callFacts(p.Pkg, c).polls {
					polled = true
				}
				return !polled
			})
			if !polled {
				p.Reportf(call.Pos(),
					"%s: sort comparator never polls cancellation: a large sort cannot be timed out; call Ctx.Poll in the less func (waive with //lint:nocharge)",
					fs.name)
			}
		}
		return true
	})
}

func loopBody(loop ast.Stmt) *ast.BlockStmt {
	switch l := loop.(type) {
	case *ast.ForStmt:
		return l.Body
	case *ast.RangeStmt:
		return l.Body
	}
	return nil
}

// condBoundByCount reports whether the loop condition is bounded by an
// element count: a count call inline, or a variable assigned from one.
func condBoundByCount(p *Pass, cond ast.Expr, counts map[types.Object]bool) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if isCountCall(p, n) {
				found = true
				return false
			}
		case *ast.Ident:
			if obj := p.Pkg.Info.Uses[n]; obj != nil && counts[obj] {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// isChainHop matches x = <selector/index path rooted at x> — walking a
// version chain or an intrusive list.
func isChainHop(as *ast.AssignStmt) bool {
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return false
	}
	lhs, ok := as.Lhs[0].(*ast.Ident)
	if !ok {
		return false
	}
	root := rootIdent(as.Rhs[0])
	if root == nil || root.Name != lhs.Name {
		return false
	}
	// Must actually traverse (not a self-assignment).
	_, isIdent := ast.Unparen(as.Rhs[0]).(*ast.Ident)
	return !isIdent
}

func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch t := ast.Unparen(e).(type) {
		case *ast.Ident:
			return t
		case *ast.SelectorExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		default:
			return nil
		}
	}
}

// checkEmitBoundary enforces the boundary rule: an emit-only Next method
// (returns (*Batch, error), loops, never pulls from a child) must poll
// cancellation directly — it is the top of the pull chain.
func checkEmitBoundary(p *Pass, fd *ast.FuncDecl) {
	if fd.Recv == nil || fd.Body == nil || fd.Name.Name != "Next" {
		return
	}
	if fd.Type.Results == nil || len(fd.Type.Results.List) != 2 {
		return
	}
	if !isBatchPull(p.TypeOf(fd.Type.Results.List[0].Type)) {
		return
	}
	hasLoop, hasPull, hasPoll := false, false, false
	inspectShallow(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			hasLoop = true
		case ast.Stmt:
			if stmtHasPull(p, n) {
				hasPull = true
			}
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
				if sel.Sel.Name == "Poll" || sel.Sel.Name == "PollEvery" {
					hasPoll = true
				}
			}
		}
		return true
	})
	if hasLoop && !hasPull && !hasPoll {
		p.Reportf(fd.Name.Pos(),
			"%s.Next emits batches without pulling from a child and never polls cancellation; call Ctx.Poll or Ctx.PollEvery at the emit boundary",
			recvTypeName(fd))
	}
}

func recvTypeName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return "?"
	}
	t := fd.Recv.List[0].Type
	if st, ok := t.(*ast.StarExpr); ok {
		t = st.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return exprString(t)
}
