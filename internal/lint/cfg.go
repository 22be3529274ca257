package lint

import (
	"go/ast"
	"go/token"
)

// This file is the chargeflow dataflow engine's control-flow graph builder:
// a statement-level CFG over one function body, built from go/ast alone (no
// x/tools dependency, matching the module's zero-dependency go.mod). The
// graph is deliberately coarse — one node per statement, no basic-block
// merging — because every client analysis (chargepath, walerr, retirepath)
// asks path questions ("does a path from A to B avoid all nodes in S?"),
// and path existence is insensitive to block granularity.
//
// Conventions:
//   - entry and exit are synthetic nodes (stmt == nil).
//   - A node's successors are the statements that may execute next.
//   - return, panic(...) calls, and calls to the handful of well-known
//     terminating functions (os.Exit, log.Fatal*, t.Fatal*) edge to exit.
//   - break/continue/goto follow labels; an unresolvable goto edges to exit
//     (conservative: it can leave the region under analysis).
//   - Function literals are NOT descended into: a closure body is its own
//     scope with its own CFG. The DeferStmt / AssignStmt node that mentions
//     the literal still appears as an ordinary statement node.
//   - select/switch with no default conservatively keep the fall-through
//     edge (a case may not fire).

// cnode is one CFG node: a statement (or the synthetic entry/exit when stmt
// is nil).
type cnode struct {
	stmt  ast.Stmt
	succs []*cnode
}

// cfg is the control-flow graph of one function body.
type cfg struct {
	entry *cnode
	exit  *cnode
	// byStmt maps each statement to its node.
	byStmt map[ast.Stmt]*cnode
	// afterOf maps each For/Range statement to its synthetic after node —
	// the point control reaches when the loop exits normally. Clients use
	// it for charge-after-loop arguments ("every path from loop exit to
	// scope exit passes a charge").
	afterOf map[ast.Stmt]*cnode
	nodes   []*cnode
}

// loopFrame tracks the break/continue targets of the innermost loops during
// construction.
type loopFrame struct {
	label    string
	brk      *cnode // where break jumps
	cont     *cnode // where continue jumps
	isSwitch bool   // switch/select frames absorb unlabeled break only
}

// cfgBuilder carries construction state.
type cfgBuilder struct {
	g      *cfg
	frames []loopFrame
	labels map[string]*cnode // label -> first node of the labeled statement
	// pendingLabel is the label of a LabeledStmt currently being built; the
	// next loop/switch frame adopts it as its break/continue label.
	pendingLabel string
	// gotos records pending goto edges resolved after the walk (forward
	// gotos reference labels not yet built).
	gotos []pendingGoto
}

type pendingGoto struct {
	from  *cnode
	label string
}

// buildCFG constructs the CFG for one function body.
func buildCFG(body *ast.BlockStmt) *cfg {
	g := &cfg{byStmt: make(map[ast.Stmt]*cnode), afterOf: make(map[ast.Stmt]*cnode)}
	g.entry = &cnode{}
	g.exit = &cnode{}
	g.nodes = append(g.nodes, g.entry, g.exit)
	b := &cfgBuilder{g: g, labels: make(map[string]*cnode)}
	after := b.block(body, g.entry)
	b.edge(after, g.exit)
	for _, pg := range b.gotos {
		if target := b.labels[pg.label]; target != nil {
			b.edge(pg.from, target)
		} else {
			b.edge(pg.from, g.exit)
		}
	}
	return g
}

// node allocates (or returns) the CFG node for a statement.
func (b *cfgBuilder) node(s ast.Stmt) *cnode {
	if n, ok := b.g.byStmt[s]; ok {
		return n
	}
	n := &cnode{stmt: s}
	b.g.byStmt[s] = n
	b.g.nodes = append(b.g.nodes, n)
	return n
}

// edge appends an edge from -> to (nil-safe: a nil from means the previous
// statement never falls through).
func (b *cfgBuilder) edge(from, to *cnode) {
	if from == nil || to == nil {
		return
	}
	for _, s := range from.succs {
		if s == to {
			return
		}
	}
	from.succs = append(from.succs, to)
}

// block wires a statement list after pred and returns the node that falls
// through to whatever follows the block (nil when the block always
// transfers control elsewhere — return/break/panic on every path).
func (b *cfgBuilder) block(blk *ast.BlockStmt, pred *cnode) *cnode {
	cur := pred
	for _, s := range blk.List {
		cur = b.stmt(s, cur)
		if cur == nil {
			// Unreachable code after a terminator: still build its nodes so
			// byStmt is total, but leave it disconnected.
			cur = nil
			// Build the rest without a predecessor.
			// (go vet flags genuinely unreachable code; keep going.)
		}
	}
	return cur
}

// stmt wires one statement after pred and returns its fall-through node
// (nil when control never falls through).
func (b *cfgBuilder) stmt(s ast.Stmt, pred *cnode) *cnode {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return b.block(s, pred)

	case *ast.IfStmt:
		if s.Init != nil {
			pred = b.stmt(s.Init, pred)
		}
		cond := b.node(s)
		b.edge(pred, cond)
		thenEnd := b.block(s.Body, cond)
		join := &cnode{} // synthetic join so callers get a single node
		b.g.nodes = append(b.g.nodes, join)
		b.edge(thenEnd, join)
		if s.Else != nil {
			elseEnd := b.stmt(s.Else, cond)
			b.edge(elseEnd, join)
		} else {
			b.edge(cond, join)
		}
		if len(join.succs) == 0 && thenEnd == nil && s.Else != nil {
			// Both branches terminate; no fall-through. The join node may
			// still have no predecessors — report no fall-through when
			// nothing reaches it.
			if !reachableInto(join, cond) {
				return nil
			}
		}
		return join

	case *ast.ForStmt:
		if s.Init != nil {
			pred = b.stmt(s.Init, pred)
		}
		head := b.node(s)
		b.edge(pred, head)
		after := &cnode{}
		b.g.nodes = append(b.g.nodes, after)
		b.g.afterOf[s] = after
		if s.Cond != nil {
			b.edge(head, after) // condition false: skip the loop
		}
		var contTarget *cnode
		if s.Post != nil {
			contTarget = b.node(s.Post)
		} else {
			contTarget = head
		}
		b.push(loopFrame{label: b.pendingLabel, brk: after, cont: contTarget})
		bodyEnd := b.block(s.Body, head)
		b.pop()
		if s.Post != nil {
			b.edge(bodyEnd, b.node(s.Post))
			b.edge(b.node(s.Post), head)
		} else {
			b.edge(bodyEnd, head)
		}
		if s.Cond == nil && len(after.succs) == 0 && !hasPred(b.g, after) {
			// for {} with no break: nothing follows.
			return nil
		}
		return after

	case *ast.RangeStmt:
		head := b.node(s)
		b.edge(pred, head)
		after := &cnode{}
		b.g.nodes = append(b.g.nodes, after)
		b.g.afterOf[s] = after
		b.edge(head, after) // empty collection: skip the loop
		b.push(loopFrame{label: b.pendingLabel, brk: after, cont: head})
		bodyEnd := b.block(s.Body, head)
		b.pop()
		b.edge(bodyEnd, head)
		return after

	case *ast.SwitchStmt, *ast.TypeSwitchStmt:
		var init ast.Stmt
		var body *ast.BlockStmt
		switch sw := s.(type) {
		case *ast.SwitchStmt:
			init, body = sw.Init, sw.Body
		case *ast.TypeSwitchStmt:
			init, body = sw.Init, sw.Body
		}
		if init != nil {
			pred = b.stmt(init, pred)
		}
		head := b.node(s)
		b.edge(pred, head)
		after := &cnode{}
		b.g.nodes = append(b.g.nodes, after)
		b.push(loopFrame{label: b.pendingLabel, brk: after, isSwitch: true})
		hasDefault := false
		var clauseEnds []*cnode
		var clauses []*ast.CaseClause
		for _, c := range body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				clauses = append(clauses, cc)
				if cc.List == nil {
					hasDefault = true
				}
			}
		}
		for i, cc := range clauses {
			clauseBlk := &ast.BlockStmt{List: cc.Body}
			end := b.block(clauseBlk, head)
			// fallthrough: edge into the next clause's first statement.
			if ft := endsInFallthrough(cc.Body); ft && i+1 < len(clauses) {
				next := clauses[i+1]
				if len(next.Body) > 0 {
					b.edge(end, b.node(next.Body[0]))
					end = nil
				}
			}
			clauseEnds = append(clauseEnds, end)
		}
		b.pop()
		for _, end := range clauseEnds {
			b.edge(end, after)
		}
		if !hasDefault {
			b.edge(head, after)
		}
		if len(after.succs) == 0 && !hasPred(b.g, after) {
			return nil
		}
		return after

	case *ast.SelectStmt:
		head := b.node(s)
		b.edge(pred, head)
		after := &cnode{}
		b.g.nodes = append(b.g.nodes, after)
		b.push(loopFrame{label: b.pendingLabel, brk: after, isSwitch: true})
		hasDefault := false
		for _, c := range s.Body.List {
			cc, ok := c.(*ast.CommClause)
			if !ok {
				continue
			}
			if cc.Comm == nil {
				hasDefault = true
			}
			end := b.block(&ast.BlockStmt{List: cc.Body}, head)
			b.edge(end, after)
		}
		b.pop()
		if !hasDefault {
			// A select without default blocks until a case fires; every
			// path goes through some case, so no head->after edge. But a
			// select with zero cases blocks forever.
			if len(s.Body.List) == 0 {
				return nil
			}
		} else {
			// default exists: already wired via its clause.
			_ = hasDefault
		}
		if len(after.succs) == 0 && !hasPred(b.g, after) {
			return nil
		}
		return after

	case *ast.LabeledStmt:
		// Record the label, then build the labeled statement. The label
		// node is the labeled statement's own node.
		saved := b.pendingLabel
		b.pendingLabel = s.Label.Name
		// Pre-allocate the target node so backward gotos resolve.
		var first *cnode
		switch s.Stmt.(type) {
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			first = b.node(s.Stmt)
		default:
			first = b.node(s.Stmt)
		}
		b.labels[s.Label.Name] = first
		out := b.stmt(s.Stmt, pred)
		b.pendingLabel = saved
		return out

	case *ast.BranchStmt:
		n := b.node(s)
		b.edge(pred, n)
		switch s.Tok {
		case token.BREAK:
			if f := b.frame(s.Label, true); f != nil {
				b.edge(n, f.brk)
			} else {
				b.edge(n, b.g.exit)
			}
		case token.CONTINUE:
			if f := b.frame(s.Label, false); f != nil {
				b.edge(n, f.cont)
			} else {
				b.edge(n, b.g.exit)
			}
		case token.GOTO:
			if s.Label != nil {
				b.gotos = append(b.gotos, pendingGoto{from: n, label: s.Label.Name})
			} else {
				b.edge(n, b.g.exit)
			}
		case token.FALLTHROUGH:
			// Handled by the switch clause wiring; treat as fall-through.
			return n
		}
		return nil

	case *ast.ReturnStmt:
		n := b.node(s)
		b.edge(pred, n)
		b.edge(n, b.g.exit)
		return nil

	case *ast.ExprStmt:
		n := b.node(s)
		b.edge(pred, n)
		if isTerminalCall(s.X) {
			b.edge(n, b.g.exit)
			return nil
		}
		return n

	default:
		// Assign, Decl, Defer, Go, Send, IncDec, Empty: straight-line.
		n := b.node(s)
		b.edge(pred, n)
		return n
	}
}

// pendingLabel is consumed by the next loop/switch the builder enters.
func (b *cfgBuilder) push(f loopFrame) {
	b.frames = append(b.frames, f)
	b.pendingLabel = ""
}

func (b *cfgBuilder) pop() { b.frames = b.frames[:len(b.frames)-1] }

// frame finds the branch target frame: the innermost loop (skipping switch
// frames for continue), or the labeled one.
func (b *cfgBuilder) frame(label *ast.Ident, isBreak bool) *loopFrame {
	for i := len(b.frames) - 1; i >= 0; i-- {
		f := &b.frames[i]
		if label != nil {
			if f.label == label.Name {
				return f
			}
			continue
		}
		if !isBreak && f.isSwitch {
			continue
		}
		return f
	}
	return nil
}

// endsInFallthrough reports whether a case body's last statement is
// fallthrough.
func endsInFallthrough(body []ast.Stmt) bool {
	if len(body) == 0 {
		return false
	}
	br, ok := body[len(body)-1].(*ast.BranchStmt)
	return ok && br.Tok == token.FALLTHROUGH
}

// isTerminalCall reports whether the expression is a call that never
// returns: panic(...), os.Exit, log.Fatal*, runtime.Goexit, t.Fatal/Fatalf/
// Skip (testing helpers marked by name).
func isTerminalCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		name := fun.Sel.Name
		switch name {
		case "Exit", "Goexit", "Fatal", "Fatalf", "Fatalln", "FailNow", "SkipNow":
			return true
		}
	}
	return false
}

// hasPred reports whether any node in g has an edge into n (entry aside).
func hasPred(g *cfg, n *cnode) bool {
	for _, m := range g.nodes {
		for _, s := range m.succs {
			if s == n {
				return true
			}
		}
	}
	return false
}

// reachableInto reports whether n is reachable from start by BFS.
func reachableInto(n, start *cnode) bool {
	seen := map[*cnode]bool{start: true}
	queue := []*cnode{start}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur == n {
			return true
		}
		for _, s := range cur.succs {
			if !seen[s] {
				seen[s] = true
				queue = append(queue, s)
			}
		}
	}
	return false
}
