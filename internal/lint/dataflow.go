package lint

import (
	"go/ast"
	"go/types"
)

// This file holds the chargeflow engine's path queries. Every client
// analyzer reduces its soundness rule to one of two reachability questions
// over the statement-level CFG in cfg.go:
//
//   - avoidSearch: does a path exist from one node to a goal set that
//     avoids every node in a fact set? ("can this loop iteration complete
//     without charging the meter", "can this error value reach function
//     exit without being read")
//   - guaranteedOn: is a fact set hit on EVERY path from A to B? (the dual
//     of avoidSearch, used for charge-before-loop and charge-after-loop
//     arguments)
//
// Node predicates are expressed as functions over statements, so analyzers
// stay in AST vocabulary and the engine stays generic.

// stmtPred classifies CFG nodes by their statement. Synthetic nodes (entry,
// exit, joins) never match.
type stmtPred func(ast.Stmt) bool

// matches applies a predicate to a node.
func (n *cnode) matches(p stmtPred) bool {
	return n.stmt != nil && p(n.stmt)
}

// avoidSearch reports whether some path exists from `from` (exclusive) to
// any node in `goals` that passes through no node matching `avoid`. Goal
// nodes themselves are tested before the avoid predicate: reaching a goal
// wins even if the goal statement also matches avoid.
func avoidSearch(from *cnode, goals map[*cnode]bool, avoid stmtPred) bool {
	seen := map[*cnode]bool{}
	queue := []*cnode{}
	push := func(n *cnode) bool {
		// Returns true when the search is done (goal reached).
		if seen[n] {
			return false
		}
		seen[n] = true
		if goals[n] {
			return true
		}
		if n.matches(avoid) {
			return false // blocked: do not expand
		}
		queue = append(queue, n)
		return false
	}
	for _, s := range from.succs {
		if push(s) {
			return true
		}
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, s := range cur.succs {
			if push(s) {
				return true
			}
		}
	}
	return false
}

// guaranteedOn reports whether every path from `from` (exclusive) to `to`
// passes through a node matching `fact`. It is the negation of an avoid
// search with `to` as the only goal. When `to` is unreachable from `from`
// it returns true vacuously.
func guaranteedOn(from, to *cnode, fact stmtPred) bool {
	return !avoidSearch(from, map[*cnode]bool{to: true}, fact)
}

// loopBodyNodes returns the nodes lexically inside the loop statement's
// body (and, for a ForStmt, its post statement) — the statements one
// iteration executes. The loop head itself is excluded.
func (g *cfg) loopBodyNodes(loop ast.Stmt) map[*cnode]bool {
	var body *ast.BlockStmt
	var post ast.Stmt
	switch l := loop.(type) {
	case *ast.ForStmt:
		body, post = l.Body, l.Post
	case *ast.RangeStmt:
		body = l.Body
	default:
		return nil
	}
	out := map[*cnode]bool{}
	mark := func(n ast.Node) {
		ast.Inspect(n, func(m ast.Node) bool {
			if s, ok := m.(ast.Stmt); ok {
				if cn := g.byStmt[s]; cn != nil {
					out[cn] = true
				}
			}
			// Closures are separate scopes, but their defining statement
			// is already marked; do not descend.
			_, isLit := m.(*ast.FuncLit)
			return !isLit
		})
	}
	mark(body)
	if post != nil {
		mark(post)
	}
	return out
}

// iterationCompletes reports whether an iteration of the loop can run from
// its head back to its head while avoiding every node matching `fact`, and
// while passing through at least one node matching `mustPass` (pass nil to
// accept any completing path). This is the chargepath core question:
// "can one full trip around this loop do its work without charging".
//
// The search walks only nodes inside the loop body (so paths that break
// out of the loop do not count as completed iterations) plus the head as
// the completion goal.
func iterationCompletes(g *cfg, loop ast.Stmt, mustPass, fact stmtPred) bool {
	head := g.byStmt[loop]
	if head == nil {
		return false
	}
	body := g.loopBodyNodes(loop)
	// State: (node, passedMustPass). BFS over at most 2x body nodes.
	type state struct {
		n      *cnode
		passed bool
	}
	start := state{head, mustPass == nil}
	seen := map[state]bool{start: true}
	queue := []state{start}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, s := range cur.n.succs {
			// Completing the iteration: back at the head.
			if s == head {
				if cur.passed {
					return true
				}
				continue
			}
			if !body[s] && s.stmt != nil {
				continue // left the loop (break/return path)
			}
			if s.matches(fact) {
				continue // iteration touched a fact node: this path is fine
			}
			passed := cur.passed || (mustPass != nil && s.matches(mustPass))
			// Synthetic join nodes inside the body flow through; joins
			// outside (the loop's after node) have stmt==nil too — they
			// are excluded because their successors leave the body. Guard:
			// only expand synthetic nodes whose successors can still reach
			// the head through body nodes (cheap approximation: expand
			// them, the body check above stops real escapes at the next
			// concrete statement).
			st := state{s, passed}
			if !seen[st] {
				seen[st] = true
				queue = append(queue, st)
			}
		}
	}
	return false
}

// escapesUndischarged is the liveness obligation shared by walerr and both
// retirepath obligations (breakdowns, Dial* connections): the value
// defined at def must be discharged (read, retired, closed, handed off) on
// every path to function exit. It reports whether some path from def
// reaches exit through no statement other than def itself that satisfies
// discharges.
func escapesUndischarged(p *Pass, fs funcScope, def ast.Stmt, discharges stmtPred) bool {
	g := p.Prog.cfgOf(fs.body)
	n := g.byStmt[def]
	if n == nil {
		return false
	}
	return avoidSearch(n, map[*cnode]bool{g.exit: true}, func(s ast.Stmt) bool {
		return s != def && discharges(s)
	})
}

// capturedBy reports whether obj is declared outside the scope: a variable
// a closure captures from its enclosing function. Assigning one hands the
// value to the enclosing scope by construction.
func capturedBy(fs funcScope, obj types.Object) bool {
	return obj.Pos() < fs.node.Pos() || fs.node.End() < obj.Pos()
}
