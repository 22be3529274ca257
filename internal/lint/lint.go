// Package lint is energylint: a dependency-free static-analysis suite that
// enforces the repository's energy-accounting and concurrency invariants.
// The measurement methodology of the paper (Eq. 1 attribution from PMU
// counter deltas, exact ledger partitioning, race-free snapshots) is only as
// credible as the plumbing that implements it; this package turns the
// invariants the code documents in prose — and has violated before, see the
// StallAwareGovernor underflow and the client.Dial socket leak fixed in
// earlier PRs — into machine-checked rules.
//
// The suite uses only the standard library (go/parser, go/ast, go/types,
// go/importer), matching the module's zero-dependency go.mod. Packages are
// loaded and type-checked once per process and shared by every analyzer
// (see Load), which keeps a full-repo run well under the CI budget.
//
// # Analyzers
//
//   - counterdelta: raw a-b subtraction on monotonic uint64 PMU/ledger
//     counters (underflow on counter reset).
//   - lockorder: engine → storage → btree lock ordering, mutex value
//     copies, and lock held across a channel operation.
//   - wiresym: wire frame types whose Encode/Decode/String surfaces are
//     asymmetric.
//
// The chargeflow analyzers run on a CFG + dataflow engine (cfg.go,
// dataflow.go, summary.go) with an interprocedural charge summary, and
// prove path-sensitive energy-attribution soundness:
//
//   - chargepath: every executor loop that advances tuples, batches,
//     pages or version chains must charge the meter on every completing
//     iteration; raw-cursor and row loops and sort comparators must also
//     poll cancellation (vectorized loops additionally owe a per-batch
//     driver dispatch, and emit boundaries a direct cancellation poll).
//   - poolescape: pooled vec batches/vectors pulled from an operator or
//     pool must not be retained in fields or growing slices past their
//     reuse point.
//   - walerr: WAL/engine/txn/storage durability errors
//     (Commit/Rollback/Abort/Sync/Append) must reach the caller or the
//     abort path on every CFG path.
//   - retirepath: every profiled breakdown must be retired into the
//     ledgers or handed off on every path, including error returns, and
//     every Dial* connection closed or handed off on every path.
//
// # Waivers
//
// A finding can be waived with a //lint:<key> comment on the flagged line
// or the line directly above it, where <key> is the analyzer's waiver key
// (counterdelta uses "monotonic", chargepath uses "nocharge", the others
// use their own name). A //lint: comment whose key no analyzer owns is
// itself reported, so a retired or misspelt waiver cannot pass silently.
// Waivers should carry a justification after the key:
//
//	//lint:monotonic Transitions only advances on this goroutine
//
// DESIGN.md §10 catalogues each rule, its origin and its waiver syntax;
// §15 documents the CFG/dataflow engine behind the chargeflow analyzers.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -only filters.
	Name string
	// Doc is a one-line description.
	Doc string
	// WaiverKey is the //lint:<key> token that suppresses this analyzer's
	// findings (defaults to Name when empty).
	WaiverKey string
	// Run inspects one type-checked package and reports findings.
	Run func(*Pass)
}

// Key returns the waiver token for the analyzer.
func (a *Analyzer) Key() string {
	if a.WaiverKey != "" {
		return a.WaiverKey
	}
	return a.Name
}

// All lists every analyzer in the suite, in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		AnalyzerCounterDelta,
		AnalyzerLockOrder,
		AnalyzerWireSym,
		AnalyzerChargePath,
		AnalyzerPoolEscape,
		AnalyzerWalErr,
		AnalyzerRetirePath,
	}
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Msg      string
}

// String renders the finding as file:line:col: [analyzer] message.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Msg)
}

// Pass carries one (analyzer, package) run.
type Pass struct {
	Prog     *Program
	Pkg      *Package
	analyzer *Analyzer
	out      *[]Diagnostic
}

// Fset returns the shared file set.
func (p *Pass) Fset() *token.FileSet { return p.Prog.Fset }

// TypeOf returns the type of an expression, or nil when unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	return p.Pkg.Info.TypeOf(e)
}

// Reportf records a finding at pos unless a waiver covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Prog.Fset.Position(pos)
	if p.Prog.waived(position, p.analyzer.Key()) {
		return
	}
	*p.out = append(*p.out, Diagnostic{
		Pos:      position,
		Analyzer: p.analyzer.Name,
		Msg:      fmt.Sprintf(format, args...),
	})
}

// Run executes the given analyzers over every loaded package and returns
// the findings sorted by position. Analyzers share the program's single
// type-checked view; nothing is re-parsed or re-checked between analyzers.
func Run(prog *Program, analyzers []*Analyzer) []Diagnostic {
	var out []Diagnostic
	for _, pkg := range prog.Pkgs {
		for _, a := range analyzers {
			a.Run(&Pass{Prog: prog, Pkg: pkg, analyzer: a, out: &out})
		}
	}
	out = append(out, prog.deadWaivers()...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

// waiverPrefix introduces a suppression comment.
const waiverPrefix = "//lint:"

// collectWaivers indexes every //lint:<key> comment by file and line,
// recording the comment's column under its key.
func collectWaivers(fset *token.FileSet, files []*ast.File) map[string]map[int]map[string]int {
	out := make(map[string]map[int]map[string]int)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(c.Text)
				if !strings.HasPrefix(text, waiverPrefix) {
					continue
				}
				rest := strings.TrimPrefix(text, waiverPrefix)
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					continue
				}
				key := fields[0]
				pos := fset.Position(c.Pos())
				byLine := out[pos.Filename]
				if byLine == nil {
					byLine = make(map[int]map[string]int)
					out[pos.Filename] = byLine
				}
				keys := byLine[pos.Line]
				if keys == nil {
					keys = make(map[string]int)
					byLine[pos.Line] = keys
				}
				keys[key] = pos.Column
			}
		}
	}
	return out
}

// waived reports whether a //lint:<key> comment covers the position (same
// line, or the line directly above for standalone waiver comments).
func (p *Program) waived(pos token.Position, key string) bool {
	byLine := p.waivers[pos.Filename]
	if byLine == nil {
		return false
	}
	_, here := byLine[pos.Line][key]
	_, above := byLine[pos.Line-1][key]
	return here || above
}

// deadWaivers reports every //lint:<key> comment whose key no analyzer of
// the suite owns: such a comment suppresses nothing.
func (p *Program) deadWaivers() []Diagnostic {
	owned := map[string]bool{}
	for _, a := range All() {
		owned[a.Key()] = true
	}
	var out []Diagnostic
	for file, byLine := range p.waivers {
		for line, keys := range byLine {
			for key, col := range keys {
				if !owned[key] {
					out = append(out, Diagnostic{
						Pos:      token.Position{Filename: file, Line: line, Column: col},
						Analyzer: "waiver",
						Msg:      fmt.Sprintf("//lint:%s is no analyzer's waiver key and suppresses nothing (energylint -list shows the keys)", key),
					})
				}
			}
		}
	}
	return out
}

// hasMethod reports whether *T or T has a method with the given name.
func hasMethod(t types.Type, name string) bool {
	ms := types.NewMethodSet(types.NewPointer(t))
	for i := 0; i < ms.Len(); i++ {
		if ms.At(i).Obj().Name() == name {
			return true
		}
	}
	return false
}

// calleeName extracts the called function's bare name.
func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// exprString renders a (small) expression for operand matching and messages.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.ParenExpr:
		return exprString(e.X)
	case *ast.StarExpr:
		return "*" + exprString(e.X)
	case *ast.UnaryExpr:
		return e.Op.String() + exprString(e.X)
	case *ast.CallExpr:
		return exprString(e.Fun) + "()"
	case *ast.IndexExpr:
		return exprString(e.X) + "[" + exprString(e.Index) + "]"
	case *ast.BasicLit:
		return e.Value
	default:
		return fmt.Sprintf("%T", e)
	}
}

// funcScope is one function body an analyzer scans: a declaration or a
// function literal. Analyzers that model per-goroutine state (lockorder)
// scan literals as their own scopes; analyzers looking for guards anywhere
// in the written function (counterdelta) search the body inclusively.
type funcScope struct {
	name string
	node ast.Node       // *ast.FuncDecl or *ast.FuncLit
	body *ast.BlockStmt // never nil
}

// declScopes enumerates only the declared function bodies (literals stay
// part of their declaration). Use when "the enclosing function" means the
// function as written, nested closures included.
func declScopes(f *ast.File) []funcScope {
	var out []funcScope
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		out = append(out, funcScope{name: fd.Name.Name, node: fd, body: fd.Body})
	}
	return out
}

// funcScopes enumerates every function body in the file: all declarations
// and every function literal, each as its own scope.
func funcScopes(f *ast.File) []funcScope {
	var out []funcScope
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		out = append(out, funcScope{name: fd.Name.Name, node: fd, body: fd.Body})
		name := fd.Name.Name
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				out = append(out, funcScope{name: name + " (func literal)", node: lit, body: lit.Body})
			}
			return true
		})
	}
	return out
}

// inspectShallow walks the body like ast.Inspect but does not descend into
// nested function literals, so per-goroutine analyses don't mix scopes.
func inspectShallow(body *ast.BlockStmt, fn func(ast.Node) bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		return fn(n)
	})
}
