package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Program is a loaded, fully type-checked module: every package under the
// module root (testdata and hidden directories excluded), parsed and
// checked exactly once. All analyzers run over this single view, which is
// what keeps a full ./... run cheap — the expensive go/types pass is shared
// across the whole suite in one process.
type Program struct {
	Fset *token.FileSet
	// Pkgs are the packages selected by the Load patterns, sorted by
	// import path.
	Pkgs []*Package

	modPath string
	modRoot string
	all     map[string]*Package               // every module package by import path
	loading map[string]bool                   // import-cycle guard
	std     types.Importer                    // stdlib importer (gc export data)
	stdSrc  types.Importer                    // fallback stdlib importer (source)
	waivers map[string]map[int]map[string]int // file → line → key → column

	// chargeSum and cfgCache are lazily-built chargeflow engine state,
	// shared by every analyzer pass over this program (summary.go, cfg.go).
	chargeSum *summary
	cfgCache  map[*ast.BlockStmt]*cfg
}

// chargeSummary returns the interprocedural charge/dispatch/poll summary,
// building it on first use and caching it for every subsequent pass.
func (prog *Program) chargeSummary() *summary {
	if prog.chargeSum == nil {
		prog.chargeSum = buildSummary(prog)
	}
	return prog.chargeSum
}

// cfgOf returns the (cached) control-flow graph of a function body.
func (prog *Program) cfgOf(body *ast.BlockStmt) *cfg {
	if prog.cfgCache == nil {
		prog.cfgCache = make(map[*ast.BlockStmt]*cfg)
	}
	if g, ok := prog.cfgCache[body]; ok {
		return g
	}
	g := buildCFG(body)
	prog.cfgCache[body] = g
	return g
}

// Package is one type-checked package.
type Package struct {
	Path  string // import path
	Dir   string
	Files []*ast.File // non-test files only
	Types *types.Package
	Info  *types.Info
}

// Load parses and type-checks the module containing dir, returning the
// packages matched by patterns ("./..." for the whole module, "./x/..."
// for a subtree, "./x" for one package; paths are relative to dir). Test
// files are excluded: the analyzers enforce invariants on production code,
// and regression tests legitimately reproduce the very shapes the
// analyzers reject.
func Load(dir string, patterns ...string) (*Program, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	absDir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root, modPath, err := findModule(absDir)
	if err != nil {
		return nil, err
	}
	prog := &Program{
		Fset:    token.NewFileSet(),
		modPath: modPath,
		modRoot: root,
		all:     make(map[string]*Package),
		loading: make(map[string]bool),
		std:     importer.Default(),
	}
	dirs, err := prog.packageDirs()
	if err != nil {
		return nil, err
	}
	// Type-check every package (imports resolve recursively through the
	// same cache, so each package is checked once regardless of fan-in).
	for _, d := range dirs {
		if _, err := prog.check(prog.importPath(d)); err != nil {
			return nil, err
		}
	}
	sel, err := selectPackages(prog, absDir, patterns)
	if err != nil {
		return nil, err
	}
	prog.Pkgs = sel
	var files []*ast.File
	for _, p := range sel {
		files = append(files, p.Files...)
	}
	prog.waivers = collectWaivers(prog.Fset, files)
	return prog, nil
}

// findModule walks up from dir to the enclosing go.mod and returns the
// module root and module path.
func findModule(dir string) (root, modPath string, err error) {
	for d := dir; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module directive", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		d = parent
	}
}

// packageDirs lists every directory under the module root that holds at
// least one non-test .go file. testdata, vendor and dot/underscore
// directories are skipped, exactly like the go tool.
func (p *Program) packageDirs() ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(p.modRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != p.modRoot &&
				(name == "testdata" || name == "vendor" ||
					strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			dir := filepath.Dir(path)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}

// importPath maps a directory under the module root to its import path.
func (p *Program) importPath(dir string) string {
	rel, err := filepath.Rel(p.modRoot, dir)
	if err != nil || rel == "." {
		return p.modPath
	}
	return p.modPath + "/" + filepath.ToSlash(rel)
}

// dirFor maps a module import path back to its directory.
func (p *Program) dirFor(path string) string {
	if path == p.modPath {
		return p.modRoot
	}
	rel := strings.TrimPrefix(path, p.modPath+"/")
	return filepath.Join(p.modRoot, filepath.FromSlash(rel))
}

// internal reports whether an import path belongs to this module.
func (p *Program) internal(path string) bool {
	return path == p.modPath || strings.HasPrefix(path, p.modPath+"/")
}

// Import implements types.Importer: module-internal packages resolve
// through the program's cache (checked on demand), everything else through
// the stdlib importer, falling back to source type-checking when export
// data is unavailable.
func (p *Program) Import(path string) (*types.Package, error) {
	if p.internal(path) {
		pkg, err := p.check(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	if tp, err := p.std.Import(path); err == nil {
		return tp, nil
	}
	if p.stdSrc == nil {
		p.stdSrc = importer.ForCompiler(p.Fset, "source", nil)
	}
	return p.stdSrc.Import(path)
}

// check parses and type-checks one module package, memoized.
func (p *Program) check(path string) (*Package, error) {
	if pkg, ok := p.all[path]; ok {
		return pkg, nil
	}
	if p.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	p.loading[path] = true
	defer delete(p.loading, path)

	dir := p.dirFor(path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(p.Fset, filepath.Join(dir, name), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: p}
	tpkg, err := conf.Check(path, p.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	pkg := &Package{Path: path, Dir: dir, Files: files, Types: tpkg, Info: info}
	p.all[path] = pkg
	return pkg, nil
}

// selectPackages filters the loaded packages by the Load patterns.
func selectPackages(prog *Program, baseDir string, patterns []string) ([]*Package, error) {
	match := func(pkg *Package) bool {
		for _, pat := range patterns {
			if pat == "all" {
				return true
			}
			target := pat
			recursive := false
			if rest, ok := strings.CutSuffix(pat, "/..."); ok {
				target, recursive = rest, true
			}
			if target == "" || target == "./" {
				target = "."
			}
			abs := target
			if !filepath.IsAbs(abs) {
				abs = filepath.Join(baseDir, target)
			}
			if pkg.Dir == abs {
				return true
			}
			if recursive && strings.HasPrefix(pkg.Dir+string(filepath.Separator), abs+string(filepath.Separator)) {
				return true
			}
		}
		return false
	}
	var out []*Package
	for _, pkg := range prog.all {
		if match(pkg) {
			out = append(out, pkg)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("lint: no packages match %v", patterns)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}
