package main

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/scanner"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// lintPackage is one loaded, type-checked, non-test package.
type lintPackage struct {
	Path  string // import path
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	Deps  []string // intra-module dependency import paths, sorted
}

// Diagnostic is one load-time problem (parse or type error) pinned to a
// file position. Load errors are fatal: partial analysis over a
// half-checked tree would silently skip the very invariants the tool
// exists to prove.
type Diagnostic struct {
	Pos token.Position
	Msg string
}

func (d Diagnostic) String() string {
	if d.Pos.IsValid() {
		return fmt.Sprintf("%s: %s", d.Pos, d.Msg)
	}
	return d.Msg
}

// LoadError aggregates every parse and type-check diagnostic from a
// failed Load, sorted by file and position so the report reads like
// compiler output.
type LoadError struct {
	Diags []Diagnostic
}

func (e *LoadError) Error() string {
	if len(e.Diags) == 1 {
		return e.Diags[0].String()
	}
	return fmt.Sprintf("%s (and %d more errors)", e.Diags[0], len(e.Diags)-1)
}

// pkgRef names one package to load: the directory holding its sources
// and the import path it is checked under.
type pkgRef struct {
	Dir  string
	Path string
}

// loader parses and type-checks packages inside the module, resolving
// intra-module imports itself and the standard library through gc
// export data (with a source-importer fallback). It deliberately avoids
// golang.org/x/tools (repo rule: standard library only).
//
// Loading is a four-phase pipeline: parse the requested packages plus
// their transitive intra-module dependencies, resolve export data for
// every external import in one `go list -export -deps` subprocess,
// topologically order the new packages, then type-check them with
// independent packages running concurrently (one goroutine per
// package, gated by a GOMAXPROCS-sized semaphore).
type loader struct {
	fset       *token.FileSet
	moduleDir  string
	modulePath string

	stdMu       sync.Mutex
	std         types.Importer
	expMu       sync.Mutex        // guards exportFiles; separate from stdMu because the gc importer calls lookupExport while an Import holds stdMu
	exportFiles map[string]string // external import path -> export data file
	noExport    bool              // go list -export unavailable; source importer in use

	mu   sync.Mutex
	pkgs map[string]*lintPackage
	topo []string // every loaded package, dependencies before dependents
}

func newLoader(moduleDir string) (*loader, error) {
	abs, err := filepath.Abs(moduleDir)
	if err != nil {
		return nil, err
	}
	modulePath, err := readModulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	return &loader{
		fset:        token.NewFileSet(),
		moduleDir:   abs,
		modulePath:  modulePath,
		exportFiles: make(map[string]string),
		pkgs:        make(map[string]*lintPackage),
	}, nil
}

func readModulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("no module directive in %s", gomod)
}

func (l *loader) inModule(path string) bool {
	return path == l.modulePath || strings.HasPrefix(path, l.modulePath+"/")
}

// dirFor maps a canonical in-module import path to its source directory.
func (l *loader) dirFor(path string) string {
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modulePath), "/")
	return filepath.Join(l.moduleDir, filepath.FromSlash(rel))
}

// LoadDir loads a single package (plus dependencies); kept as the
// convenience entry point for tests and single-package callers.
func (l *loader) LoadDir(dir, path string) (*lintPackage, error) {
	ps, err := l.Load([]pkgRef{{Dir: dir, Path: path}})
	if err != nil {
		return nil, err
	}
	return ps[0], nil
}

// parseUnit is a parsed-but-not-yet-checked package.
type parseUnit struct {
	ref   pkgRef
	files []*ast.File
	deps  []string // intra-module imports, sorted, deduped
}

// Load loads the requested packages and, transitively, every
// intra-module dependency not already cached, returning the requested
// packages in request order. Any parse or type-check failure aborts the
// whole load with a *LoadError carrying per-file diagnostics.
func (l *loader) Load(reqs []pkgRef) ([]*lintPackage, error) {
	// Phase 1: parse, breadth-first over intra-module imports.
	units := make(map[string]*parseUnit)
	var diags []Diagnostic
	queue := append([]pkgRef(nil), reqs...)
	l.mu.Lock()
	loaded := make(map[string]bool, len(l.pkgs))
	for p := range l.pkgs {
		loaded[p] = true
	}
	l.mu.Unlock()
	for len(queue) > 0 {
		ref := queue[0]
		queue = queue[1:]
		if loaded[ref.Path] || units[ref.Path] != nil {
			continue
		}
		names, err := goFilesIn(ref.Dir)
		if err != nil {
			return nil, err
		}
		if len(names) == 0 {
			return nil, fmt.Errorf("no non-test Go files in %s", ref.Dir)
		}
		u := &parseUnit{ref: ref}
		for _, name := range names {
			f, err := parser.ParseFile(l.fset, filepath.Join(ref.Dir, name), nil, parser.ParseComments)
			if err != nil {
				diags = append(diags, parseDiags(err)...)
				continue
			}
			u.files = append(u.files, f)
		}
		units[ref.Path] = u
		seen := make(map[string]bool)
		for _, f := range u.files {
			for _, imp := range f.Imports {
				path := strings.Trim(imp.Path.Value, `"`)
				if !l.inModule(path) || seen[path] {
					continue
				}
				seen[path] = true
				u.deps = append(u.deps, path)
				if !loaded[path] && units[path] == nil {
					queue = append(queue, pkgRef{Dir: l.dirFor(path), Path: path})
				}
			}
		}
		sort.Strings(u.deps)
	}
	if len(diags) > 0 {
		sortDiags(diags)
		return nil, &LoadError{Diags: diags}
	}

	// Phase 2: make sure the stdlib importer can resolve every external
	// import before workers start racing on it.
	l.ensureStd(units)

	// Phase 3: topological order, dependencies first, deterministic.
	order, err := topoOrder(units)
	if err != nil {
		return nil, err
	}

	// Phase 4: type-check; each package waits for its in-module
	// dependencies, then runs under the worker-count semaphore.
	var (
		wg   sync.WaitGroup
		sem  = make(chan struct{}, runtime.GOMAXPROCS(0))
		dmu  sync.Mutex
		fail = make(map[string]bool)
	)
	done := make(map[string]chan struct{}, len(units))
	for path := range units {
		done[path] = make(chan struct{})
	}
	for _, path := range order {
		u := units[path]
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(done[u.ref.Path])
			blocked := false
			for _, d := range u.deps {
				if ch, ok := done[d]; ok {
					<-ch
					dmu.Lock()
					if fail[d] {
						blocked = true
					}
					dmu.Unlock()
				}
			}
			if blocked {
				// A dependency already failed; its diagnostics cover the
				// root cause, so stay silent rather than cascade.
				dmu.Lock()
				fail[u.ref.Path] = true
				dmu.Unlock()
				return
			}
			sem <- struct{}{}
			ds := l.check(u)
			<-sem
			if len(ds) > 0 {
				dmu.Lock()
				fail[u.ref.Path] = true
				diags = append(diags, ds...)
				dmu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(diags) > 0 {
		sortDiags(diags)
		return nil, &LoadError{Diags: diags}
	}

	l.mu.Lock()
	l.topo = append(l.topo, order...)
	out := make([]*lintPackage, len(reqs))
	for i, r := range reqs {
		out[i] = l.pkgs[r.Path]
	}
	l.mu.Unlock()
	return out, nil
}

// check type-checks one parsed unit, storing the result in l.pkgs on
// success and returning diagnostics on failure. Dependencies must
// already be in l.pkgs.
func (l *loader) check(u *parseUnit) []Diagnostic {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	var diags []Diagnostic
	conf := types.Config{
		Importer: l,
		Error: func(err error) {
			if te, ok := err.(types.Error); ok {
				diags = append(diags, Diagnostic{Pos: te.Fset.Position(te.Pos), Msg: te.Msg})
			} else {
				diags = append(diags, Diagnostic{Msg: err.Error()})
			}
		},
	}
	//lint:ignore errdiscard type errors are gathered through conf.Error; the returned error duplicates the first of them
	tpkg, _ := conf.Check(u.ref.Path, l.fset, u.files, info)
	if len(diags) > 0 {
		return diags
	}
	p := &lintPackage{
		Path:  u.ref.Path,
		Dir:   u.ref.Dir,
		Fset:  l.fset,
		Files: u.files,
		Types: tpkg,
		Info:  info,
		Deps:  u.deps,
	}
	l.mu.Lock()
	l.pkgs[u.ref.Path] = p
	l.mu.Unlock()
	return nil
}

// Import implements types.Importer for the type checker: intra-module
// packages come from the cache (their check completed before any
// dependent started), everything else from the stdlib importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if l.inModule(path) {
		l.mu.Lock()
		p := l.pkgs[path]
		l.mu.Unlock()
		if p == nil {
			return nil, fmt.Errorf("intra-module package %s not loaded", path)
		}
		return p.Types, nil
	}
	l.stdMu.Lock()
	defer l.stdMu.Unlock()
	return l.std.Import(path)
}

// ensureStd prepares the standard-library importer. The fast path asks
// the go tool for compiled export data (`go list -export -deps`) and
// reads it with the gc importer — an order of magnitude faster than
// re-type-checking the stdlib from source. When the subprocess is
// unavailable the slow source importer takes over.
func (l *loader) ensureStd(units map[string]*parseUnit) {
	ext := make(map[string]bool)
	for _, u := range units {
		for _, f := range u.files {
			for _, imp := range f.Imports {
				p := strings.Trim(imp.Path.Value, `"`)
				if !l.inModule(p) && p != "unsafe" {
					ext[p] = true
				}
			}
		}
	}
	l.stdMu.Lock()
	defer l.stdMu.Unlock()
	l.expMu.Lock()
	var missing []string
	for p := range ext {
		if _, ok := l.exportFiles[p]; !ok {
			missing = append(missing, p)
		}
	}
	l.expMu.Unlock()
	sort.Strings(missing)
	if l.std == nil {
		if err := l.listExport(missing); err != nil {
			l.noExport = true
			l.std = importer.ForCompiler(l.fset, "source", nil)
			return
		}
		l.std = importer.ForCompiler(l.fset, "gc", l.lookupExport)
		return
	}
	if !l.noExport && len(missing) > 0 {
		//lint:ignore errdiscard a failed incremental listing surfaces as a type error on the import that needed it
		_ = l.listExport(missing)
	}
}

// listExport resolves paths (and their dependency closure) to export
// data files via one `go list` subprocess, merging into l.exportFiles.
func (l *loader) listExport(paths []string) error {
	if len(paths) == 0 {
		paths = []string{"fmt"} // probe: establishes that -export works at all
	}
	args := append([]string{"list", "-export", "-deps", "-f", "{{.ImportPath}}\t{{.Export}}"}, paths...)
	cmd := exec.Command("go", args...)
	cmd.Dir = l.moduleDir
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("go list -export: %w", err)
	}
	l.expMu.Lock()
	defer l.expMu.Unlock()
	for _, line := range strings.Split(string(out), "\n") {
		path, file, ok := strings.Cut(line, "\t")
		if !ok || file == "" {
			continue
		}
		l.exportFiles[path] = file
	}
	return nil
}

// lookupExport feeds the gc importer export data for one import path.
func (l *loader) lookupExport(path string) (io.ReadCloser, error) {
	l.expMu.Lock()
	file, ok := l.exportFiles[path]
	l.expMu.Unlock()
	if !ok {
		return nil, fmt.Errorf("no export data for %s", path)
	}
	return os.Open(file)
}

// topoOrder orders units dependencies-first (Kahn's algorithm), with
// lexicographic tie-breaking so the order — and therefore everything
// ordered by it downstream — is deterministic. Edges to packages loaded
// in a previous call are already satisfied and ignored.
func topoOrder(units map[string]*parseUnit) ([]string, error) {
	indeg := make(map[string]int, len(units))
	dependents := make(map[string][]string)
	for path, u := range units {
		if _, ok := indeg[path]; !ok {
			indeg[path] = 0
		}
		for _, d := range u.deps {
			if _, ok := units[d]; !ok {
				continue
			}
			indeg[path]++
			dependents[d] = append(dependents[d], path)
		}
	}
	var ready []string
	for path, n := range indeg {
		if n == 0 {
			ready = append(ready, path)
		}
	}
	sort.Strings(ready)
	order := make([]string, 0, len(units))
	for len(ready) > 0 {
		path := ready[0]
		ready = ready[1:]
		order = append(order, path)
		changed := false
		for _, dep := range dependents[path] {
			indeg[dep]--
			if indeg[dep] == 0 {
				ready = append(ready, dep)
				changed = true
			}
		}
		if changed {
			sort.Strings(ready)
		}
	}
	if len(order) != len(units) {
		var stuck []string
		for path, n := range indeg {
			if n > 0 {
				stuck = append(stuck, path)
			}
		}
		sort.Strings(stuck)
		return nil, fmt.Errorf("import cycle among %s", strings.Join(stuck, ", "))
	}
	return order, nil
}

// allInOrder returns every package loaded so far, dependencies before
// dependents — the order the dataflow engine builds function summaries
// in.
func (l *loader) allInOrder() []*lintPackage {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]*lintPackage, 0, len(l.topo))
	for _, path := range l.topo {
		if p := l.pkgs[path]; p != nil {
			out = append(out, p)
		}
	}
	return out
}

// parseDiags expands a parser error (usually a scanner.ErrorList) into
// positioned diagnostics.
func parseDiags(err error) []Diagnostic {
	if list, ok := err.(scanner.ErrorList); ok {
		ds := make([]Diagnostic, 0, len(list))
		for _, e := range list {
			ds = append(ds, Diagnostic{Pos: e.Pos, Msg: e.Msg})
		}
		return ds
	}
	return []Diagnostic{{Msg: err.Error()}}
}

func sortDiags(diags []Diagnostic) {
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
		return a.Msg < b.Msg
	})
}

// goFilesIn lists dir's buildable non-test .go files, sorted.
func goFilesIn(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// expandPatterns resolves command-line package patterns ("./...",
// "dir/...", or a plain directory) into package directories relative to
// the module root. Directories named testdata or vendor, hidden
// directories, and directories without non-test Go files are skipped.
func expandPatterns(moduleDir string, patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		root, recursive := pat, false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			root, recursive = rest, true
		}
		if root == "" || root == "." {
			root = moduleDir
		} else if !filepath.IsAbs(root) {
			root = filepath.Join(moduleDir, root)
		}
		if !recursive {
			names, err := goFilesIn(root)
			if err != nil {
				return nil, err
			}
			if len(names) == 0 {
				return nil, fmt.Errorf("no non-test Go files in %s", root)
			}
			add(root)
			continue
		}
		err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != root && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			names, err := goFilesIn(p)
			if err != nil {
				return err
			}
			if len(names) > 0 {
				add(p)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return dirs, nil
}

// importPathFor maps a package directory to its in-module import path.
func importPathFor(moduleDir, modulePath, dir string) (string, error) {
	rel, err := filepath.Rel(moduleDir, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return modulePath, nil
	}
	if strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("directory %s is outside module %s", dir, moduleDir)
	}
	return modulePath + "/" + filepath.ToSlash(rel), nil
}
