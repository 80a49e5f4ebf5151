// Command priview-lint is the repository's static-analysis gate. It
// loads and type-checks every package named on the command line and
// runs nine repo-specific analyzers that enforce invariants the Go
// compiler cannot see:
//
//	randsource  privacy-critical randomness must flow through
//	            internal/noise (no math/rand, no wall-clock seeding)
//	floatcmp    no ==/!= between floating-point operands outside
//	            tolerance helpers
//	errdiscard  no silently discarded error returns in library code
//	panicmsg    panics in internal/* must carry a "pkg:" prefix so
//	            accounting failures are attributable
//	attrset     attribute-set bitmasks must be built with
//	            internal/attrset, not hand-rolled 1<<attr loops
//	privflow    whole-program taint analysis: no path from raw
//	            dataset counts to a publish sink without an
//	            intervening internal/noise call
//	ctxflow     data-dependent loops in solver packages must poll
//	            ctx.Err()/ctx.Done()
//	budgetlit   no literal ε/δ outside cmd/ flag parsing and the
//	            packages exempted (with reasons) in lint.facts
//	hotalloc    no allocations inside loops marked //lint:hot
//
// The dataflow analyzers read their source/sanitizer/sink
// classification from lint.facts at the module root; a new endpoint or
// noise primitive must be classified there before the tree is clean.
//
// A finding can be suppressed, with a mandatory written rationale, by a
// comment on the offending line or the line above:
//
//	//lint:ignore <check> <reason>
//
// A directive that suppresses nothing is itself reported.
//
// Usage:
//
//	priview-lint [-json] [-list] [-stats] packages...
//
// Packages are directories relative to the module root; "./..." and
// "dir/..." expand recursively. Exit status is 0 when clean, 1 when
// findings were reported, 2 on usage errors, and 3 when a package
// failed to load or type-check (diagnostics are printed per file).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

func main() {
	os.Exit(lintMain(os.Args[1:], os.Stdout, os.Stderr))
}

const (
	exitClean = 0
	exitDirty = 1
	exitUsage = 2
	exitLoad  = 3
)

func lintMain(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("priview-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as JSON")
	list := fs.Bool("list", false, "list analyzers and exit")
	stats := fs.Bool("stats", false, "print load/analysis wall-clock to stderr")
	fs.Usage = func() {
		emit(stderr, "usage: priview-lint [-json] [-list] [-stats] packages...\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if *list {
		for _, a := range analyzers {
			emit(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return exitClean
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return exitUsage
	}

	moduleDir, err := findModuleRoot()
	if err != nil {
		emit(stderr, "priview-lint: %v\n", err)
		return exitUsage
	}
	facts, err := loadFacts(filepath.Join(moduleDir, "lint.facts"))
	if err != nil {
		emit(stderr, "priview-lint: %v\n", err)
		return exitUsage
	}
	l, err := newLoader(moduleDir)
	if err != nil {
		emit(stderr, "priview-lint: %v\n", err)
		return exitUsage
	}
	dirs, err := expandPatterns(moduleDir, fs.Args())
	if err != nil {
		emit(stderr, "priview-lint: %v\n", err)
		return exitUsage
	}
	refs := make([]pkgRef, 0, len(dirs))
	for _, dir := range dirs {
		path, err := importPathFor(l.moduleDir, l.modulePath, dir)
		if err != nil {
			emit(stderr, "priview-lint: %v\n", err)
			return exitUsage
		}
		refs = append(refs, pkgRef{Dir: dir, Path: path})
	}

	loadStart := time.Now()
	pkgs, err := l.Load(refs)
	if err != nil {
		var le *LoadError
		if errors.As(err, &le) {
			emit(stderr, "priview-lint: load failed with %d error(s):\n", len(le.Diags))
			for _, d := range le.Diags {
				emit(stderr, "%s\n", d)
			}
			return exitLoad
		}
		emit(stderr, "priview-lint: %v\n", err)
		return exitUsage
	}
	loadTime := time.Since(loadStart)
	if err := facts.checkSymbols(l); err != nil {
		emit(stderr, "priview-lint: %v\n", err)
		return exitUsage
	}

	analyzeStart := time.Now()
	eng := newEngine(facts, l.fset, l.allInOrder())
	perPkg := make([][]Finding, len(pkgs))
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i, pkg := range pkgs {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			perPkg[i] = runAnalyzers(pkg, eng)
		}()
	}
	wg.Wait()
	var findings []Finding
	for _, fs := range perPkg {
		findings = append(findings, fs...)
	}
	// Global order by position: output is byte-identical however the
	// requested packages were ordered on the command line.
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i].Pos, findings[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return findings[i].Check < findings[j].Check
	})
	analyzeTime := time.Since(analyzeStart)

	if *stats {
		emit(stderr, "priview-lint: %d packages, %d findings, load %s, analyze %s, total %s (workers=%d)\n",
			len(pkgs), len(findings), loadTime.Round(time.Millisecond),
			analyzeTime.Round(time.Millisecond),
			(loadTime + analyzeTime).Round(time.Millisecond), workers)
	}

	if *jsonOut {
		type jsonFinding struct {
			Check   string   `json:"check"`
			File    string   `json:"file"`
			Line    int      `json:"line"`
			Column  int      `json:"column"`
			Message string   `json:"message"`
			Trace   []string `json:"trace,omitempty"`
		}
		out := make([]jsonFinding, 0, len(findings))
		for _, f := range findings {
			out = append(out, jsonFinding{
				Check: f.Check, File: f.Pos.Filename,
				Line: f.Pos.Line, Column: f.Pos.Column,
				Message: f.Message, Trace: f.Trace,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			emit(stderr, "priview-lint: %v\n", err)
			return exitUsage
		}
	} else {
		for _, f := range findings {
			emit(stdout, "%s\n", f)
		}
	}
	if len(findings) > 0 {
		return exitDirty
	}
	return exitClean
}

// emit writes CLI output to one of the process's standard streams; a
// failed write there has no error sink, so the error is dropped here,
// once, instead of at every call site.
func emit(w *os.File, format string, args ...any) {
	//lint:ignore errdiscard CLI output to the process streams; there is nowhere to report a write failure
	_, _ = fmt.Fprintf(w, format, args...)
}

// findModuleRoot walks up from the working directory to the nearest
// go.mod, so the tool works from any subdirectory of the module.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above working directory")
		}
		dir = parent
	}
}
