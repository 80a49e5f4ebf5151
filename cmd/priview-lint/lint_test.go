package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
)

// sharedLoader amortizes stdlib import resolution across the
// golden-file tests. Testdata packages loaded under their own demo
// import paths share it; packages that impersonate a real module path
// (internal/noise, internal/attrset, internal/reconstruct) must use an
// isolated loader so the impersonation cannot collide with the real
// package pulled in as a dependency of another test's testdata.
var sharedLoader = sync.OnceValues(func() (*loader, error) {
	return newLoader(filepath.Join("..", ".."))
})

var sharedFacts = sync.OnceValues(func() (*factsTable, error) {
	return loadFacts(filepath.Join("..", "..", "lint.facts"))
})

func testFacts(t *testing.T) *factsTable {
	t.Helper()
	facts, err := sharedFacts()
	if err != nil {
		t.Fatalf("lint.facts: %v", err)
	}
	return facts
}

// loadTestdata loads one testdata package plus an engine over
// everything the chosen loader has seen so far.
func loadTestdata(t *testing.T, dir, importPath string, isolated bool) (*lintPackage, *engine) {
	t.Helper()
	var l *loader
	var err error
	if isolated {
		l, err = newLoader(filepath.Join("..", ".."))
	} else {
		l, err = sharedLoader()
	}
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	pkg, err := l.LoadDir(filepath.Join("testdata", "src", dir), importPath)
	if err != nil {
		t.Fatalf("loading testdata/src/%s: %v", dir, err)
	}
	return pkg, newEngine(testFacts(t), l.fset, l.allInOrder())
}

// wantRe matches the expectation comments embedded in testdata files:
// a `// want:<check>` marker on the line the finding must land on.
var wantRe = regexp.MustCompile(`// want:([a-z]+)`)

// expectations scans a testdata directory for want markers, returning
// "file:line:check" keys.
func expectations(t *testing.T, dir string) map[string]bool {
	t.Helper()
	want := make(map[string]bool)
	full := filepath.Join("testdata", "src", dir)
	names, err := goFilesIn(full)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(full, name))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
				want[fmt.Sprintf("%s:%d:%s", name, i+1, m[1])] = true
			}
		}
	}
	return want
}

// checkGolden runs every analyzer (with the whole-program engine) over
// one testdata package and requires the surviving findings to match the
// want markers exactly — both directions: no missing findings, no
// unexpected ones.
func checkGolden(t *testing.T, dir, importPath string, isolated bool) []Finding {
	t.Helper()
	pkg, eng := loadTestdata(t, dir, importPath, isolated)
	want := expectations(t, dir)
	findings := runAnalyzers(pkg, eng)
	got := make(map[string]bool)
	for _, f := range findings {
		got[fmt.Sprintf("%s:%d:%s", filepath.Base(f.Pos.Filename), f.Pos.Line, f.Check)] = true
	}
	var missing, unexpected []string
	for k := range want {
		if !got[k] {
			missing = append(missing, k)
		}
	}
	for k := range got {
		if !want[k] {
			unexpected = append(unexpected, k)
		}
	}
	sort.Strings(missing)
	sort.Strings(unexpected)
	if len(missing) > 0 {
		t.Errorf("expected findings not reported: %v", missing)
	}
	if len(unexpected) > 0 {
		t.Errorf("unexpected findings: %v", unexpected)
	}
	return findings
}

func TestRandsourceGolden(t *testing.T) {
	checkGolden(t, "randsource", "priview/internal/randdemo", false)
}

func TestRandsourceAllowedPackage(t *testing.T) {
	// Loaded as internal/noise itself: the import is allowed, the
	// wall-clock seed still is not.
	checkGolden(t, "randsource_ok", "priview/internal/noise", true)
}

func TestFloatcmpGolden(t *testing.T) {
	checkGolden(t, "floatcmp", "priview/internal/floatdemo", false)
}

func TestErrdiscardGolden(t *testing.T) {
	checkGolden(t, "errdiscard", "priview/internal/errdemo", false)
}

func TestPanicmsgGolden(t *testing.T) {
	checkGolden(t, "panicmsg", "priview/internal/panicdemo", false)
}

func TestAttrsetGolden(t *testing.T) {
	checkGolden(t, "attrset", "priview/internal/attrsetdemo", false)
}

func TestAttrsetAllowedPackage(t *testing.T) {
	// The same offending shapes loaded as internal/attrset itself: the
	// canonical implementation is exempt, so nothing may be reported.
	pkg, eng := loadTestdata(t, "attrset", "priview/internal/attrset", true)
	for _, f := range runAnalyzers(pkg, eng) {
		if f.Check == "attrset" {
			t.Errorf("attrset finding inside the attrset package itself: %v", f)
		}
	}
}

func TestPrivflowGolden(t *testing.T) {
	checkGolden(t, "privflow", "priview/internal/privflowdemo", false)
}

// TestPrivflowTrace pins the multi-hop trace on the seeded leak: the
// finding must walk from the dataset source through the helper chain to
// the HTTP sink.
func TestPrivflowTrace(t *testing.T) {
	pkg, eng := loadTestdata(t, "privflow", "priview/internal/privflowdemo", false)
	findings := runAnalyzers(pkg, eng)
	var leak *Finding
	for i := range findings {
		if findings[i].Check == "privflow" && findings[i].Pos.Line == 32 {
			leak = &findings[i]
		}
	}
	if leak == nil {
		t.Fatalf("no privflow finding on the seeded handleLeak line; got %v", findings)
	}
	if len(leak.Trace) < 3 {
		t.Fatalf("trace has %d hops, want >= 3 (source, helper, sink): %v", len(leak.Trace), leak.Trace)
	}
	joined := strings.Join(leak.Trace, "\n")
	for _, needle := range []string{"Marginal", "rawCount", "published by"} {
		if !strings.Contains(joined, needle) {
			t.Errorf("trace missing %q:\n%s", needle, joined)
		}
	}
	if !strings.Contains(leak.Trace[0], "raw data from") {
		t.Errorf("trace should start at the raw source, got %q", leak.Trace[0])
	}
}

func TestCtxflowGolden(t *testing.T) {
	// Impersonates internal/reconstruct so the ctxflow-scope fact
	// applies; isolated loader keeps the impersonation out of the shared
	// cache.
	checkGolden(t, "ctxflow", "priview/internal/reconstruct", true)
}

func TestBudgetlitGolden(t *testing.T) {
	checkGolden(t, "budgetlit", "priview/internal/budgetdemo", false)
}

func TestHotallocGolden(t *testing.T) {
	checkGolden(t, "hotalloc", "priview/internal/hotdemo", false)
}

func TestUnusedIgnoreGolden(t *testing.T) {
	checkGolden(t, "unusedignore", "priview/internal/ignoredemo", false)
}

func TestMalformedDirectives(t *testing.T) {
	// nil engine: directive-syntax findings must not depend on the
	// dataflow analyzers having run.
	pkg, _ := loadTestdata(t, "directive", "priview/internal/directivedemo", false)
	findings := runAnalyzers(pkg, nil)
	if len(findings) != 2 {
		t.Fatalf("got %d findings, want 2: %v", len(findings), findings)
	}
	for _, f := range findings {
		if f.Check != "directive" {
			t.Errorf("finding %v: check = %q, want \"directive\"", f, f.Check)
		}
	}
	if !strings.Contains(findings[0].Message, "non-empty reason") {
		t.Errorf("first finding should flag the missing reason, got %q", findings[0].Message)
	}
	if !strings.Contains(findings[1].Message, "unknown check") {
		t.Errorf("second finding should flag the unknown check, got %q", findings[1].Message)
	}
}

// TestLintMainJSON drives the CLI entry point end to end on a testdata
// package: findings must come back as valid JSON and the exit code must
// signal violations.
func TestLintMainJSON(t *testing.T) {
	stdout, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer stdout.Close()
	stderr, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	defer stderr.Close()

	code := lintMain([]string{"-json", "cmd/priview-lint/testdata/src/floatcmp"}, stdout, stderr)
	if code != exitDirty {
		data, _ := os.ReadFile(stderr.Name())
		t.Fatalf("exit code = %d, want %d (stderr: %s)", code, exitDirty, data)
	}
	data, err := os.ReadFile(stdout.Name())
	if err != nil {
		t.Fatal(err)
	}
	var findings []struct {
		Check   string `json:"check"`
		File    string `json:"file"`
		Line    int    `json:"line"`
		Message string `json:"message"`
	}
	if err := json.Unmarshal(data, &findings); err != nil {
		t.Fatalf("invalid JSON output: %v\n%s", err, data)
	}
	if len(findings) != 2 {
		t.Fatalf("got %d JSON findings, want 2: %+v", len(findings), findings)
	}
	for _, f := range findings {
		if f.Check != "floatcmp" {
			t.Errorf("finding %+v: check = %q, want floatcmp", f, f.Check)
		}
	}
}

// TestLoadErrorExit3 feeds the driver a package that cannot compile:
// the exit code must be 3 and stderr must carry a positioned diagnostic
// naming the broken file.
func TestLoadErrorExit3(t *testing.T) {
	stdout, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer stdout.Close()
	stderr, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	defer stderr.Close()

	code := lintMain([]string{"cmd/priview-lint/testdata/src/broken"}, stdout, stderr)
	if code != exitLoad {
		t.Fatalf("exit code = %d, want %d", code, exitLoad)
	}
	data, err := os.ReadFile(stderr.Name())
	if err != nil {
		t.Fatal(err)
	}
	out := string(data)
	if !strings.Contains(out, "load failed") {
		t.Errorf("stderr should announce the failed load, got:\n%s", out)
	}
	if !strings.Contains(out, "broken.go") {
		t.Errorf("stderr should name the broken file, got:\n%s", out)
	}
	if !strings.Contains(out, "undefinedSymbol") {
		t.Errorf("stderr should carry the type error, got:\n%s", out)
	}
}

// TestPermutationInvariance is the determinism property test: linting
// the same packages in any command-line (and therefore load) order, with
// the loader and analysis fanned out over GOMAXPROCS workers or run on
// one, must produce byte-identical output and the same exit code.
func TestPermutationInvariance(t *testing.T) {
	pkgs := []string{
		"cmd/priview-lint/testdata/src/floatcmp",
		"cmd/priview-lint/testdata/src/panicmsg",
		"cmd/priview-lint/testdata/src/attrset",
	}
	perms := [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	var first []byte
	firstCode := -1
	for _, procs := range []int{0, 1} {
		if procs > 0 {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		}
		for _, p := range perms {
			args := []string{"-json"}
			for _, i := range p {
				args = append(args, pkgs[i])
			}
			stdout, err := os.CreateTemp(t.TempDir(), "stdout")
			if err != nil {
				t.Fatal(err)
			}
			code := lintMain(args, stdout, stdout)
			data, err := os.ReadFile(stdout.Name())
			stdout.Close()
			if err != nil {
				t.Fatal(err)
			}
			if firstCode == -1 {
				first, firstCode = data, code
				if code != exitDirty {
					t.Fatalf("baseline permutation exited %d, want %d:\n%s", code, exitDirty, data)
				}
				continue
			}
			if code != firstCode {
				t.Errorf("GOMAXPROCS=%d, permutation %v: exit code %d, want %d", runtime.GOMAXPROCS(0), p, code, firstCode)
			}
			if string(data) != string(first) {
				t.Errorf("GOMAXPROCS=%d, permutation %v: output differs from baseline\n--- baseline ---\n%s\n--- got ---\n%s", runtime.GOMAXPROCS(0), p, first, data)
			}
		}
	}
}

// TestFactsRejectUnknownSymbols: a lint.facts symbol that names no
// function, method or field of its in-module package classifies
// nothing, so it must fail the run instead of silently dropping a
// source, sanitizer or sink.
func TestFactsRejectUnknownSymbols(t *testing.T) {
	l, err := newLoader(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.LoadDir(filepath.Join("..", "..", "internal", "dataset"), "priview/internal/dataset"); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		line string
		want string // substring of the error; "" means accepted
	}{
		{"source priview/internal/dataset.Dataset.Marginal r0", ""},
		{"source priview/internal/dataset.New r0", ""},
		{"budget-field priview/internal/dataset.Dataset.dim", ""},
		{"sink net/http.Error p1", ""},
		{"sink priview/internal/core.Synopsis.Query p1", ""}, // package not loaded: unchecked
		{"source priview/internal/dataset.Dataset.Marginall r0", "names no function or method of priview/internal/dataset"},
		{"sanitizer priview/internal/dataset.Neww r0", "names no function or method"},
		{"source priview/internal/dataset.Dataset.records r0", "names no function or method"},
		{"budget-field priview/internal/dataset.Dataset.Len", "names no struct field"},
		{"sink priview/internal/datset.Write p1", "no package priview/internal/datset"},
	} {
		path := filepath.Join(t.TempDir(), "lint.facts")
		if err := os.WriteFile(path, []byte("# test\n"+c.line+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		ft, err := loadFacts(path)
		if err != nil {
			t.Fatalf("%q: %v", c.line, err)
		}
		err = ft.checkSymbols(l)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%q rejected: %v", c.line, err)
		case c.want != "" && err == nil:
			t.Errorf("%q accepted, want an error containing %q", c.line, c.want)
		case c.want != "" && !strings.Contains(err.Error(), c.want):
			t.Errorf("%q: error %q does not contain %q", c.line, err, c.want)
		case c.want != "" && !strings.Contains(err.Error(), "lint.facts:2:"):
			t.Errorf("%q: error %q does not name the line", c.line, err)
		}
	}
}

func TestListAnalyzers(t *testing.T) {
	stdout, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer stdout.Close()
	if code := lintMain([]string{"-list"}, stdout, stdout); code != 0 {
		t.Fatalf("exit code = %d, want 0", code)
	}
	data, err := os.ReadFile(stdout.Name())
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range analyzers {
		if !strings.Contains(string(data), a.Name) {
			t.Errorf("-list output missing analyzer %q", a.Name)
		}
	}
}
