package main

import (
	"context"
	"io"
	"log"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"priview/internal/chaos"
	"priview/internal/core"
	"priview/internal/reconstruct"
	"priview/internal/server"
	"priview/internal/snapshot"
)

func TestGeneratePlanBuildQuery(t *testing.T) {
	dir := t.TempDir()
	dataPath := filepath.Join(dir, "data.txt")
	synPath := filepath.Join(dir, "syn.json")

	if err := cmdGenerate([]string{"-dataset", "msnbc", "-n", "2000", "-seed", "3", "-out", dataPath}); err != nil {
		t.Fatalf("generate: %v", err)
	}
	if _, err := os.Stat(dataPath); err != nil {
		t.Fatalf("dataset not written: %v", err)
	}
	if err := cmdPlan([]string{"-in", dataPath, "-eps", "1.0"}); err != nil {
		t.Fatalf("plan: %v", err)
	}
	if err := cmdBuild([]string{"-in", dataPath, "-eps", "1.0", "-out", synPath}); err != nil {
		t.Fatalf("build: %v", err)
	}
	if err := cmdQuery([]string{"-synopsis", synPath, "-attrs", "0,3,7"}); err != nil {
		t.Fatalf("query: %v", err)
	}
	// Alternative estimators via the CLI.
	for _, m := range []string{"CLN", "CLP", "cme"} {
		if err := cmdQuery([]string{"-synopsis", synPath, "-attrs", "1,5", "-method", m}); err != nil {
			t.Errorf("query method %s: %v", m, err)
		}
	}
}

func TestBuildExplicitDesign(t *testing.T) {
	dir := t.TempDir()
	dataPath := filepath.Join(dir, "data.txt")
	synPath := filepath.Join(dir, "syn.json")
	if err := cmdGenerate([]string{"-dataset", "uniform", "-d", "12", "-n", "500", "-out", dataPath}); err != nil {
		t.Fatal(err)
	}
	if err := cmdBuild([]string{"-in", dataPath, "-eps", "1.0", "-t", "2", "-ell", "6", "-out", synPath}); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateAllFamilies(t *testing.T) {
	dir := t.TempDir()
	for _, family := range []string{"kosarak", "aol", "msnbc", "mchain", "uniform"} {
		out := filepath.Join(dir, family+".txt")
		if err := cmdGenerate([]string{"-dataset", family, "-n", "50", "-out", out}); err != nil {
			t.Errorf("%s: %v", family, err)
		}
	}
}

func TestCommandValidation(t *testing.T) {
	if err := cmdGenerate([]string{"-dataset", "nope", "-out", filepath.Join(t.TempDir(), "x")}); err == nil {
		t.Error("unknown dataset accepted")
	}
	if err := cmdGenerate([]string{"-dataset", "msnbc"}); err == nil {
		t.Error("missing -out accepted")
	}
	if err := cmdPlan([]string{}); err == nil {
		t.Error("plan without -in accepted")
	}
	if err := cmdBuild([]string{"-in", "x"}); err == nil {
		t.Error("build without -out accepted")
	}
	if err := cmdQuery([]string{"-synopsis", "missing.json", "-attrs", "0"}); err == nil {
		t.Error("query on missing synopsis accepted")
	}
	if err := cmdQuery([]string{}); err == nil {
		t.Error("query without flags accepted")
	}
}

func TestQueryBadAttrsAndMethod(t *testing.T) {
	dir := t.TempDir()
	dataPath := filepath.Join(dir, "data.txt")
	synPath := filepath.Join(dir, "syn.json")
	if err := cmdGenerate([]string{"-dataset", "msnbc", "-n", "200", "-out", dataPath}); err != nil {
		t.Fatal(err)
	}
	if err := cmdBuild([]string{"-in", dataPath, "-eps", "1", "-out", synPath}); err != nil {
		t.Fatal(err)
	}
	if err := cmdQuery([]string{"-synopsis", synPath, "-attrs", "0,x"}); err == nil {
		t.Error("bad attribute accepted")
	}
	for _, m := range []string{"LPX", "CME-dual", "CMEDUAL"} {
		if err := cmdQuery([]string{"-synopsis", synPath, "-attrs", "0", "-method", m}); err == nil {
			t.Errorf("method %s accepted", m)
		}
	}
}

func TestImportCSV(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "in.csv")
	outPath := filepath.Join(dir, "out.txt")
	csvContent := "city,plan\nparis,free\nlyon,pro\nparis,pro\n"
	if err := os.WriteFile(csvPath, []byte(csvContent), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdImport([]string{"-csv", csvPath, "-header", "-out", outPath}); err != nil {
		t.Fatal(err)
	}
	// Imported dataset must be loadable and buildable.
	synPath := filepath.Join(dir, "syn.json")
	if err := cmdBuild([]string{"-in", outPath, "-eps", "1", "-out", synPath}); err != nil {
		t.Fatal(err)
	}
	if err := cmdImport([]string{"-csv", csvPath}); err == nil {
		t.Error("import without -out accepted")
	}
	if err := cmdImport([]string{"-csv", filepath.Join(dir, "missing.csv"), "-out", outPath}); err == nil {
		t.Error("import of missing file accepted")
	}
}

func TestDesignExportAndBuildFromFile(t *testing.T) {
	dir := t.TempDir()
	dataPath := filepath.Join(dir, "data.txt")
	designPath := filepath.Join(dir, "design.txt")
	synPath := filepath.Join(dir, "syn.json")
	if err := cmdGenerate([]string{"-dataset", "msnbc", "-n", "500", "-out", dataPath}); err != nil {
		t.Fatal(err)
	}
	if err := cmdDesign([]string{"-d", "9", "-ell", "6", "-t", "2", "-out", designPath}); err != nil {
		t.Fatal(err)
	}
	if err := cmdBuild([]string{"-in", dataPath, "-eps", "1", "-design", designPath, "-t", "2", "-out", synPath}); err != nil {
		t.Fatal(err)
	}
	if err := cmdQuery([]string{"-synopsis", synPath, "-attrs", "0,4"}); err != nil {
		t.Fatal(err)
	}
	// -design without -t must be refused.
	if err := cmdBuild([]string{"-in", dataPath, "-eps", "1", "-design", designPath, "-out", synPath}); err == nil {
		t.Error("build -design without -t accepted")
	}
}

// captureStdout returns what f prints to standard output.
func captureStdout(t *testing.T, f func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		out <- b
	}()
	stdout := os.Stdout
	os.Stdout = w
	ferr := f()
	os.Stdout = stdout
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	printed := <-out
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if ferr != nil {
		t.Fatal(ferr)
	}
	return string(printed)
}

// buildQuerySynopsis writes a small synopsis file for the query tests
// and returns its path and the synopsis read back from it.
func buildQuerySynopsis(t *testing.T) (string, *core.Synopsis) {
	t.Helper()
	dir := t.TempDir()
	dataPath := filepath.Join(dir, "data.txt")
	synPath := filepath.Join(dir, "syn.json")
	if err := cmdGenerate([]string{"-dataset", "msnbc", "-n", "2000", "-seed", "3", "-out", dataPath}); err != nil {
		t.Fatal(err)
	}
	if err := cmdBuild([]string{"-in", dataPath, "-eps", "1.0", "-out", synPath}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(synPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	syn, err := snapshot.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	return synPath, syn
}

// TestQueryServerMatchesLocal runs each query against the synopsis
// file and against a server serving it, addressed by its root and by
// the release's own root: every run must print the same, but for a
// batch's timing footer.
func TestQueryServerMatchesLocal(t *testing.T) {
	synPath, syn := buildQuerySynopsis(t)
	ts := serveSynopsis(t, syn, nil)
	defer ts.Close()

	footer := regexp.MustCompile(` in \S+\n$`)
	for _, args := range [][]string{
		{"-attrs", "0,3,7"},
		{"-attrs", "1,5", "-method", "CLN"},
		{"-attrs", "0,1;4;2,5,8"},
		{"-all-k", "2", "-method", "LP"},
	} {
		local := captureStdout(t, func() error { return cmdQuery(append([]string{"-synopsis", synPath}, args...)) })
		local = footer.ReplaceAllString(local, "")
		for _, base := range []string{ts.URL, ts.URL + "/v1/" + server.DefaultRelease} {
			remote := captureStdout(t, func() error { return cmdQuery(append([]string{"-server", base}, args...)) })
			if remote = footer.ReplaceAllString(remote, ""); local == "" || local != remote {
				t.Errorf("query %q against %s:\n-synopsis printed\n%s\n-server printed\n%s", args, base, local, remote)
			}
		}
	}
}

// serveSynopsis serves syn over HTTP as priview-serve -synopsis does
// (chaos.ServeSynopsis); wrap, when non-nil, builds the served querier
// from the loaded synopsis.
func serveSynopsis(t *testing.T, syn *core.Synopsis, wrap func(server.Querier) server.Querier) *httptest.Server {
	t.Helper()
	h, err := chaos.ServeSynopsis(t.TempDir(), syn, wrap, server.Options{Logger: log.New(io.Discard, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	return httptest.NewServer(h)
}

// degradingQuerier marks every answer as one the numerical fallback
// chain produced.
type degradingQuerier struct{ server.Querier }

func (q degradingQuerier) QueryBatch(ctx context.Context, reqs []core.BatchRequest, opt core.BatchOptions) ([]core.BatchResult, error) {
	res, err := q.Querier.QueryBatch(ctx, reqs, opt)
	for i := range res {
		res[i].Err = &reconstruct.NumericalError{Solver: "maxent", Iter: 1, Quantity: "residual", Value: math.NaN()}
	}
	return res, err
}

// TestQueryMarksDegraded: a degraded answer is marked in a one-set
// table's header as in a batch summary.
func TestQueryMarksDegraded(t *testing.T) {
	_, syn := buildQuerySynopsis(t)
	ts := serveSynopsis(t, syn, func(q server.Querier) server.Querier { return degradingQuerier{q} })
	defer ts.Close()

	one := captureStdout(t, func() error { return cmdQuery([]string{"-server", ts.URL, "-attrs", "0,3"}) })
	if header, _, _ := strings.Cut(one, "\n"); !strings.HasSuffix(header, "[degraded]") {
		t.Errorf("one-set header %q lacks the degraded mark", header)
	}
	batch := captureStdout(t, func() error { return cmdQuery([]string{"-server", ts.URL, "-attrs", "0,3;4"}) })
	if !strings.Contains(batch, "2 marginals (2 degraded)") {
		t.Errorf("batch summary does not count the degraded answers:\n%s", batch)
	}
}
