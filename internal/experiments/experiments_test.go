package experiments

import (
	"bytes"
	"strings"
	"testing"

	"priview/internal/accuracy"
	"priview/internal/core"
	"priview/internal/marginal"
	"priview/internal/noise"
)

// tiny returns the smallest meaningful configuration for tests.
func tiny() Config {
	return Config{Queries: 4, Runs: 1, N: 3000, Seed: 1}
}

func methodRows(rows []Row, method string) []Row {
	var out []Row
	for _, r := range rows {
		if r.Method == method {
			out = append(out, r)
		}
	}
	return out
}

func meanOf(rows []Row, method string, eps float64, k int, metric string) (float64, bool) {
	for _, r := range rows {
		if r.Method == method && r.Epsilon == eps && r.K == k && r.Metric == metric && r.Note != "no-noise" {
			return r.Stats.Mean, true
		}
	}
	return 0, false
}

func TestFig1SmokeAndOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("fig1 reduced run still costs seconds")
	}
	rows := RunFig1(tiny())
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	for _, m := range []string{"Uniform", "Flat", "Direct", "Fourier", "FourierLP", "MWEM", "MatrixMech", "Learning1", "PriView", "DataCube"} {
		if len(methodRows(rows, m)) == 0 {
			t.Errorf("method %s missing from fig1", m)
		}
	}
	// Core qualitative findings at eps=1, k=2 on d=9: Flat and PriView
	// are far better than Uniform; Learning is poor.
	flat, _ := meanOf(rows, "Flat", 1.0, 2, "L2n")
	pv, _ := meanOf(rows, "PriView", 1.0, 2, "L2n")
	uni, _ := meanOf(rows, "Uniform", 1.0, 2, "L2n")
	if flat >= uni || pv >= uni {
		t.Errorf("Flat (%v) / PriView (%v) not better than Uniform (%v)", flat, pv, uni)
	}
	learn, ok := meanOf(rows, "Learning1", 1.0, 2, "L2n")
	if !ok || learn < pv {
		t.Errorf("Learning1 (%v) unexpectedly better than PriView (%v)", learn, pv)
	}
}

func TestFig2KosarakOrdersOfMagnitude(t *testing.T) {
	if testing.Short() {
		t.Skipf("skipping in -short mode: full Kosarak/AOL sweep")
	}
	if testing.Short() {
		t.Skip("fig2 reduced run still costs seconds")
	}
	cfg := tiny()
	cfg.N = 20000
	cfg = cfg.orDefaults()
	rows := runFig2Dataset(cfg, kosarakSetup(cfg))
	// Headline claim: PriView beats Direct and Fourier by orders of
	// magnitude at eps=1, k=8 on d=32.
	pv, okPV := meanOf(rows, "PriView", 1.0, 8, "L2n")
	direct, okD := meanOf(rows, "Direct", 1.0, 8, "L2n")
	fourier, okF := meanOf(rows, "Fourier", 1.0, 8, "L2n")
	if !okPV || !okD || !okF {
		t.Fatal("missing methods in fig2 rows")
	}
	if pv*10 > direct {
		t.Errorf("PriView (%v) not >=10x better than Direct (%v)", pv, direct)
	}
	if pv*5 > fourier {
		t.Errorf("PriView (%v) not clearly better than Fourier (%v)", pv, fourier)
	}
	// JS rows must exist and be bounded.
	js, ok := meanOf(rows, "PriView", 1.0, 8, "JS")
	if !ok || js < 0 || js > 0.7 {
		t.Errorf("PriView JS = %v, ok=%v", js, ok)
	}
}

func TestFig3ReconstructionOrdering(t *testing.T) {
	if testing.Short() {
		t.Skipf("skipping in -short mode: all reconstruction methods on the full grid")
	}
	if testing.Short() {
		t.Skip("fig3 involves per-query LP solves")
	}
	cfg := Config{Queries: 3, Runs: 1, N: 10000, Seed: 1}
	kos := kosarakSetup(cfg)
	rows := runFig3Dataset(cfg, kos, kos.c3)
	cme, okC := meanOf(rows, "CME", 1.0, 4, "L2n")
	lp, okL := meanOf(rows, "LP", 1.0, 4, "L2n")
	if !okC || !okL {
		t.Fatal("missing CME/LP rows")
	}
	if cme >= lp {
		t.Errorf("CME (%v) not better than LP (%v)", cme, lp)
	}
	for _, m := range []string{"CLP", "CLN", "CME*"} {
		if len(methodRows(rows, m)) == 0 {
			t.Errorf("method %s missing from fig3", m)
		}
	}
}

func TestFig4NonnegOrdering(t *testing.T) {
	if testing.Short() {
		t.Skipf("skipping in -short mode: all non-negativity methods on the full grid")
	}
	if testing.Short() {
		t.Skip("fig4 reduced run still costs seconds")
	}
	cfg := Config{Queries: 4, Runs: 1, N: 10000, Seed: 1}
	kos := kosarakSetup(cfg)
	rows := runFig4Dataset(cfg, kos, kos.c3)
	for _, m := range []string{"None", "Simple", "Global", "Ripple1", "Ripple3"} {
		if len(methodRows(rows, m)) == 0 {
			t.Errorf("method %s missing from fig4", m)
		}
	}
	ripple, okR := meanOf(rows, "Ripple1", 1.0, 6, "L2n")
	simple, okS := meanOf(rows, "Simple", 1.0, 6, "L2n")
	if !okR || !okS {
		t.Fatal("missing rows")
	}
	if ripple >= simple {
		t.Errorf("Ripple1 (%v) not better than Simple (%v)", ripple, simple)
	}
}

func TestFig5RunsAllOrders(t *testing.T) {
	if testing.Short() {
		t.Skip("fig5 builds 7 d=64 synopses")
	}
	cfg := Config{Queries: 3, Runs: 1, N: 4000, Seed: 1}
	rows := RunFig5(cfg)
	seen := map[string]bool{}
	for _, r := range rows {
		seen[r.Dataset] = true
		if r.Stats.Mean < 0 {
			t.Errorf("negative error in %v", r)
		}
	}
	for order := 1; order <= 7; order++ {
		name := "mc" + string(rune('0'+order))
		if !seen[name] {
			t.Errorf("order %d missing", order)
		}
	}
}

func TestFig6IncludesNoiseErrorStars(t *testing.T) {
	if testing.Short() {
		t.Skipf("skipping in -short mode: full covering-design comparison")
	}
	if testing.Short() {
		t.Skip("fig6 builds many designs")
	}
	cfg := Config{Queries: 3, Runs: 1, N: 5000, Seed: 1}
	rows := RunFig6(cfg)
	stars := 0
	for _, r := range rows {
		if r.Note == "eq5-noise-error" {
			stars++
		}
	}
	// 5 designs × 2 epsilons.
	if stars != 10 {
		t.Errorf("got %d Eq.5 star rows, want 10", stars)
	}
}

func TestTabCrossover(t *testing.T) {
	tab := RunTabCrossover()
	want := []string{"16", "26", "36", "46"}
	for i, row := range tab.Rows {
		if row[1] != want[i] {
			t.Errorf("k=%s: threshold %s, want %s", row[0], row[1], want[i])
		}
	}
	if !strings.Contains(tab.Format(), "tab-crossover") {
		t.Error("Format missing table ID")
	}
}

func TestTabMidsize(t *testing.T) {
	tab := RunTabMidsize()
	if tab.Rows[0][1] != "65536" || tab.Rows[1][1] != "57600" || tab.Rows[2][1] != "9216" {
		t.Errorf("midsize values = %v", tab.Rows)
	}
}

func TestTabEll(t *testing.T) {
	tab := RunTabEll()
	if len(tab.Rows) != 8 {
		t.Fatalf("%d rows, want 8", len(tab.Rows))
	}
	// ℓ=6 row should hold the pair-objective minimum (0.267).
	if tab.Rows[1][1] != "0.267" {
		t.Errorf("ℓ=6 objective = %s, want 0.267", tab.Rows[1][1])
	}
}

func TestTabKosarakT(t *testing.T) {
	if testing.Short() {
		t.Skipf("skipping in -short mode: paper-scale Kosarak table")
	}
	tab := RunTabKosarakT(1)
	if len(tab.Rows) != 3 {
		t.Fatalf("%d rows, want 3", len(tab.Rows))
	}
	// w must increase with t, and the t=2 row must be the subspace
	// cover's w=20 with err ≈ 0.00047.
	if tab.Rows[0][1] != "20" {
		t.Errorf("t=2 w = %s, want 20", tab.Rows[0][1])
	}
	if !strings.HasPrefix(tab.Rows[0][2], "0.0004") && !strings.HasPrefix(tab.Rows[0][2], "0.0005") {
		t.Errorf("t=2 err = %s, want ≈0.00047", tab.Rows[0][2])
	}
}

func TestTabCategorical(t *testing.T) {
	tab := RunTabCategorical()
	if len(tab.Rows) != 4 {
		t.Fatalf("%d rows, want 4", len(tab.Rows))
	}
	// Ranges must be increasing in b and ordered lo < hi.
	for _, row := range tab.Rows {
		var lo, hi int
		if _, err := fmtSscanf(row[1], &lo, &hi); err != nil {
			t.Fatalf("bad range %q: %v", row[1], err)
		}
		if lo >= hi {
			t.Errorf("b=%s: range %d-%d not increasing", row[0], lo, hi)
		}
	}
}

func fmtSscanf(s string, lo, hi *int) (int, error) {
	n, err := sscanRange(s, lo, hi)
	return n, err
}

func sscanRange(s string, lo, hi *int) (int, error) {
	var a, b int
	n, err := fscan(s, &a, &b)
	*lo, *hi = a, b
	return n, err
}

func fscan(s string, a, b *int) (int, error) {
	parts := strings.Split(s, " - ")
	if len(parts) != 2 {
		return 0, errBadRange
	}
	var err error
	*a, err = atoi(parts[0])
	if err != nil {
		return 0, err
	}
	*b, err = atoi(parts[1])
	if err != nil {
		return 1, err
	}
	return 2, nil
}

var errBadRange = errString("bad range")

type errString string

func (e errString) Error() string { return string(e) }

func atoi(s string) (int, error) {
	v := 0
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return 0, errBadRange
		}
		v = v*10 + int(s[i]-'0')
	}
	return v, nil
}

func TestRecommendedCellBudgetShape(t *testing.T) {
	lo2, hi2 := RecommendedCellBudget(2)
	// Paper: 100 - 1000 for b=2 (rough guideline; the pair minimizer is
	// s≈77 which rounds to 80, the triple minimizer ≈1000).
	if lo2 < 50 || lo2 > 150 {
		t.Errorf("b=2 lo = %d, want near 100", lo2)
	}
	if hi2 < 700 || hi2 > 1500 {
		t.Errorf("b=2 hi = %d, want near 1000", hi2)
	}
	lo5, hi5 := RecommendedCellBudget(5)
	if lo5 <= lo2 || hi5 <= hi2 {
		t.Errorf("b=5 range (%d-%d) not larger than b=2 (%d-%d)", lo5, hi5, lo2, hi2)
	}
}

func TestRuntimeTable(t *testing.T) {
	if testing.Short() {
		t.Skipf("skipping in -short mode: wall-clock measurement run")
	}
	if testing.Short() {
		t.Skip("runtime table builds four synopses")
	}
	cfg := Config{Queries: 1, Runs: 1, N: 3000, Seed: 1}
	rows := RunTabRuntime(cfg)
	if len(rows) != 4 {
		t.Fatalf("%d rows, want 4", len(rows))
	}
	for _, r := range rows {
		if r.P <= 0 || r.Q6 < 0 || r.Q8 < 0 {
			t.Errorf("non-positive timing in %+v", r)
		}
	}
	if !strings.Contains(FormatRuntime(rows), "Kosarak") {
		t.Error("FormatRuntime missing dataset")
	}
}

func TestSampleQuerySets(t *testing.T) {
	rng := noise.NewStream(1)
	qs := sampleQuerySets(10, 3, 15, rng)
	if len(qs) != 15 {
		t.Fatalf("%d query sets, want 15", len(qs))
	}
	seen := map[string]bool{}
	for _, q := range qs {
		if len(q) != 3 {
			t.Fatalf("query %v has wrong size", q)
		}
		for i := 1; i < len(q); i++ {
			if q[i] <= q[i-1] {
				t.Fatalf("query %v not sorted", q)
			}
		}
		key := ""
		for _, a := range q {
			key += string(rune('a' + a))
		}
		if seen[key] {
			t.Fatalf("duplicate query %v", q)
		}
		seen[key] = true
	}
	// Exhaustive when C(d,k) small.
	all := sampleQuerySets(5, 2, 100, rng)
	if len(all) != 10 {
		t.Errorf("exhaustive enumeration returned %d, want 10", len(all))
	}
}

func TestConsecutiveQuerySets(t *testing.T) {
	qs := consecutiveQuerySets(6, 3)
	if len(qs) != 4 {
		t.Fatalf("%d sets, want 4", len(qs))
	}
	if qs[0][0] != 0 || qs[3][2] != 5 {
		t.Errorf("sets = %v", qs)
	}
}

func TestFormatAndCSV(t *testing.T) {
	rows := []Row{{
		Experiment: "figX", Dataset: "D", Method: "M, with comma",
		Epsilon: 1, K: 4, Metric: "L2n",
		Stats: constantCandlestick(0.5), Note: "n",
	}}
	if !strings.Contains(FormatRows(rows), "figX") {
		t.Error("FormatRows missing experiment")
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `"M, with comma"`) {
		t.Errorf("CSV escaping failed: %s", out)
	}
	if !strings.HasPrefix(out, "experiment,") {
		t.Error("CSV header missing")
	}
}

func TestAblation(t *testing.T) {
	if testing.Short() {
		t.Skipf("skipping in -short mode: full ablation sweep")
	}
	if testing.Short() {
		t.Skip("ablation builds several synopses")
	}
	cfg := Config{Queries: 4, Runs: 1, N: 10000, Seed: 1}
	rows := RunAblation(cfg)
	byMethod := map[string]float64{}
	for _, r := range rows {
		if r.K == 4 {
			byMethod[r.Method] = r.Stats.Mean
		}
	}
	// The two maxent solvers reach the same optimum: errors must be
	// close.
	ipf, dual := byMethod["solver/IPF"], byMethod["solver/DualAscent"]
	if ipf == 0 || dual == 0 {
		t.Fatalf("missing solver rows: %v", byMethod)
	}
	if dual > ipf*2.5 || ipf > dual*2.5 {
		t.Errorf("solver ablation diverges: IPF=%v dual=%v", ipf, dual)
	}
	// The full pipeline must beat raw views.
	full, raw := byMethod["consistency/FullPipeline"], byMethod["consistency/RawViews"]
	if full >= raw {
		t.Errorf("consistency pipeline (%v) not better than raw views (%v)", full, raw)
	}
	// All theta settings present.
	for _, theta := range []string{"theta=0.05", "theta=0.5", "theta=5", "theta=50"} {
		if _, ok := byMethod["ripple-theta/"+theta]; !ok {
			t.Errorf("missing %s row", theta)
		}
	}
}

func TestEvalBothMatchesSeparateEvals(t *testing.T) {
	// evalBoth must agree with evalL2/evalJS run separately on a
	// deterministic (no-noise) synopsis.
	cfg := Config{Queries: 3, Runs: 2, N: 2000, Seed: 1}
	ds := kosarakSetup(cfg)
	syn := buildNoNoise(ds)
	build := func(run int) synopsis { return syn }
	rng := noise.NewStream(9)
	queries := sampleQuerySets(32, 4, cfg.Queries, rng)
	truths := trueMarginals(ds.data, queries)
	nf := float64(ds.data.Len())
	l2a := evalL2(build, queries, truths, nf, cfg.Runs)
	jsa := evalJS(build, queries, truths, cfg.Runs)
	l2b, jsb := evalBoth(build, queries, truths, nf, cfg.Runs)
	if l2a != l2b || jsa != jsb {
		t.Errorf("evalBoth diverges: L2 %v vs %v, JS %v vs %v", l2a, l2b, jsa, jsb)
	}
}

// evalJS is evalL2 with Jensen–Shannon divergence: the oracle for
// evalBoth's JS half.
func evalJS(build func(run int) synopsis, queries [][]int, truths []*marginal.Table, runs int) accuracy.Candlestick {
	return eval(build, queries, truths, runs, func(got, truth *marginal.Table) float64 {
		return accuracy.JSDivergence(got, truth)
	})
}

func buildNoNoise(ds largeDataset) synopsis {
	return core.BuildSynopsis(ds.data, core.Config{Design: ds.c2, NoNoise: true}, nil)
}

func TestCategoricalSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep builds several categorical synopses")
	}
	cfg := Config{Queries: 5, Runs: 1, N: 8000, Seed: 1}
	rows := RunCategoricalSweep(cfg)
	if len(rows) != 10 { // 5 budgets × 2 k values
		t.Fatalf("%d rows, want 10", len(rows))
	}
	for _, r := range rows {
		if r.Stats.Mean <= 0 {
			t.Errorf("non-positive error in %v", r)
		}
	}
}

func TestQCacheExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping in -short mode: wall-clock measurement run")
	}
	cfg := Config{Queries: 2, Runs: 1, N: 3000, Seed: 1}
	rows := RunQCache(cfg)
	if len(rows) != 2 {
		t.Fatalf("%d rows, want 2 (k=6 and k=8)", len(rows))
	}
	for _, r := range rows {
		if r.Uncached <= 0 || r.Cold <= 0 || r.Hot <= 0 {
			t.Errorf("non-positive timing in %+v", r)
		}
		if r.Hot >= r.Uncached {
			t.Errorf("k=%d: cache hit (%v) not faster than the solve (%v)", r.K, r.Hot, r.Uncached)
		}
	}
	out := FormatQCache(rows)
	if !strings.Contains(out, "Kosarak") || !strings.Contains(out, "speedup") {
		t.Errorf("FormatQCache output malformed:\n%s", out)
	}
}
