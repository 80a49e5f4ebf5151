package baselines

import (
	"math"
	"testing"

	"priview/internal/accuracy"
	"priview/internal/core"
	"priview/internal/covering"
	"priview/internal/dataset"
	"priview/internal/dataset/synth"
	"priview/internal/marginal"
	"priview/internal/noise"
)

func smallData(t *testing.T) *dataset.Dataset {
	t.Helper()
	return synth.MSNBC(20000, 1)
}

func TestUniformBaseline(t *testing.T) {
	u := NewUniform(1000)
	got := u.Query([]int{0, 3})
	if got.Total() != 1000 {
		t.Errorf("total = %v, want 1000", got.Total())
	}
	for _, v := range got.Cells {
		if v != 250 {
			t.Errorf("cells = %v, want uniform 250", got.Cells)
			break
		}
	}
	if u.Name() != "Uniform" {
		t.Errorf("Name = %q", u.Name())
	}
}

func TestFlatAccuracyAtHighBudget(t *testing.T) {
	data := smallData(t)
	f := NewFlat(data, 100, noise.NewStream(2))
	truth := data.Marginal([]int{0, 1, 2})
	got := f.Query([]int{0, 1, 2})
	if err := accuracy.NormalizedL2Error(got, truth, float64(data.Len())); err > 0.01 {
		t.Errorf("Flat error at eps=100 is %v, want tiny", err)
	}
}

func TestFlatNoiseMagnitude(t *testing.T) {
	data := smallData(t)
	f := NewFlat(data, 1.0, noise.NewStream(3))
	truth := data.Marginal([]int{0, 1})
	got := f.Query([]int{0, 1})
	// ESE for a 2-way marginal from Flat = 2^9·V_u = 1024; L2 ~ 32.
	l2 := accuracy.L2Error(got, truth)
	if l2 > 32*5 || l2 < 32/20 {
		t.Errorf("Flat L2 = %v, want on the order of 32", l2)
	}
}

func TestFlatPanicsOnLargeD(t *testing.T) {
	data := synth.Kosarak(100, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for d=32 Flat")
		}
	}()
	NewFlat(data, 1, noise.NewStream(1))
}

func TestFlatESEFormula(t *testing.T) {
	if got, want := FlatESE(9, 1.0), 1024.0; got != want {
		t.Errorf("FlatESE(9,1) = %v, want %v", got, want)
	}
	if got := FlatExpectedNormalizedL2(45, 0.1, 647377); got != 1 {
		t.Errorf("capped Flat expected error = %v, want 1", got)
	}
}

func TestDataCubeEqualsFlatShape(t *testing.T) {
	data := smallData(t)
	dc := NewDataCube(data, 1, noise.NewStream(5))
	if dc.Name() != "DataCube" {
		t.Errorf("Name = %q", dc.Name())
	}
	got := dc.Query([]int{1, 2})
	if got.Dim() != 2 {
		t.Errorf("Dim = %d", got.Dim())
	}
}

func TestDirectQueryCaching(t *testing.T) {
	data := smallData(t)
	dm := NewDirect(data, 1.0, 2, true, noise.NewStream(6))
	a := dm.Query([]int{3, 5})
	b := dm.Query([]int{5, 3})
	if !marginal.Equal(a, b, 0) {
		t.Error("repeated Direct query returned different noise")
	}
	// Mutating the returned table must not corrupt the cache.
	a.Cells[0] = -999
	c := dm.Query([]int{3, 5})
	if c.Cells[0] == -999 {
		t.Error("Direct cache aliases returned tables")
	}
}

func TestDirectPostprocessNonneg(t *testing.T) {
	data := smallData(t)
	dm := NewDirect(data, 0.1, 4, true, noise.NewStream(7))
	got := dm.Query([]int{0, 2, 4, 6})
	for _, v := range got.Cells {
		if v < 0 {
			t.Errorf("negative cell %v after redistribute", v)
		}
	}
}

func TestDirectWrongKPanics(t *testing.T) {
	data := smallData(t)
	dm := NewDirect(data, 1, 2, false, noise.NewStream(8))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched query size")
		}
	}()
	dm.Query([]int{0, 1, 2})
}

func TestDirectESEFormula(t *testing.T) {
	// d=16, k=2: 2^2·120²·2 = 115200 at eps=1.
	if got, want := DirectESE(16, 2, 1), 115200.0; math.Abs(got-want) > 1e-6 {
		t.Errorf("DirectESE = %v, want %v", got, want)
	}
}

func TestCrossoverTable(t *testing.T) {
	// §3.2: Direct beats Flat from d = 16, 26, 36, 46 for k = 2..5.
	want := map[int]int{2: 16, 3: 26, 4: 36, 5: 46}
	for k, d := range want {
		if got := DirectBeatsFlatThreshold(k); got != d {
			t.Errorf("crossover for k=%d: got d=%d, want %d", k, got, d)
		}
	}
}

func TestMidsizeExample(t *testing.T) {
	// §4.1: d=16, k=2 — Flat 65536, Direct 57600, views 9216.
	if got := FlatESE(16, 1) / UnitVariance(1); got != 65536 {
		t.Errorf("Flat units = %v", got)
	}
	if got := DirectESE(16, 2, 1) / UnitVariance(1); got != 57600 {
		t.Errorf("Direct units = %v", got)
	}
	if got := MidsizeViewsESE(6, 8); got != 9216 {
		t.Errorf("views ESE = %v, want 9216", got)
	}
}

func TestEllObjectiveTableMatchesPaper(t *testing.T) {
	// §4.5 table: the pair objective at ℓ=6 (0.267) is the minimum of
	// the printed values, and the triple objective at ℓ=10 (0.044).
	wantPairs := map[int]float64{5: 0.283, 6: 0.267, 7: 0.269, 8: 0.286, 9: 0.314, 10: 0.356, 11: 0.411, 12: 0.485}
	for ell, want := range wantPairs {
		if got := EllObjectivePairs(ell); math.Abs(got-want) > 0.0015 {
			t.Errorf("pair objective ℓ=%d: got %.3f, want %.3f", ell, got, want)
		}
	}
	wantTriples := map[int]float64{5: 0.094, 6: 0.067, 7: 0.054, 8: 0.048, 9: 0.045, 10: 0.044, 11: 0.046, 12: 0.048}
	for ell, want := range wantTriples {
		if got := EllObjectiveTriples(ell); math.Abs(got-want) > 0.0015 {
			t.Errorf("triple objective ℓ=%d: got %.3f, want %.3f", ell, got, want)
		}
	}
}

func TestNoiseErrorEquation5MatchesPaperExample(t *testing.T) {
	// §4.5: Kosarak d=32, N≈900000, ε=1, ℓ=8: t=2 w=20 → 0.00047;
	// t=3 w=106 → 0.0011; t=4 w=620 → 0.0026. core.NoiseError is the
	// Eq. 5 the planner uses.
	cases := []struct {
		t, w int
		want float64
	}{{2, 20, 0.00047}, {3, 106, 0.0011}, {4, 620, 0.0026}}
	for _, c := range cases {
		dg := &covering.Design{D: 32, T: c.t, L: 8, Blocks: make([][]int, c.w)}
		got := core.NoiseError(dg, 1.0, 900000)
		if math.Abs(got-c.want)/c.want > 0.08 {
			t.Errorf("Eq5(w=%d) = %.5f, want ≈%.5f", c.w, got, c.want)
		}
	}
}

func TestFourierQueryConsistentCache(t *testing.T) {
	data := smallData(t)
	fm := NewFourier(data, 1.0, 4, false, noise.NewStream(9))
	a := fm.Query([]int{0, 1, 2, 3})
	b := fm.Query([]int{0, 1, 2, 3})
	if !marginal.Equal(a, b, 1e-12) {
		t.Error("Fourier answers changed between queries")
	}
	// Overlapping queries share coefficients: projections onto the
	// common subset must agree (the method's consistency property).
	c := fm.Query([]int{0, 1, 2, 5})
	pa := a.Project([]int{0, 1, 2})
	pc := c.Project([]int{0, 1, 2})
	if !marginal.Equal(pa, pc, 1e-9) {
		t.Error("Fourier reconstructions inconsistent on shared subset")
	}
}

func TestFourierAccurateAtHighBudget(t *testing.T) {
	data := smallData(t)
	fm := NewFourier(data, 1000, 3, false, noise.NewStream(10))
	truth := data.Marginal([]int{1, 4, 7})
	got := fm.Query([]int{1, 4, 7})
	if err := accuracy.L2Error(got, truth); err > 1 {
		t.Errorf("Fourier at eps=1000 has L2 %v", err)
	}
}

func TestFourierLPSmall(t *testing.T) {
	data := synth.MSNBC(2000, 11)
	flp, err := NewFourierLP(data, 1.0, 2, noise.NewStream(12))
	if err != nil {
		t.Fatal(err)
	}
	got := flp.Query([]int{0, 1})
	for _, v := range got.Cells {
		if v < -1e-9 {
			t.Errorf("FourierLP produced negative cell %v", v)
		}
	}
	truth := data.Marginal([]int{0, 1})
	if err := accuracy.NormalizedL2Error(got, truth, float64(data.Len())); err > 0.5 {
		t.Errorf("FourierLP error = %v, unreasonably large", err)
	}
}

func TestFourierLPRejectsLargeD(t *testing.T) {
	data := synth.Kosarak(50, 13)
	if _, err := NewFourierLP(data, 1, 2, noise.NewStream(1)); err == nil {
		t.Error("FourierLP accepted d=32")
	}
}

func TestMWEMRuns(t *testing.T) {
	data := synth.MSNBC(5000, 14)
	m := NewMWEM(data, 1.0, MWEMConfig{K: 2, T: 5, ReplaySweeps: 10}, noise.NewStream(15))
	got := m.Query([]int{0, 1})
	if math.Abs(got.Total()-5000) > 1 {
		t.Errorf("MWEM total = %v, want ~5000", got.Total())
	}
	for _, v := range got.Cells {
		if v < 0 {
			t.Errorf("MWEM produced negative cell %v", v)
		}
	}
}

func TestMWEMImprovesOverUniform(t *testing.T) {
	data := synth.MSNBC(50000, 16)
	m := NewMWEM(data, 5.0, MWEMConfig{K: 2, T: 8, ReplaySweeps: 20}, noise.NewStream(17))
	u := NewUniform(data.Len())
	var errM, errU float64
	queries := [][]int{{0, 1}, {0, 3}, {1, 2}, {2, 5}, {4, 7}}
	for _, q := range queries {
		truth := data.Marginal(q)
		errM += accuracy.L2Error(m.Query(q), truth)
		errU += accuracy.L2Error(u.Query(q), truth)
	}
	if errM >= errU {
		t.Errorf("MWEM (%v) not better than Uniform (%v) at eps=5", errM, errU)
	}
}

func TestDefaultMWEMRounds(t *testing.T) {
	if got := DefaultMWEMRounds(9); got != 15 {
		t.Errorf("DefaultMWEMRounds(9) = %d, want 15 (the paper's T)", got)
	}
}

func TestMatrixMechanismExpectedErrorOrdering(t *testing.T) {
	data := smallData(t)
	mm := NewMatrixMechanism(data, 1.0, 2)
	// The paper finds MatrixMech better than Direct but worse than
	// Flat at d=9: check the expected ESE against both analytic values.
	ese := mm.ExpectedMarginalESE()
	if ese >= DirectESE(9, 2, 1.0) {
		t.Errorf("matrix mechanism ESE %v not better than Direct %v", ese, DirectESE(9, 2, 1.0))
	}
	if ese <= 0 {
		t.Errorf("matrix mechanism ESE %v must be positive", ese)
	}
}

func TestLearningDegreeCap(t *testing.T) {
	data := smallData(t)
	lb := NewLearning(data, 1.0, 2, 0.125, true, noise.NewStream(20))
	if lb.degree > 2 {
		t.Errorf("degree %d exceeds k=2", lb.degree)
	}
}

func TestLearningExactWhenDegreeEqualsK(t *testing.T) {
	data := smallData(t)
	// γ small enough to force D = k: polynomial interpolates [s=k]
	// exactly, so the noise-free variant must reproduce the marginal.
	lb := NewLearning(data, 1.0, 3, 1.0/16, false, noise.NewStream(21))
	if lb.degree != 3 {
		t.Fatalf("degree = %d, want 3", lb.degree)
	}
	if lb.approx > 1e-6 {
		t.Fatalf("approximation error = %v, want ~0", lb.approx)
	}
	truth := data.Marginal([]int{0, 4, 8})
	got := lb.Query([]int{0, 4, 8})
	if !marginal.Equal(got, truth, 1e-6*float64(data.Len())) {
		t.Errorf("noise-free exact-degree Learning diverges:\n got %v\nwant %v", got.Cells, truth.Cells)
	}
}

func TestLearningApproximationErrorGrowsWithGamma(t *testing.T) {
	data := smallData(t)
	coarse := NewLearning(data, 1.0, 6, 0.5, false, noise.NewStream(22))
	fine := NewLearning(data, 1.0, 6, 0.125, false, noise.NewStream(23))
	if coarse.degree >= fine.degree {
		t.Errorf("degrees: γ=1/2 gives %d, γ=1/8 gives %d; want increasing", coarse.degree, fine.degree)
	}
	if coarse.approx < fine.approx {
		t.Errorf("approx errors: coarse %v < fine %v", coarse.approx, fine.approx)
	}
}

func TestLearningNoisyRuns(t *testing.T) {
	data := smallData(t)
	lb := NewLearning(data, 1.0, 4, 0.25, true, noise.NewStream(24))
	got := lb.Query([]int{1, 3, 5, 7})
	if got.Size() != 16 {
		t.Fatalf("size = %d", got.Size())
	}
	for _, v := range got.Cells {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("non-finite cell %v", v)
		}
	}
}

func TestRedistributePreservesTotal(t *testing.T) {
	tab := marginal.New([]int{0, 1})
	tab.Cells = []float64{-4, 10, 6, 2}
	total := tab.Total()
	redistribute(tab)
	if math.Abs(tab.Total()-total) > 1e-9 {
		t.Errorf("total %v -> %v", total, tab.Total())
	}
	for _, v := range tab.Cells {
		if v < 0 {
			t.Errorf("negative cell %v after redistribute", v)
		}
	}
}

func TestMWEMBasicVariant(t *testing.T) {
	data := synth.MSNBC(20000, 25)
	basic := NewMWEM(data, 2.0, MWEMConfig{K: 2, T: 6, Basic: true}, noise.NewStream(26))
	got := basic.Query([]int{0, 1})
	if math.Abs(got.Total()-20000) > 1 {
		t.Errorf("basic MWEM total = %v", got.Total())
	}
	// The improved variant should typically beat the basic one; check
	// both at least answer, and the improved one is not wildly worse.
	improved := NewMWEM(data, 2.0, MWEMConfig{K: 2, T: 6, ReplaySweeps: 30}, noise.NewStream(26))
	queries := [][]int{{0, 1}, {2, 5}, {3, 7}, {4, 8}}
	var errBasic, errImproved float64
	for _, q := range queries {
		truth := data.Marginal(q)
		errBasic += accuracy.L2Error(basic.Query(q), truth)
		errImproved += accuracy.L2Error(improved.Query(q), truth)
	}
	if errImproved > errBasic*2 {
		t.Errorf("improved MWEM (%v) much worse than basic (%v)", errImproved, errBasic)
	}
}
