package core

import (
	"math"
	"runtime"
	"testing"

	"priview/internal/accuracy"
	"priview/internal/consistency"
	"priview/internal/covering"
	"priview/internal/dataset/synth"
	"priview/internal/marginal"
	"priview/internal/noise"
)

func kosarakDesign(t *testing.T) *covering.Design {
	t.Helper()
	dg := covering.Best(32, 8, 2, 1, 2)
	if err := dg.Verify(); err != nil {
		t.Fatal(err)
	}
	return dg
}

func TestBuildSynopsisViewsConsistent(t *testing.T) {
	data := synth.Kosarak(20000, 1)
	s := BuildSynopsis(data, Config{Epsilon: 1, Design: kosarakDesign(t)}, noise.NewStream(2))
	if !consistency.IsPairwiseConsistent(s.Views(), 1e-6) {
		t.Error("synopsis views not pairwise consistent")
	}
	if s.Total() <= 0 {
		t.Errorf("total = %v, want positive", s.Total())
	}
}

func TestQueryCoveredMatchesProjection(t *testing.T) {
	data := synth.Kosarak(20000, 3)
	dg := kosarakDesign(t)
	s := BuildSynopsis(data, Config{Epsilon: 1, Design: dg}, noise.NewStream(4))
	// Pick attributes from the first block: fully covered.
	attrs := dg.Blocks[0][:3]
	got := s.Query(attrs)
	want := reconstructCovered(s, attrs)
	if !marginal.Equal(got, want, 1e-9) {
		t.Error("covered query does not match view projection")
	}
}

func reconstructCovered(s *Synopsis, attrs []int) *marginal.Table {
	for _, v := range s.Views() {
		if marginal.Subset(attrs, v.Attrs) {
			return v.Project(attrs)
		}
	}
	return nil
}

func TestQueryUncoveredReasonable(t *testing.T) {
	data := synth.Kosarak(100000, 5)
	s := BuildSynopsis(data, Config{Epsilon: 1, Design: kosarakDesign(t)}, noise.NewStream(6))
	// Attributes spread across blocks: k=4 set unlikely to be covered.
	attrs := []int{0, 9, 17, 30}
	got := s.Query(attrs)
	truth := data.Marginal(attrs)
	nerr := accuracy.NormalizedL2Error(got, truth, float64(data.Len()))
	// PriView's headline claim: far better than Direct's noise floor.
	direct := math.Sqrt(float64(int(1)<<4)*math.Pow(float64(covering.Binom(32, 4)), 2)*2) / float64(data.Len())
	if nerr > direct/10 {
		t.Errorf("PriView error %v not well below Direct's %v", nerr, direct)
	}
	if got.Total() < 0 {
		t.Errorf("reconstructed total %v negative", got.Total())
	}
}

func TestNoNoiseSynopsisNearExactOnCovered(t *testing.T) {
	data := synth.Kosarak(5000, 7)
	dg := kosarakDesign(t)
	s := BuildSynopsis(data, Config{Design: dg, NoNoise: true}, nil)
	attrs := dg.Blocks[2][:4]
	got := s.Query(attrs)
	truth := data.Marginal(attrs)
	if !marginal.Equal(got, truth, 1e-6) {
		t.Error("noise-free covered query deviates from truth")
	}
}

func TestNoNoiseUncoveredSmallError(t *testing.T) {
	// With no noise, the only error is coverage error; for a mildly
	// correlated dataset maxent should land close to the truth.
	data := synth.Uniform(32, 30000, 0.4, 8)
	s := BuildSynopsis(data, Config{Design: kosarakDesign(t), NoNoise: true}, nil)
	attrs := []int{1, 10, 20, 31}
	got := s.Query(attrs)
	truth := data.Marginal(attrs)
	nerr := accuracy.NormalizedL2Error(got, truth, float64(data.Len()))
	if nerr > 0.02 {
		t.Errorf("noise-free error %v too large for independent data", nerr)
	}
}

func TestReconstructMethodsAllRun(t *testing.T) {
	data := synth.Kosarak(20000, 9)
	dg := kosarakDesign(t)
	attrs := []int{0, 9, 17, 30}
	truth := data.Marginal(attrs)
	for _, m := range []ReconstructMethod{CME, CLN, LP, CLP} {
		cfg := Config{Epsilon: 1, Design: dg, Method: m}
		if m == LP {
			cfg.SkipPostprocess = true
		}
		s := BuildSynopsis(data, cfg, noise.NewStream(10))
		got := s.Query(attrs)
		if got.Size() != truth.Size() {
			t.Fatalf("%v: size %d", m, got.Size())
		}
		for _, v := range got.Cells {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%v: non-finite cell", m)
			}
		}
	}
}

func TestCMEBeatsLPOnUncovered(t *testing.T) {
	// Fig. 3's qualitative finding: CME < CLN/CLP < LP in error. We
	// check the endpoints over a few queries.
	data := synth.Kosarak(200000, 11)
	dg := kosarakDesign(t)
	queries := [][]int{{0, 9, 17, 30}, {2, 11, 19, 28}, {5, 13, 22, 31}}
	var errCME, errLP float64
	cme := BuildSynopsis(data, Config{Epsilon: 1, Design: dg, Method: CME}, noise.NewStream(12))
	lpS := BuildSynopsis(data, Config{Epsilon: 1, Design: dg, Method: LP, SkipPostprocess: true}, noise.NewStream(12))
	for _, q := range queries {
		truth := data.Marginal(q)
		errCME += accuracy.L2Error(cme.Query(q), truth)
		errLP += accuracy.L2Error(lpS.Query(q), truth)
	}
	if errCME >= errLP {
		t.Errorf("CME error %v not below LP error %v", errCME, errLP)
	}
}

func TestQueryDeterministicGivenSynopsis(t *testing.T) {
	data := synth.Kosarak(5000, 13)
	s := BuildSynopsis(data, Config{Epsilon: 1, Design: kosarakDesign(t)}, noise.NewStream(14))
	a := s.Query([]int{3, 12, 21, 30})
	b := s.Query([]int{3, 12, 21, 30})
	if !marginal.Equal(a, b, 1e-12) {
		t.Error("query answers differ between invocations")
	}
}

func TestFromViews(t *testing.T) {
	data := synth.MSNBC(5000, 15)
	dg := covering.Groups(9, 6)
	views := make([]*marginal.Table, dg.W())
	src := noise.NewStream(16)
	for i, b := range dg.Blocks {
		views[i] = data.Marginal(b)
		views[i].AddLaplace(src, 3)
	}
	s := FromViews(views, Config{Epsilon: 1, Design: dg})
	if !consistency.IsPairwiseConsistent(s.Views(), 1e-6) {
		t.Error("FromViews synopsis not consistent")
	}
	got := s.Query([]int{0, 4, 8})
	if got.Size() != 8 {
		t.Errorf("size = %d", got.Size())
	}
}

func TestBuildSynopsisValidation(t *testing.T) {
	data := synth.MSNBC(100, 17)
	for name, cfg := range map[string]Config{
		"nil design":   {Epsilon: 1},
		"zero epsilon": {Design: covering.Groups(9, 6)},
		"wrong d":      {Epsilon: 1, Design: covering.Groups(10, 6)},
	} {
		func() {
			defer func() { _ = recover() }()
			BuildSynopsis(data, cfg, noise.NewStream(1))
			t.Errorf("%s: expected panic", name)
		}()
	}
}

func TestSynopsisName(t *testing.T) {
	data := synth.MSNBC(100, 18)
	dg := covering.Groups(9, 6)
	s := BuildSynopsis(data, Config{Epsilon: 1, Design: dg}, noise.NewStream(19))
	if s.Name() != "PriView(C2(6,3))" {
		t.Errorf("Name = %q", s.Name())
	}
}

func TestPlanDesignPicksHigherTForGenerousBudget(t *testing.T) {
	if testing.Short() {
		t.Skipf("skipping in -short mode: plans designs across a budget sweep")
	}
	// Kosarak-scale: d=32, N≈900k. At ε=1 the paper chooses t=3; at
	// ε=0.1 it falls back to t=2.
	rich := PlanDesign(32, 900000, 1.0, 1)
	if rich.Design.T < 3 {
		t.Errorf("ε=1: planned t=%d, want ≥3", rich.Design.T)
	}
	poor := PlanDesign(32, 900000, 0.1, 1)
	if poor.Design.T != 2 {
		t.Errorf("ε=0.1: planned t=%d, want 2", poor.Design.T)
	}
}

func TestPlanDesignSmallD(t *testing.T) {
	p := PlanDesign(6, 10000, 1.0, 1)
	if p.Design == nil || p.Design.L > 6 {
		t.Fatalf("plan for d=6: %+v", p)
	}
	if err := p.Design.Verify(); err != nil {
		t.Error(err)
	}
}

func TestNoiseErrorMatchesEquation5(t *testing.T) {
	dg := &covering.Design{D: 32, T: 2, L: 8, Blocks: make([][]int, 20)}
	got := NoiseError(dg, 1.0, 900000)
	if math.Abs(got-0.00047)/0.00047 > 0.05 {
		t.Errorf("NoiseError = %v, want ≈0.00047 (paper's table)", got)
	}
}

func TestNoisyCount(t *testing.T) {
	data := synth.MSNBC(50000, 20)
	n := NoisyCount(data, 0.001, noise.NewStream(21))
	if math.Abs(n-50000) > 50000*0.5 {
		t.Errorf("noisy count %v too far from 50000", n)
	}
	if n < 1 {
		t.Error("noisy count below floor")
	}
}

func TestNonnegRoundsRipple3EquivalentQuality(t *testing.T) {
	// Fig. 4: Ripple_3 performs as well as Ripple_1 — check both run
	// and produce consistent synopses.
	data := synth.Kosarak(30000, 22)
	dg := kosarakDesign(t)
	for _, rounds := range []int{1, 3} {
		cfg := Config{Epsilon: 1, Design: dg, Nonneg: consistency.NonnegRipple, NonnegRounds: rounds}
		s := BuildSynopsis(data, cfg, noise.NewStream(23))
		if !consistency.IsPairwiseConsistent(s.Views(), 1e-6) {
			t.Errorf("rounds=%d: views inconsistent", rounds)
		}
	}
}

// On the same data and noise, a Ripple build publishes fewer cells
// below -θ, and a higher lowest cell, than a build with no
// non-negativity step. The final consistency pass runs after Ripple, so
// some negative cells remain.
func TestRippleBuildPublishesFewerNegativeCells(t *testing.T) {
	data := synth.Kosarak(30000, 24)
	dg := kosarakDesign(t)
	negatives := func(m consistency.NonnegMethod) (below int, lowest float64) {
		s := BuildSynopsis(data, Config{Epsilon: 1, Design: dg, Nonneg: m}, noise.NewStream(25))
		for _, v := range s.Views() {
			for _, c := range v.Cells {
				if c < -consistency.DefaultRippleTheta {
					below++
				}
				lowest = math.Min(lowest, c)
			}
		}
		return below, lowest
	}
	noneBelow, noneLowest := negatives(consistency.NonnegNone)
	rippleBelow, rippleLowest := negatives(consistency.NonnegRipple)
	if rippleBelow >= noneBelow || rippleLowest <= noneLowest {
		t.Errorf("Ripple: %d cells below -θ, lowest %v; None: %d, lowest %v",
			rippleBelow, rippleLowest, noneBelow, noneLowest)
	}
}

func TestMethodString(t *testing.T) {
	cases := map[ReconstructMethod]string{CME: "CME", CLN: "CLN", LP: "LP", CLP: "CLP"}
	for m, want := range cases {
		if m.String() != want {
			t.Errorf("String() = %q, want %q", m.String(), want)
		}
	}
}

// BuildSynopsis counts views in parallel but draws their noise in block
// order, so one seed publishes bit-identical views whatever GOMAXPROCS
// is.
func TestParallelBuildDeterministic(t *testing.T) {
	data := synth.Kosarak(5000, 30)
	dg := kosarakDesign(t)
	old := runtime.GOMAXPROCS(4)
	a := BuildSynopsis(data, Config{Epsilon: 1, Design: dg}, noise.NewStream(5))
	runtime.GOMAXPROCS(1)
	b := BuildSynopsis(data, Config{Epsilon: 1, Design: dg}, noise.NewStream(5))
	runtime.GOMAXPROCS(old)
	if len(a.Views()) != len(b.Views()) {
		t.Fatal("view counts differ")
	}
	for i := range a.Views() {
		if !bitIdentical(a.rawViews[i].Cells, b.rawViews[i].Cells) ||
			!bitIdentical(a.Views()[i].Cells, b.Views()[i].Cells) {
			t.Fatalf("view %d differs between GOMAXPROCS 4 and 1 under one seed", i)
		}
	}
}

// Gaussian noise beats Laplace for large designs: the L2 budget split
// (σ ∝ √w) wins over Laplace's L1 split (scale ∝ w) once w exceeds
// ~2·ln(1.25/δ).
func TestGaussianBeatsLaplaceForLargeW(t *testing.T) {
	if testing.Short() {
		t.Skipf("skipping in -short mode: builds synopses at several w")
	}
	data := synth.Kosarak(100000, 70)
	dg := covering.Best(32, 8, 3, 1, 2) // w ≈ 170 views
	attrs := []int{0, 9, 17, 30}
	truth := data.Marginal(attrs)
	n := float64(data.Len())
	var errL, errG float64
	const reps = 3
	for r := 0; r < reps; r++ {
		lap := BuildSynopsis(data, Config{Epsilon: 1, Design: dg}, noise.NewStream(int64(300+r)))
		gau := BuildSynopsis(data, Config{Epsilon: 1, Delta: 1e-6, Noise: GaussianNoise, Design: dg},
			noise.NewStream(int64(400+r)))
		errL += accuracy.NormalizedL2Error(lap.Query(attrs), truth, n)
		errG += accuracy.NormalizedL2Error(gau.Query(attrs), truth, n)
	}
	if errG >= errL {
		t.Errorf("Gaussian (%v) not better than Laplace (%v) at w=%d", errG, errL, dg.W())
	}
}

func TestGaussianNoiseRequiresDelta(t *testing.T) {
	data := synth.MSNBC(100, 71)
	dg := covering.Groups(9, 6)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Gaussian without Delta")
		}
	}()
	BuildSynopsis(data, Config{Epsilon: 1, Noise: GaussianNoise, Design: dg}, noise.NewStream(72))
}

func TestUnknownNoiseKindPanics(t *testing.T) {
	data := synth.MSNBC(100, 73)
	dg := covering.Groups(9, 6)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unknown noise kind")
		}
	}()
	BuildSynopsis(data, Config{Epsilon: 1, Noise: NoiseKind(9), Design: dg}, noise.NewStream(74))
}
