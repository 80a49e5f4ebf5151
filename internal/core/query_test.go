package core

import (
	"math"
	"testing"

	"priview/internal/covering"
	"priview/internal/dataset/synth"
	"priview/internal/marginal"
	"priview/internal/noise"
)

// TestQueryMethodDoesNotMutate verifies concurrent-safe method
// selection: QueryMethod with an alternative estimator leaves the
// configured default untouched.
func TestQueryMethodDoesNotMutate(t *testing.T) {
	data := synth.MSNBC(5000, 40)
	dg := covering.Groups(9, 4)
	s := BuildSynopsis(data, Config{Epsilon: 1, Design: dg, Method: CME}, noise.NewStream(41))
	attrs := []int{0, 3, 6, 8}
	before := s.Query(attrs)
	_ = s.QueryMethod(attrs, CLN)
	after := s.Query(attrs)
	if !marginal.Equal(before, after, 0) {
		t.Error("QueryMethod changed the default estimator's answers")
	}
}

func TestLPCoveredQueryClampsNegatives(t *testing.T) {
	// Raw views can hold negatives; the covered path for LP must clamp.
	data := synth.MSNBC(100, 44) // tiny N: noise dominates, negatives certain
	dg := covering.Groups(9, 6)
	s := BuildSynopsis(data, Config{Epsilon: 0.1, Design: dg, Method: LP, SkipPostprocess: true},
		noise.NewStream(45))
	got := s.Query(dg.Blocks[0][:3])
	for _, v := range got.Cells {
		if v < 0 {
			t.Errorf("negative cell %v in covered LP query", v)
		}
	}
}

func TestSkipPostprocessKeepsRawViews(t *testing.T) {
	data := synth.MSNBC(5000, 46)
	dg := covering.Groups(9, 6)
	s := BuildSynopsis(data, Config{Epsilon: 1, Design: dg, SkipPostprocess: true}, noise.NewStream(47))
	// Raw and processed views must be identical when post-processing is
	// skipped.
	for i := range s.Views() {
		if !marginal.Equal(s.Views()[i], s.rawViews[i], 0) {
			t.Fatal("SkipPostprocess still modified views")
		}
	}
}

func TestTotalNonNegativeEvenAtTinyEps(t *testing.T) {
	data := synth.MSNBC(10, 48)
	dg := covering.Groups(9, 6)
	for seed := int64(0); seed < 10; seed++ {
		s := BuildSynopsis(data, Config{Epsilon: 0.01, Design: dg}, noise.NewStream(seed))
		if s.Total() < 0 {
			t.Errorf("seed %d: negative total %v", seed, s.Total())
		}
		got := s.Query([]int{0, 5})
		if math.IsNaN(got.Total()) {
			t.Errorf("seed %d: NaN total", seed)
		}
	}
}

// TestSkipPostprocessTotalClamped is the regression test for the
// early-return bug: postprocess used to skip the negative-total clamp
// when SkipPostprocess was set, so a raw-LP synopsis could publish a
// negative Total() through /v1/info.
func TestSkipPostprocessTotalClamped(t *testing.T) {
	// Deterministic worst case first: views assembled with outright
	// negative totals (what heavy Laplace noise produces at tiny ε·N).
	views := []*marginal.Table{
		marginal.New([]int{0, 1}),
		marginal.New([]int{2, 3}),
	}
	for _, v := range views {
		v.Fill(-25)
	}
	dg := covering.Groups(4, 2)
	for _, skip := range []bool{true, false} {
		s := FromViews(views, Config{Epsilon: 1, Design: dg, SkipPostprocess: skip})
		if s.Total() < 0 {
			t.Errorf("SkipPostprocess=%v: negative published total %v", skip, s.Total())
		}
	}
	// And the noisy path: heavy negative Laplace draws across seeds. At
	// N=10, ε=0.01 the per-view scale is 600, so negative view totals
	// are common; no seed may publish one.
	data := synth.MSNBC(10, 60)
	dg9 := covering.Groups(9, 6)
	for seed := int64(0); seed < 20; seed++ {
		s := BuildSynopsis(data, Config{Epsilon: 0.01, Design: dg9, SkipPostprocess: true},
			noise.NewStream(seed))
		if s.Total() < 0 {
			t.Errorf("seed %d: SkipPostprocess synopsis published negative total %v", seed, s.Total())
		}
	}
}

func TestEpsilonAndDesignAccessors(t *testing.T) {
	data := synth.MSNBC(100, 49)
	dg := covering.Groups(9, 6)
	s := BuildSynopsis(data, Config{Epsilon: 0.7, Design: dg}, noise.NewStream(50))
	if s.Epsilon() != 0.7 {
		t.Errorf("Epsilon = %v", s.Epsilon())
	}
	if s.Design() != dg {
		t.Error("Design accessor broken")
	}
}

func TestQueryMethodUnknownPanics(t *testing.T) {
	data := synth.MSNBC(100, 51)
	dg := covering.Groups(9, 6)
	s := BuildSynopsis(data, Config{Epsilon: 1, Design: dg}, noise.NewStream(52))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unknown method")
		}
	}()
	s.QueryMethod([]int{0, 5, 7}, ReconstructMethod(99))
}
