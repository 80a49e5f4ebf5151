package consistency

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"priview/internal/attrset"
	"priview/internal/marginal"
	"priview/internal/noise"
)

// closureOverall is §4.4's procedure step by step, the reference that
// Overall (weighted false) and OverallWeighted (weighted true) are held
// to: it computes the closure of the view attribute sets under
// intersection, orders it by a linear extension of the subset partial
// order (size ascending, so the empty set — total-count consistency —
// comes first), and runs mutualOnSet for each closure set over the
// views containing it. By Lemma 1, later steps never invalidate earlier
// ones.
func closureOverall(views []*marginal.Table, weighted bool) {
	if len(views) < 2 {
		return
	}
	viewMasks := make([]attrset.Set, len(views))
	for i, v := range views {
		viewMasks[i] = v.Mask()
	}
	sets := attrset.IntersectionClosure(viewMasks)
	group := make([]*marginal.Table, 0, len(views))
	for _, mask := range sets {
		group = group[:0]
		for i, vm := range viewMasks {
			if mask.Subset(vm) {
				group = append(group, views[i])
			}
		}
		if len(group) >= 2 {
			mutualOnSet(group, mask.Attrs(), weighted)
		}
	}
}

// mutualOnSet is Lemma 1's step: it enforces consistency of the given
// views on the attribute set A, which must be a subset of every view's
// attributes. The common estimate is the mean of the views' projections
// onto A, uniform or, when weighted, with inverse-variance weights
// 2^{-|V_i|} (a view projects onto A by summing 2^{|V_i|-|A|} cells, so
// its projection's variance is ∝ 2^{|V_i|}). Every view is updated
// additively so its projection onto A equals the estimate, leaving its
// marginals over attributes outside A untouched. It returns the agreed
// estimate.
func mutualOnSet(views []*marginal.Table, a []int, weighted bool) *marginal.Table {
	est := marginal.New(a)
	projections := make([]*marginal.Table, len(views))
	wSum := 0.0
	for i, v := range views {
		projections[i] = v.Project(a)
		w := 1.0
		if weighted {
			w = 1 / float64(int(1)<<uint(v.Dim()))
		}
		wSum += w
		for c := range est.Cells {
			est.Cells[c] += w * projections[i].Cells[c]
		}
	}
	est.Scale(1 / wSum)
	for i, v := range views {
		applyEstimate(v, est, projections[i])
	}
	return est
}

// applyEstimate updates view so its projection on est.Attrs equals est,
// distributing each cell's correction evenly over the view cells that
// project to it: T(c) += (est(a) − proj(a)) / 2^{|V|−|A|}.
func applyEstimate(view, est, proj *marginal.Table) {
	ridx := view.RestrictIndices(est.Attrs)
	share := 1 / float64(int(1)<<uint(view.Dim()-est.Dim()))
	corr := make([]float64, len(est.Cells))
	for i := range est.Cells {
		corr[i] = (est.Cells[i] - proj.Cells[i]) * share
	}
	for c := range view.Cells {
		view.Cells[c] += corr[ridx[c]]
	}
}

// TestPaperWorkedExample reproduces the §4.4 worked example: views over
// {a1,a2} and {a1,a3} made consistent on {a1}.
func TestPaperWorkedExample(t *testing.T) {
	const a1, a2, a3 = 1, 2, 3
	v1 := marginal.New([]int{a1, a2})
	// Index bit0 = a1, bit1 = a2.
	v1.Cells[0b00] = 0.3 // a1=0, a2=0
	v1.Cells[0b01] = 0.3 // a1=1, a2=0
	v1.Cells[0b10] = 0.3 // a1=0, a2=1
	v1.Cells[0b11] = 0.1
	v2 := marginal.New([]int{a1, a3})
	v2.Cells[0b00] = 0.2
	v2.Cells[0b01] = 0.1
	v2.Cells[0b10] = 0.3
	v2.Cells[0b11] = 0.4

	est := mutualOnSet([]*marginal.Table{v1, v2}, []int{a1}, false)
	if math.Abs(est.Cells[0]-0.55) > 1e-12 || math.Abs(est.Cells[1]-0.45) > 1e-12 {
		t.Fatalf("estimate = %v, want [0.55 0.45]", est.Cells)
	}
	// V1 after: a1=0 cells gain -0.025, a1=1 cells gain +0.025.
	wantV1 := []float64{0.275, 0.325, 0.275, 0.125}
	for i := range wantV1 {
		if math.Abs(v1.Cells[i]-wantV1[i]) > 1e-12 {
			t.Errorf("v1.Cells[%d] = %v, want %v", i, v1.Cells[i], wantV1[i])
		}
	}
	wantV2 := []float64{0.225, 0.075, 0.325, 0.375}
	for i := range wantV2 {
		if math.Abs(v2.Cells[i]-wantV2[i]) > 1e-12 {
			t.Errorf("v2.Cells[%d] = %v, want %v", i, v2.Cells[i], wantV2[i])
		}
	}
	// Projections on the attributes not involved are unchanged.
	p2 := v1.Project([]int{a2})
	if math.Abs(p2.Cells[0]-0.6) > 1e-12 || math.Abs(p2.Cells[1]-0.4) > 1e-12 {
		t.Errorf("v1 projected on a2 = %v, want [0.6 0.4]", p2.Cells)
	}
	p3 := v2.Project([]int{a3})
	if math.Abs(p3.Cells[0]-0.3) > 1e-12 || math.Abs(p3.Cells[1]-0.7) > 1e-12 {
		t.Errorf("v2 projected on a3 = %v, want [0.3 0.7]", p3.Cells)
	}
	// And the two views now agree on a1.
	if !IsPairwiseConsistent([]*marginal.Table{v1, v2}, 1e-12) {
		t.Error("views not consistent after mutualOnSet")
	}
}

func randomView(r *rand.Rand, attrs []int, total float64) *marginal.Table {
	v := marginal.New(attrs)
	sum := 0.0
	for i := range v.Cells {
		v.Cells[i] = r.Float64()
		sum += v.Cells[i]
	}
	v.Scale(total / sum)
	return v
}

// Property (Lemma 1): after enforcing consistency on A, a further
// consistency step on B ⊇ A between the same views leaves each view's
// projection onto attributes outside B, and onto A itself, unchanged.
func TestLemma1(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v1 := randomView(r, []int{0, 1, 2, 3}, 100)
		v2 := randomView(r, []int{1, 2, 4, 5}, 100)
		views := []*marginal.Table{v1, v2}
		mutualOnSet(views, []int{1}, false) // consistent on A = {1}
		beforeA := v1.Project([]int{1})
		beforeOut := v1.Project([]int{0, 3})   // subset of (V1 \ V2) ∪ A
		mutualOnSet(views, []int{1, 2}, false) // B = V1 ∩ V2 ⊇ A
		afterA := v1.Project([]int{1})
		afterOut := v1.Project([]int{0, 3})
		return marginal.Equal(beforeA, afterA, 1e-9) &&
			marginal.Equal(beforeOut, afterOut, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: mutualOnSet equalizes totals (consistency on ∅ follows from
// consistency on any A) and preserves the group's mean total.
func TestMutualPreservesMeanTotal(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v1 := randomView(r, []int{0, 1, 2}, 90+20*r.Float64())
		v2 := randomView(r, []int{1, 2, 3}, 90+20*r.Float64())
		v3 := randomView(r, []int{1, 2, 5, 6}, 90+20*r.Float64())
		mean := (v1.Total() + v2.Total() + v3.Total()) / 3
		mutualOnSet([]*marginal.Table{v1, v2, v3}, []int{1, 2}, false)
		return math.Abs(v1.Total()-mean) < 1e-9 &&
			math.Abs(v2.Total()-mean) < 1e-9 &&
			math.Abs(v3.Total()-mean) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: Overall achieves Definition 2 pairwise consistency for
// arbitrary overlapping noisy view sets.
func TestOverallAchievesPairwiseConsistency(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		attrSets := [][]int{
			{0, 1, 2, 3}, {2, 3, 4, 5}, {0, 4, 5, 6}, {1, 3, 5, 7}, {0, 2, 6, 7},
		}
		views := make([]*marginal.Table, len(attrSets))
		for i, a := range attrSets {
			views[i] = randomView(r, a, 100)
		}
		Overall(views)
		return IsPairwiseConsistent(views, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestOverallWithDisjointViews(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	v1 := randomView(r, []int{0, 1}, 100)
	v2 := randomView(r, []int{2, 3}, 110)
	Overall([]*marginal.Table{v1, v2})
	// Only the empty intersection is shared: totals must be reconciled.
	if math.Abs(v1.Total()-105) > 1e-9 || math.Abs(v2.Total()-105) > 1e-9 {
		t.Errorf("totals = %v, %v; want both 105", v1.Total(), v2.Total())
	}
}

func TestOverallWithNestedViews(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	big := randomView(r, []int{0, 1, 2}, 100)
	small := randomView(r, []int{1, 2}, 120)
	Overall([]*marginal.Table{big, small})
	if !IsPairwiseConsistent([]*marginal.Table{big, small}, 1e-9) {
		t.Error("nested views inconsistent after Overall")
	}
}

func TestOverallSingleViewNoop(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	v := randomView(r, []int{0, 1}, 50)
	orig := v.Clone()
	Overall([]*marginal.Table{v})
	if !marginal.Equal(v, orig, 0) {
		t.Error("Overall mutated a single view")
	}
}

// Property: Overall and OverallWeighted equal §4.4's closure sweep up to
// rounding, on random designs whose blocks mix sizes 0 to 8 and come
// fresh, duplicated, nested in, wrapped around or disjoint from an
// earlier block.
func TestOverallMatchesClosureOracle(t *testing.T) {
	const d = 14
	for seed := int64(0); seed < 120; seed++ {
		r := rand.New(rand.NewSource(seed))
		masks := make([]attrset.Set, 2+r.Intn(11))
		for i := range masks {
			masks[i] = randomBlock(r, d, masks[:i])
		}
		scale := math.Pow(10, float64(r.Intn(7)))
		for _, weighted := range []bool{false, true} {
			got := make([]*marginal.Table, len(masks))
			want := make([]*marginal.Table, len(masks))
			for i, m := range masks {
				got[i] = marginal.New(m.Attrs())
				for c := range got[i].Cells {
					got[i].Cells[c] = scale * (r.Float64() - 0.2)
				}
				want[i] = got[i].Clone()
			}
			if weighted {
				OverallWeighted(got)
			} else {
				Overall(got)
			}
			closureOverall(want, weighted)
			tol := 0.0
			for _, v := range want {
				for _, c := range v.Cells {
					tol = math.Max(tol, math.Abs(c))
				}
			}
			tol = 1e-9 * math.Max(1, tol)
			for i := range got {
				if gap := marginal.MaxAbsDiff(got[i], want[i]); gap > tol {
					t.Fatalf("seed %d weighted=%v: view %d %v is %v from the closure sweep (tol %v); design %v",
						seed, weighted, i, masks[i], gap, tol, masks)
				}
			}
		}
	}
}

// randomBlock draws a block over attributes [0, d) of 0 to 8
// attributes: a fresh one, or a duplicate of, a subset of, a superset
// of or one disjoint from a block in earlier.
func randomBlock(r *rand.Rand, d int, earlier []attrset.Set) attrset.Set {
	fresh := func(from attrset.Set, size int) attrset.Set {
		attrs := from.Attrs()
		r.Shuffle(len(attrs), func(i, j int) { attrs[i], attrs[j] = attrs[j], attrs[i] })
		return attrset.MustFromAttrs(attrs[:min(size, len(attrs))])
	}
	all := attrset.Set(1)<<uint(d) - 1
	if len(earlier) == 0 {
		return fresh(all, r.Intn(9))
	}
	e := earlier[r.Intn(len(earlier))]
	switch r.Intn(5) {
	case 0:
		return e
	case 1:
		return fresh(e, r.Intn(e.Card()+1))
	case 2:
		return e | fresh(all&^e, r.Intn(9-e.Card()))
	case 3:
		return fresh(all&^e, r.Intn(9))
	default:
		return fresh(all, r.Intn(9))
	}
}

// Overall consistency improves accuracy: averaging redundant noisy
// observations of the same marginal must reduce error vs. the truth.
func TestOverallImprovesAccuracy(t *testing.T) {
	src := noise.NewStream(12)
	// Truth: three views over identical attributes (maximal redundancy).
	truth := marginal.New([]int{0, 1, 2})
	for i := range truth.Cells {
		truth.Cells[i] = 100 + 10*float64(i)
	}
	var errBefore, errAfter float64
	const reps = 40
	for rep := 0; rep < reps; rep++ {
		views := []*marginal.Table{
			truth.NoisyCopy(src, 10),
			truth.NoisyCopy(src, 10),
			truth.NoisyCopy(src, 10),
		}
		for _, v := range views {
			errBefore += marginal.L2Distance(v, truth)
		}
		Overall(views)
		for _, v := range views {
			errAfter += marginal.L2Distance(v, truth)
		}
	}
	if errAfter >= errBefore*0.75 {
		t.Errorf("consistency did not average out noise: before=%v after=%v", errBefore, errAfter)
	}
}

func TestIntersectionClosureContainsPairwise(t *testing.T) {
	masks := []attrset.Set{
		attrset.Of(0, 1, 2),
		attrset.Of(1, 2, 3),
		attrset.Of(2, 3, 4),
	}
	sets := attrset.IntersectionClosure(masks)
	found := map[attrset.Set]bool{}
	for _, s := range sets {
		found[s] = true
	}
	// Pairwise intersections contained in ≥2 views, plus ∅.
	for _, want := range []attrset.Set{attrset.Of(1, 2), attrset.Of(2, 3), attrset.Of(2), 0} {
		if !found[want] {
			t.Errorf("closure missing %v (have %v)", want, sets)
		}
	}
	// Sorted ascending by size.
	for i := 1; i < len(sets); i++ {
		if sets[i].Card() < sets[i-1].Card() {
			t.Error("closure not sorted by size")
		}
	}
}

func TestOutOfRangeAttributeRejectedAtTableBoundary(t *testing.T) {
	// The old attrsToMask panicked deep inside the consistency pass on
	// attribute indices ≥ 64. The d < 64 invariant is now enforced when
	// the table is built — a view over attribute 64 can never reach
	// Overall — and surfaces as a typed attrset error at the input
	// boundaries (core.Config.Validate, core.Load).
	if _, err := attrset.FromAttrs([]int{64}); !errors.Is(err, attrset.ErrRange) {
		t.Fatalf("FromAttrs(64) error = %v, want attrset.ErrRange", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected marginal.New to panic for attribute 64")
		}
	}()
	marginal.New([]int{64})
}

func TestRippleClearsNegatives(t *testing.T) {
	tab := marginal.New([]int{0, 1, 2})
	tab.Cells = []float64{10, -5, 8, 2, -3, 7, 1, 4}
	total := tab.Total()
	Ripple(tab, 0.5)
	if math.Abs(tab.Total()-total) > 1e-9 {
		t.Errorf("Ripple changed total: %v -> %v", total, tab.Total())
	}
	for i, v := range tab.Cells {
		if v < -0.5 {
			t.Errorf("cell %d = %v still below -θ", i, v)
		}
	}
}

func TestRipplePreservesNonnegativeTable(t *testing.T) {
	tab := marginal.New([]int{0, 1})
	tab.Cells = []float64{1, 2, 3, 4}
	orig := tab.Clone()
	Ripple(tab, 0.5)
	if !marginal.Equal(tab, orig, 0) {
		t.Error("Ripple modified a non-negative table")
	}
}

func TestRippleHeavyNegativity(t *testing.T) {
	// Mostly negative table: ripple must terminate and preserve total.
	tab := marginal.New([]int{0, 1, 2, 3})
	for i := range tab.Cells {
		tab.Cells[i] = -10
	}
	tab.Cells[0] = 500
	total := tab.Total()
	Ripple(tab, 0.5)
	if math.Abs(tab.Total()-total) > 1e-6 {
		t.Errorf("total changed: %v -> %v", total, tab.Total())
	}
	for i, v := range tab.Cells {
		if v < -0.5 {
			t.Errorf("cell %d = %v below -θ after ripple", i, v)
		}
	}
}

func TestRipplePanicsOnBadTheta(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for θ <= 0")
		}
	}()
	Ripple(marginal.New([]int{0}), 0)
}

func TestRippleZeroWayTable(t *testing.T) {
	tab := marginal.New(nil)
	tab.Cells[0] = -3
	Ripple(tab, 0.5) // must not panic or loop
	if tab.Cells[0] != -3 {
		t.Error("0-way ripple should be a no-op")
	}
}

func TestGlobalPreservesTotal(t *testing.T) {
	tab := marginal.New([]int{0, 1, 2})
	tab.Cells = []float64{10, -5, 8, 2, -3, 7, 1, 4}
	total := tab.Total()
	Global(tab)
	if math.Abs(tab.Total()-total) > 1e-9 {
		t.Errorf("Global changed total: %v -> %v", total, tab.Total())
	}
	for i, v := range tab.Cells {
		if v < 0 {
			t.Errorf("cell %d = %v negative after Global", i, v)
		}
	}
}

func TestGlobalAllNegative(t *testing.T) {
	tab := marginal.New([]int{0, 1})
	tab.Cells = []float64{-1, -2, -3, -4}
	Global(tab) // must terminate; table becomes all zero
	for i, v := range tab.Cells {
		if v != 0 {
			t.Errorf("cell %d = %v, want 0", i, v)
		}
	}
}

func TestApplyDispatch(t *testing.T) {
	mk := func() *marginal.Table {
		tab := marginal.New([]int{0, 1})
		tab.Cells = []float64{5, -2, 3, 1}
		return tab
	}
	none := mk()
	Apply(NonnegNone, none, DefaultRippleTheta)
	if none.Cells[1] != -2 {
		t.Error("None modified the table")
	}
	simple := mk()
	Apply(NonnegSimple, simple, DefaultRippleTheta)
	if simple.Cells[1] != 0 || math.Abs(simple.Total()-9) > 1e-12 {
		t.Errorf("Simple: cells=%v total=%v", simple.Cells, simple.Total())
	}
	global := mk()
	Apply(NonnegGlobal, global, DefaultRippleTheta)
	if math.Abs(global.Total()-7) > 1e-9 {
		t.Errorf("Global total = %v, want 7", global.Total())
	}
	ripple := mk()
	Apply(NonnegRipple, ripple, DefaultRippleTheta)
	if math.Abs(ripple.Total()-7) > 1e-9 {
		t.Errorf("Ripple total = %v, want 7", ripple.Total())
	}
}

func TestNonnegMethodString(t *testing.T) {
	cases := map[NonnegMethod]string{
		NonnegNone: "None", NonnegSimple: "Simple",
		NonnegGlobal: "Global", NonnegRipple: "Ripple",
	}
	for m, want := range cases {
		if m.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(m), m.String(), want)
		}
	}
}

// Ripple avoids the systematic bias Simple introduces: on a table with
// many true-zero cells plus noise, the reconstructed total should stay
// near the truth, while Simple inflates it.
func TestRippleAvoidsClampingBias(t *testing.T) {
	src := noise.NewStream(77)
	truth := marginal.New([]int{0, 1, 2, 3, 4, 5})
	truth.Cells[0] = 640 // all mass in one cell; the rest are zero
	var simpleBias, rippleBias float64
	const reps = 60
	for rep := 0; rep < reps; rep++ {
		a := truth.NoisyCopy(src, 8)
		b := a.Clone()
		Apply(NonnegSimple, a, DefaultRippleTheta)
		Apply(NonnegRipple, b, DefaultRippleTheta)
		simpleBias += a.Total() - truth.Total()
		rippleBias += b.Total() - truth.Total()
	}
	simpleBias /= reps
	rippleBias /= reps
	if simpleBias < 50 {
		t.Logf("note: expected Simple to inflate totals, got bias %v", simpleBias)
	}
	if math.Abs(rippleBias) > simpleBias/2 {
		t.Errorf("Ripple bias %v not clearly smaller than Simple bias %v", rippleBias, simpleBias)
	}
}

func TestWeightedEqualsUniformForEqualSizes(t *testing.T) {
	r := rand.New(rand.NewSource(80))
	mk := func(attrs []int) *marginal.Table {
		v := randomView(r, attrs, 100)
		return v
	}
	a1 := mk([]int{0, 1, 2})
	a2 := mk([]int{1, 2, 3})
	b1 := a1.Clone()
	b2 := a2.Clone()
	Overall([]*marginal.Table{a1, a2})
	OverallWeighted([]*marginal.Table{b1, b2})
	if !marginal.Equal(a1, b1, 1e-9) || !marginal.Equal(a2, b2, 1e-9) {
		t.Error("weighted consistency differs from uniform for equal-size views")
	}
}

func TestWeightedBeatsUniformForMixedSizes(t *testing.T) {
	// One small and one large view of the same truth: the small view's
	// projection carries less noise, so weighting toward it should give
	// a better common estimate on average.
	src := noise.NewStream(81)
	truthBig := marginal.New([]int{0, 1, 2, 3, 4, 5})
	for i := range truthBig.Cells {
		truthBig.Cells[i] = 50 + float64(i%7)
	}
	truthSmall := truthBig.Project([]int{0, 1})
	truthA := truthBig.Project([]int{0})
	var errU, errW float64
	const reps = 300
	for rep := 0; rep < reps; rep++ {
		big := truthBig.NoisyCopy(src, 5)
		small := truthSmall.NoisyCopy(src, 5)
		bigW := big.Clone()
		smallW := small.Clone()
		estU := mutualOnSet([]*marginal.Table{big, small}, []int{0}, false)
		estW := mutualOnSet([]*marginal.Table{bigW, smallW}, []int{0}, true)
		errU += marginal.L2Distance(estU, truthA)
		errW += marginal.L2Distance(estW, truthA)
	}
	if errW >= errU {
		t.Errorf("weighted estimate (%v) not better than uniform (%v)", errW, errU)
	}
}
