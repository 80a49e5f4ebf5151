package reconstruct

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"priview/internal/marginal"
)

func randomJoint(r *rand.Rand, attrs []int, total float64) *marginal.Table {
	t := marginal.New(attrs)
	sum := 0.0
	for i := range t.Cells {
		t.Cells[i] = 0.05 + r.Float64()
		sum += t.Cells[i]
	}
	t.Scale(total / sum)
	return t
}

func maxConstraintViolation(t *marginal.Table, cons []*marginal.Table) float64 {
	worst := 0.0
	for _, c := range cons {
		p := t.Project(c.Attrs)
		if d := marginal.MaxAbsDiff(p, c); d > worst {
			worst = d
		}
	}
	return worst
}

// must returns a solver's table and fails t on its error.
func must(t testing.TB) func(*marginal.Table, error) *marginal.Table {
	return func(tab *marginal.Table, err error) *marginal.Table {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return tab
	}
}

// entropy returns the Shannon entropy (nats) of the normalized table,
// the oracle for the maximum-entropy property.
func entropy(t *marginal.Table) float64 {
	total := t.Total()
	if total <= 0 {
		return 0
	}
	h := 0.0
	for _, v := range t.Cells {
		if v > 0 {
			p := v / total
			h -= p * math.Log(p)
		}
	}
	return h
}

func TestCovered(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	v := randomJoint(r, []int{0, 1, 2, 3}, 100)
	got := Covered([]*marginal.Table{v}, []int{1, 3})
	want := v.Project([]int{1, 3})
	if got == nil || !marginal.Equal(got, want, 1e-12) {
		t.Errorf("Covered = %v, want %v", got, want)
	}
	if Covered([]*marginal.Table{v}, []int{1, 4}) != nil {
		t.Error("Covered returned a table for an uncovered set")
	}
}

func TestConstraintsFromViews(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	v1 := randomJoint(r, []int{0, 1, 2}, 100)
	v2 := randomJoint(r, []int{3, 4}, 100)
	v3 := randomJoint(r, []int{2, 3, 5}, 100)
	cons := ConstraintsFromViews([]*marginal.Table{v1, v2, v3}, []int{2, 3})
	if len(cons) != 3 {
		t.Fatalf("got %d constraints, want 3 (v1 gives {2}, v2 gives {3}, v3 gives {2,3})", len(cons))
	}
	if !marginal.SameAttrs(cons[0].Attrs, []int{2}) ||
		!marginal.SameAttrs(cons[1].Attrs, []int{3}) ||
		!marginal.SameAttrs(cons[2].Attrs, []int{2, 3}) {
		t.Errorf("constraint attrs = %v %v %v", cons[0].Attrs, cons[1].Attrs, cons[2].Attrs)
	}
}

func TestMaximalConstraints(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	big := randomJoint(r, []int{0, 1}, 100)
	sub := big.Project([]int{0})
	other := randomJoint(r, []int{2}, 100)
	out := MaximalConstraints([]*marginal.Table{sub, big, other})
	if len(out) != 2 {
		t.Fatalf("got %d maximal constraints, want 2", len(out))
	}
	for _, c := range out {
		if marginal.SameAttrs(c.Attrs, []int{0}) {
			t.Error("non-maximal constraint {0} survived")
		}
	}
}

func TestMaximalConstraintsAveragesDuplicates(t *testing.T) {
	a := marginal.New([]int{0})
	a.Cells = []float64{10, 20}
	b := marginal.New([]int{0})
	b.Cells = []float64{20, 30}
	out := MaximalConstraints([]*marginal.Table{a, b})
	if len(out) != 1 {
		t.Fatalf("got %d constraints, want 1", len(out))
	}
	if out[0].Cells[0] != 15 || out[0].Cells[1] != 25 {
		t.Errorf("averaged = %v, want [15 25]", out[0].Cells)
	}
}

// MaxEnt with constraints over {0,1} and {1,2} must reproduce the
// closed-form conditional-independence solution
// P(a,b,c) = P(a,b) P(b,c) / P(b).
func TestMaxEntConditionalIndependence(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	joint := randomJoint(r, []int{0, 1, 2}, 1)
	c01 := joint.Project([]int{0, 1})
	c12 := joint.Project([]int{1, 2})
	p1 := joint.Project([]int{1})
	got := must(t)(Prepare([]int{0, 1, 2}, 1, []*marginal.Table{c01, c12}).MaxEnt(context.Background(), Options{}))
	want := marginal.New([]int{0, 1, 2})
	for idx := range want.Cells {
		a := idx & 1
		b := (idx >> 1) & 1
		c := (idx >> 2) & 1
		want.Cells[idx] = c01.Cells[b<<1|a] * c12.Cells[c<<1|b] / p1.Cells[b]
	}
	if !marginal.Equal(got, want, 1e-6) {
		t.Errorf("maxent = %v\nwant %v", got.Cells, want.Cells)
	}
}

// Property: MaxEnt satisfies consistent constraints (to solver
// tolerance) and never produces negative cells.
func TestMaxEntSatisfiesConstraints(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		joint := randomJoint(r, []int{0, 1, 2, 3}, 250)
		cons := []*marginal.Table{
			joint.Project([]int{0, 1}),
			joint.Project([]int{1, 2}),
			joint.Project([]int{2, 3}),
			joint.Project([]int{0, 3}),
		}
		got := must(t)(Prepare([]int{0, 1, 2, 3}, 250, cons).MaxEnt(context.Background(), Options{}))
		if maxConstraintViolation(got, cons) > 1e-4 {
			return false
		}
		for _, v := range got.Cells {
			if v < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: among feasible tables, MaxEnt has the largest entropy — in
// particular at least that of the true joint that generated the
// constraints.
func TestMaxEntMaximizesEntropy(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		joint := randomJoint(r, []int{0, 1, 2}, 1)
		cons := []*marginal.Table{
			joint.Project([]int{0, 1}),
			joint.Project([]int{2}),
		}
		got := must(t)(Prepare([]int{0, 1, 2}, 1, cons).MaxEnt(context.Background(), Options{}))
		return entropy(got) >= entropy(joint)-1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestMaxEntIndependentProduct(t *testing.T) {
	// With only 1-way constraints, maxent = product of marginals.
	c0 := marginal.New([]int{0})
	c0.Cells = []float64{30, 70}
	c1 := marginal.New([]int{1})
	c1.Cells = []float64{60, 40}
	got := must(t)(Prepare([]int{0, 1}, 100, []*marginal.Table{c0, c1}).MaxEnt(context.Background(), Options{}))
	want := []float64{0.3 * 0.6, 0.7 * 0.6, 0.3 * 0.4, 0.7 * 0.4}
	for i := range want {
		if math.Abs(got.Cells[i]-want[i]*100) > 1e-6 {
			t.Errorf("cell %d = %v, want %v", i, got.Cells[i], want[i]*100)
		}
	}
}

func TestMaxEntNoConstraints(t *testing.T) {
	got := must(t)(Prepare([]int{0, 1}, 80, nil).MaxEnt(context.Background(), Options{}))
	for _, v := range got.Cells {
		if v != 20 {
			t.Errorf("cells = %v, want uniform 20", got.Cells)
			break
		}
	}
}

func TestMaxEntZeroTotal(t *testing.T) {
	got := must(t)(Prepare([]int{0, 1}, 0, nil).MaxEnt(context.Background(), Options{}))
	if got.Total() != 0 {
		t.Errorf("total = %v, want 0", got.Total())
	}
}

func TestMaxEntNegativeTargetsSanitized(t *testing.T) {
	c := marginal.New([]int{0})
	c.Cells = []float64{-5, 105}
	got := must(t)(Prepare([]int{0, 1}, 100, []*marginal.Table{c}).MaxEnt(context.Background(), Options{}))
	for _, v := range got.Cells {
		if v < 0 {
			t.Errorf("negative cell in maxent output: %v", got.Cells)
		}
	}
	if math.Abs(got.Total()-100) > 1e-6 {
		t.Errorf("total = %v, want 100", got.Total())
	}
}

func TestMaxEntZeroTargetGroup(t *testing.T) {
	// A constraint with a zero entry must zero the whole group.
	c := marginal.New([]int{0})
	c.Cells = []float64{0, 100}
	got := must(t)(Prepare([]int{0, 1}, 100, []*marginal.Table{c}).MaxEnt(context.Background(), Options{}))
	if got.Cells[0] != 0 || got.Cells[2] != 0 {
		t.Errorf("cells with attr0=0 not zeroed: %v", got.Cells)
	}
	if math.Abs(got.Cells[1]+got.Cells[3]-100) > 1e-9 {
		t.Errorf("mass not preserved: %v", got.Cells)
	}
}

// Property: LeastSquares satisfies the constraints and is non-negative,
// and its L2 norm is no larger than the maxent solution's (it is the
// least-norm feasible point).
func TestLeastSquaresProperties(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		joint := randomJoint(r, []int{0, 1, 2}, 120)
		cons := []*marginal.Table{
			joint.Project([]int{0, 1}),
			joint.Project([]int{1, 2}),
		}
		ls := must(t)(Prepare([]int{0, 1, 2}, 120, cons).LeastSquares(context.Background(), Options{}))
		if maxConstraintViolation(ls, cons) > 1e-3 {
			return false
		}
		for _, v := range ls.Cells {
			if v < -1e-9 {
				return false
			}
		}
		me := must(t)(Prepare([]int{0, 1, 2}, 120, cons).MaxEnt(context.Background(), Options{}))
		norm := func(t *marginal.Table) float64 {
			s := 0.0
			for _, v := range t.Cells {
				s += v * v
			}
			return s
		}
		return norm(ls) <= norm(me)+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestLeastSquaresNoConstraints(t *testing.T) {
	got := must(t)(Prepare([]int{0, 1}, 40, nil).LeastSquares(context.Background(), Options{}))
	for _, v := range got.Cells {
		if v != 10 {
			t.Errorf("cells = %v, want uniform", got.Cells)
			break
		}
	}
}

func TestLinProgConsistentConstraintsExact(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	joint := randomJoint(r, []int{0, 1, 2}, 90)
	cons := []*marginal.Table{
		joint.Project([]int{0, 1}),
		joint.Project([]int{1, 2}),
	}
	got, err := Prepare([]int{0, 1, 2}, 0, cons).LinProg(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if v := maxConstraintViolation(got, cons); v > 1e-6 {
		t.Errorf("max violation = %v, want ~0 for consistent constraints", v)
	}
}

func TestLinProgInconsistentConstraints(t *testing.T) {
	// Two conflicting totals over the same attribute: LP splits the
	// difference, with τ = half the gap.
	a := marginal.New([]int{0})
	a.Cells = []float64{10, 10}
	b := marginal.New([]int{0})
	b.Cells = []float64{14, 14}
	got, err := Prepare([]int{0, 1}, 0, []*marginal.Table{a, b}).LinProg(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	p := got.Project([]int{0})
	// Optimal τ = 2: projection 12,12.
	if math.Abs(p.Cells[0]-12) > 1e-6 || math.Abs(p.Cells[1]-12) > 1e-6 {
		t.Errorf("projection = %v, want [12 12]", p.Cells)
	}
}

func TestLinProgFullyCoveredSet(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	joint := randomJoint(r, []int{0, 1}, 50)
	got, err := Prepare([]int{0, 1}, 0, []*marginal.Table{joint}).LinProg(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !marginal.Equal(got, joint, 1e-6) {
		t.Errorf("LP over fully-constrained set diverges: %v vs %v", got.Cells, joint.Cells)
	}
}

func TestEntropy(t *testing.T) {
	u := marginal.Uniform([]int{0, 1}, 1)
	if math.Abs(entropy(u)-math.Log(4)) > 1e-12 {
		t.Errorf("uniform entropy = %v, want ln 4", entropy(u))
	}
	point := marginal.New([]int{0, 1})
	point.Cells[2] = 5
	if entropy(point) != 0 {
		t.Errorf("point-mass entropy = %v, want 0", entropy(point))
	}
	empty := marginal.New([]int{0})
	if entropy(empty) != 0 {
		t.Errorf("zero-table entropy = %v, want 0", entropy(empty))
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	if o.maxIter() != 500 || o.tol() != 1e-9 {
		t.Errorf("defaults = %d, %v", o.maxIter(), o.tol())
	}
	o = Options{MaxIter: 10, Tol: 0.5}
	if o.maxIter() != 10 || o.tol() != 0.5 {
		t.Errorf("explicit = %d, %v", o.maxIter(), o.tol())
	}
}

// TestDedupeIdenticalSemantics pins down the bucketed implementation:
// near-identical same-set constraints collapse to the first seen,
// different-set and genuinely different same-set constraints survive,
// and input order is preserved.
func TestDedupeIdenticalSemantics(t *testing.T) {
	a1 := marginal.New([]int{0, 1})
	a1.Fill(10)
	a2 := a1.Clone() // exact duplicate
	a3 := a1.Clone() // duplicate within tolerance
	a3.Cells[0] += 1e-8
	a4 := a1.Clone() // same set, different cells
	a4.Cells[0] += 5
	b1 := marginal.New([]int{2, 3}) // different set, same cell values
	b1.Fill(10)
	got := dedupeIdentical([]*marginal.Table{a1, b1, a2, a4, a3})
	if len(got) != 3 {
		t.Fatalf("kept %d constraints, want 3", len(got))
	}
	if got[0] != a1 || got[1] != b1 || got[2] != a4 {
		t.Errorf("kept wrong constraints or lost input order: %v", got)
	}
}

func TestDedupeIdenticalEmpty(t *testing.T) {
	if got := dedupeIdentical(nil); len(got) != 0 {
		t.Errorf("dedupe(nil) = %v", got)
	}
}
