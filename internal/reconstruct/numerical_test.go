package reconstruct

import (
	"context"
	"errors"
	"math"
	"testing"

	"priview/internal/marginal"
)

// poisonedCons returns a small consistent constraint set with one NaN
// cell injected into the first constraint.
func poisonedCons(bad float64) []*marginal.Table {
	c0 := marginal.New([]int{0})
	c0.Cells[0], c0.Cells[1] = 60, 40
	c1 := marginal.New([]int{1})
	c1.Cells[0], c1.Cells[1] = 70, 30
	c0.Cells[0] = bad
	return []*marginal.Table{c0, c1}
}

func TestSolversRejectNonFiniteConstraints(t *testing.T) {
	ctx := context.Background()
	attrs := []int{0, 1}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		cons := poisonedCons(bad)
		solvers := map[string]func() (*marginal.Table, error){
			"maxent": func() (*marginal.Table, error) {
				return Prepare(attrs, 100, cons).MaxEnt(ctx, Options{})
			},
			"least-squares": func() (*marginal.Table, error) {
				return Prepare(attrs, 100, cons).LeastSquares(ctx, Options{})
			},
			"linprog": func() (*marginal.Table, error) {
				return Prepare(attrs, 0, cons).LinProg(ctx)
			},
		}
		for name, solve := range solvers {
			tab, err := solve()
			if !errors.Is(err, ErrNumerical) {
				t.Errorf("%s with %v constraint: err = %v, want ErrNumerical", name, bad, err)
			}
			if tab != nil {
				t.Errorf("%s with %v constraint returned a table alongside the error", name, bad)
			}
			var ne *NumericalError
			if !errors.As(err, &ne) {
				t.Errorf("%s: error %T does not unwrap to *NumericalError", name, err)
			} else if ne.Solver != name {
				t.Errorf("%s: NumericalError.Solver = %q", name, ne.Solver)
			}
		}
	}
}

func TestSolversRejectNonFiniteTotal(t *testing.T) {
	ctx := context.Background()
	attrs := []int{0, 1}
	cons := poisonedCons(60) // repair the poison: all-finite constraints
	for _, total := range []float64{math.NaN(), math.Inf(1)} {
		if _, err := Prepare(attrs, total, cons).MaxEnt(ctx, Options{}); !errors.Is(err, ErrNumerical) {
			t.Errorf("maxent with total %v: err = %v, want ErrNumerical", total, err)
		}
		if _, err := Prepare(attrs, total, cons).LeastSquares(ctx, Options{}); !errors.Is(err, ErrNumerical) {
			t.Errorf("least-squares with total %v: err = %v, want ErrNumerical", total, err)
		}
	}
}

// TestSolversStayCleanOnFiniteInputs proves the guards do not fire on
// ordinary (even mildly inconsistent) inputs across a spread of shapes.
func TestSolversStayCleanOnFiniteInputs(t *testing.T) {
	ctx := context.Background()
	attrs := []int{0, 1, 2}
	c0 := marginal.New([]int{0, 1})
	copy(c0.Cells, []float64{30, 20, 25, 25})
	c1 := marginal.New([]int{1, 2})
	// Slightly inconsistent with c0 on attribute 1 — the relaxed regime.
	copy(c1.Cells, []float64{28, 24, 26, 24})
	cons := []*marginal.Table{c0, c1}
	for name, solve := range map[string]func() (*marginal.Table, error){
		"maxent": func() (*marginal.Table, error) { return Prepare(attrs, 100, cons).MaxEnt(ctx, Options{}) },
		"least-squares": func() (*marginal.Table, error) {
			return Prepare(attrs, 100, cons).LeastSquares(ctx, Options{})
		},
		"linprog": func() (*marginal.Table, error) { return Prepare(attrs, 0, cons).LinProg(ctx) },
	} {
		tab, err := solve()
		if err != nil {
			t.Fatalf("%s on clean inputs: %v", name, err)
		}
		for i, v := range tab.Cells {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s produced non-finite cell %d: %v", name, i, v)
			}
		}
	}
}

func TestDivergenceGuardFlagsMonotoneBlowup(t *testing.T) {
	g := newDivergenceGuard("test")
	if err := g.check(0, 1.0); err != nil {
		t.Fatalf("first checkpoint: %v", err)
	}
	var got error
	r := 2e3 // already far above best=1
	for i := 1; i < 100 && got == nil; i++ {
		got = g.check(i, r)
		r *= 2
	}
	if !errors.Is(got, ErrNumerical) {
		t.Fatalf("monotone blow-up not flagged: %v", got)
	}
	var ne *NumericalError
	if !errors.As(got, &ne) || ne.Quantity != "diverging residual" {
		t.Fatalf("unexpected error detail: %v", got)
	}
}

func TestDivergenceGuardToleratesOscillation(t *testing.T) {
	g := newDivergenceGuard("test")
	// Residual oscillates within a factor of divergeFactor of its best —
	// the normal pattern for IPF on inconsistent constraints.
	vals := []float64{5, 3, 4, 2, 6, 2.5, 5, 2.2, 4.8}
	for i := 0; i < 200; i++ {
		if err := g.check(i, vals[i%len(vals)]); err != nil {
			t.Fatalf("oscillating residual flagged at %d: %v", i, err)
		}
	}
}

func TestDivergenceGuardFlagsNonFiniteResidual(t *testing.T) {
	g := newDivergenceGuard("test")
	if err := g.check(0, math.NaN()); !errors.Is(err, ErrNumerical) {
		t.Fatalf("NaN residual: err = %v, want ErrNumerical", err)
	}
}

func TestDropNonFinite(t *testing.T) {
	good := marginal.New([]int{0})
	good.Cells[0], good.Cells[1] = 1, 2
	bad := marginal.New([]int{1})
	bad.Cells[0] = math.NaN()
	kept, dropped := DropNonFinite([]*marginal.Table{good, bad})
	if dropped != 1 || len(kept) != 1 || !marginal.SameAttrs(kept[0].Attrs, good.Attrs) {
		t.Fatalf("DropNonFinite: kept %v, dropped %d", kept, dropped)
	}
	kept, dropped = DropNonFinite(nil)
	if dropped != 0 || len(kept) != 0 {
		t.Fatalf("DropNonFinite(nil): kept %v, dropped %d", kept, dropped)
	}
}
