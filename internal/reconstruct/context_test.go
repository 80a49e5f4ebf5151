package reconstruct

import (
	"context"
	"errors"
	"testing"
	"time"

	"priview/internal/marginal"
)

// conflictingCons builds a constraint set IPF can never satisfy: the
// two views disagree wildly on attribute 1's marginal, so the fit
// oscillates instead of converging and only the iteration budget (or a
// deadline) stops it.
func conflictingCons() []*marginal.Table {
	c1 := marginal.New([]int{0, 1})
	copy(c1.Cells, []float64{100, 100, 400, 400}) // attr1=1 carries 800
	c2 := marginal.New([]int{1, 2})
	copy(c2.Cells, []float64{400, 100, 400, 100}) // attr1=1 carries 200
	return []*marginal.Table{c1, c2}
}

var hugeOpt = Options{MaxIter: 100_000_000, Tol: 1e-12}

// TestMaxEntContextDeadline is the cancelable-CME proof: with an
// iteration budget that would run for minutes, the deadline stops the
// fit within milliseconds and surfaces ErrDeadline.
func TestMaxEntContextDeadline(t *testing.T) {
	attrs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	table, err := Prepare(attrs, 1000, conflictingCons()).MaxEnt(ctx, hugeOpt)
	elapsed := time.Since(start)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err %v does not match context.DeadlineExceeded under errors.Is", err)
	}
	if table != nil {
		t.Error("canceled solve returned a table")
	}
	if elapsed > 5*time.Second {
		t.Errorf("deadline ignored: solve ran %v", elapsed)
	}
}

func TestLeastSquaresContextDeadline(t *testing.T) {
	attrs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := Prepare(attrs, 1000, conflictingCons()).LeastSquares(ctx, hugeOpt)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("deadline ignored: solve ran %v", elapsed)
	}
}

func TestContextVariantsCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	attrs := []int{0, 1, 2}
	cons := conflictingCons()
	cases := map[string]func() error{
		"MaxEnt": func() error {
			_, err := Prepare(attrs, 100, cons).MaxEnt(ctx, Options{})
			return err
		},
		"MaxEntDual": func() error {
			_, err := Prepare(attrs, 100, cons).MaxEntDual(ctx, Options{})
			return err
		},
		"LeastSquares": func() error {
			_, err := Prepare(attrs, 100, cons).LeastSquares(ctx, Options{})
			return err
		},
		"LinProg": func() error {
			_, err := Prepare(attrs, 0, cons).LinProg(ctx)
			return err
		},
	}
	for name, run := range cases {
		if err := run(); !errors.Is(err, ErrCanceled) {
			t.Errorf("%s: err = %v, want ErrCanceled", name, err)
		} else if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err %v does not match context.Canceled under errors.Is", name, err)
		}
	}
}
