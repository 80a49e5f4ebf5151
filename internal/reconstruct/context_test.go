package reconstruct

import (
	"context"
	"errors"
	"sync/atomic"
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

// liveOnce is a context whose Err is nil on its first call and
// context.Canceled on every later one: a solver that polls only its
// first cycle runs its whole budget out on it, and one that polls every
// cycle stops on its second.
type liveOnce struct {
	context.Context
	calls atomic.Int32
}

func (c *liveOnce) Err() error {
	if c.calls.Add(1) == 1 {
		return nil
	}
	return context.Canceled
}

// TestSolversCheckContextEveryCycle cancels the context after the first
// cycle of a five-cycle solve that cannot converge (three pairwise
// constraints over {0,1,2} that disagree on every shared attribute, and
// a tolerance no residual reaches): the second cycle's check must stop
// the solve with ErrCanceled rather than return a table.
func TestSolversCheckContextEveryCycle(t *testing.T) {
	c01 := marginal.New([]int{0, 1})
	copy(c01.Cells, []float64{100, 100, 400, 400}) // attr0=1: 500, attr1=1: 800
	c12 := marginal.New([]int{1, 2})
	copy(c12.Cells, []float64{400, 100, 400, 100}) // attr1=1: 200, attr2=1: 500
	c02 := marginal.New([]int{0, 2})
	copy(c02.Cells, []float64{100, 300, 100, 500}) // attr0=1: 800, attr2=1: 600
	cons := []*marginal.Table{c01, c12, c02}
	opt := Options{MaxIter: 5, Tol: 1e-300}
	cases := map[string]func(*Prepared, context.Context) (*marginal.Table, error){
		"MaxEnt": func(p *Prepared, ctx context.Context) (*marginal.Table, error) {
			return p.MaxEnt(ctx, opt)
		},
		"LeastSquares": func(p *Prepared, ctx context.Context) (*marginal.Table, error) {
			return p.LeastSquares(ctx, opt)
		},
	}
	for name, solve := range cases {
		t.Run(name, func(t *testing.T) {
			ctx := &liveOnce{Context: context.Background()}
			table, err := solve(Prepare([]int{0, 1, 2}, 1000, cons), ctx)
			if !errors.Is(err, ErrCanceled) {
				t.Fatalf("err = %v after %d context checks, want ErrCanceled", err, ctx.calls.Load())
			}
			if table != nil {
				t.Error("canceled solve returned a table")
			}
		})
	}
}
