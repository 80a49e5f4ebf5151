package reconstruct

import (
	"errors"
	"fmt"
	"math"

	"priview/internal/marginal"
)

// ErrNumerical is the sentinel for numerical failures inside the
// iterative solvers: a NaN or Inf in the inputs or the iterates, or a
// residual that keeps growing instead of converging. Callers test with
// errors.Is(err, ErrNumerical); the concrete *NumericalError carries the
// iteration and the offending quantity for diagnosis.
var ErrNumerical = errors.New("reconstruct: numerical instability")

// NumericalError reports where a solver went numerically wrong. It
// matches ErrNumerical under errors.Is.
type NumericalError struct {
	// Solver names the estimator ("maxent", "least-squares",
	// "linprog").
	Solver string
	// Iter is the outer iteration at which the problem was detected
	// (-1 when the inputs were already bad).
	Iter int
	// Quantity names what was non-finite or diverging ("total",
	// "constraint cell", "residual", "cell value").
	Quantity string
	// Value is the offending value (NaN, ±Inf, or the diverged
	// residual).
	Value float64
	// Err is the underlying cause when the failure surfaced from a
	// lower layer (e.g. the simplex solver); may be nil.
	Err error
}

// Error implements error.
func (e *NumericalError) Error() string {
	var msg string
	if e.Iter < 0 {
		msg = fmt.Sprintf("reconstruct: %s: non-finite %s (%v) in input", e.Solver, e.Quantity, e.Value)
	} else {
		msg = fmt.Sprintf("reconstruct: %s: bad %s (%v) at iteration %d", e.Solver, e.Quantity, e.Value, e.Iter)
	}
	if e.Err != nil {
		msg += ": " + e.Err.Error()
	}
	return msg
}

// Is matches the ErrNumerical sentinel.
func (e *NumericalError) Is(target error) bool { return target == ErrNumerical }

// Unwrap exposes the underlying cause for errors.Is/As chains.
func (e *NumericalError) Unwrap() error { return e.Err }

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// checkInputs validates the solver inputs: the total and every
// constraint cell must be finite. Solvers call it before touching the
// constraint set, so a poisoned view fails fast with a typed error
// instead of silently propagating NaN into every output cell.
func checkInputs(solver string, total float64, cons []*marginal.Table) error {
	if !isFinite(total) {
		return &NumericalError{Solver: solver, Iter: -1, Quantity: "total", Value: total}
	}
	for i, c := range cons {
		for _, v := range c.Cells {
			if !isFinite(v) {
				return &NumericalError{
					Solver: solver, Iter: -1,
					Quantity: fmt.Sprintf("constraint %d (attrs %v) cell", i, c.Attrs),
					Value:    v,
				}
			}
		}
	}
	return nil
}

// checkResult verifies a solver's output table is fully finite — the
// final line of defense ensuring no solver ever hands back a NaN
// marginal.
func checkResult(solver string, iter int, t *marginal.Table) (*marginal.Table, error) {
	for _, v := range t.Cells {
		if !isFinite(v) {
			return nil, &NumericalError{Solver: solver, Iter: iter, Quantity: "cell value", Value: v}
		}
	}
	return t, nil
}

// divergenceGuard watches the residual across solver checkpoints. It
// flags immediately on a non-finite residual, and flags divergence when
// the residual grows monotonically across divergeAfter consecutive
// checkpoints while sitting far above the best residual seen — the
// signature of a blow-up, as opposed to the bounded oscillation of IPF
// on mildly inconsistent constraints.
type divergenceGuard struct {
	solver string
	best   float64
	prev   float64
	grown  int
}

const (
	// divergeFactor is how far above its best value the residual must
	// sit before growth counts as divergence.
	divergeFactor = 1e3
	// divergeAfter is how many consecutive growing checkpoints trigger
	// the divergence error.
	divergeAfter = 8
)

func newDivergenceGuard(solver string) divergenceGuard {
	return divergenceGuard{solver: solver, best: math.Inf(1), prev: math.Inf(1)}
}

// check examines the residual at iteration iter, returning a
// *NumericalError when it is non-finite or diverging.
func (g *divergenceGuard) check(iter int, residual float64) error {
	if !isFinite(residual) {
		return &NumericalError{Solver: g.solver, Iter: iter, Quantity: "residual", Value: residual}
	}
	if residual < g.best {
		g.best = residual
	}
	if residual > g.prev && residual > divergeFactor*g.best {
		g.grown++
	} else {
		g.grown = 0
	}
	g.prev = residual
	if g.grown >= divergeAfter {
		return &NumericalError{Solver: g.solver, Iter: iter, Quantity: "diverging residual", Value: residual}
	}
	return nil
}

// FiniteTable reports whether every cell of t is finite (no NaN/Inf).
func FiniteTable(t *marginal.Table) bool {
	for _, v := range t.Cells {
		if !isFinite(v) {
			return false
		}
	}
	return true
}

// DropNonFinite partitions a constraint set into the tables whose cells
// are all finite and the count of tables dropped for carrying NaN/Inf.
// core.Query uses it to degrade gracefully when one poisoned view would
// otherwise fail every estimator.
func DropNonFinite(cons []*marginal.Table) (kept []*marginal.Table, dropped int) {
	kept = cons[:0:0]
	for _, c := range cons {
		ok := true
		for _, v := range c.Cells {
			if !isFinite(v) {
				ok = false
				break
			}
		}
		if ok {
			kept = append(kept, c)
		} else {
			dropped++
		}
	}
	return kept, dropped
}
