package reconstruct

import (
	"context"
	"math"

	"priview/internal/marginal"
)

// MaxEntDual solves the same maximum-entropy reconstruction as MaxEnt,
// but by projected gradient ascent on the entropy dual instead of
// iterative proportional fitting: the solution has the log-linear form
// P(a) ∝ exp(Σ_B λ_B(a|_B)), and the dual gradient w.r.t. λ_B(b) is
// target_B(b) − projection_B(b). IPF is coordinate ascent on the same
// dual; this solver updates all multipliers simultaneously with an
// adaptive step; the two must agree on consistent inputs. Every few
// steps it polls ctx and returns ErrCanceled or ErrDeadline once the
// caller gives up. Unlike MaxEnt and LeastSquares it has no parallel sweep:
// its partition-function sum is a single order-sensitive reduction over
// the full table, and the solver is an ablation cross-check rather than
// a serving path — batch callers still get solve-level parallelism
// across requests. The multipliers live in per-call buffers, so
// concurrent solves off one Prepared stay independent.
func (p *Prepared) MaxEntDual(ctx context.Context, opt Options) (*marginal.Table, error) {
	total := p.total
	if err := checkInputs("maxent-dual", total, p.cons); err != nil {
		return nil, err
	}
	t := marginal.New(p.attrs)
	if total <= 0 {
		return t, nil
	}
	san := p.sanitized()
	if len(san) == 0 {
		t.Fill(total / float64(t.Size()))
		return t, nil
	}
	// The shared prepCons precompute (see marginal.RestrictIndices)
	// makes both the logit assembly and the gradient projection single
	// array loads per cell.
	type prepared struct {
		target *marginal.Table
		ridx   []int32
		lambda []float64
	}
	prep := make([]prepared, len(san))
	for i := range san {
		prep[i] = prepared{
			target: san[i].target,
			ridx:   san[i].ridx,
			lambda: make([]float64, san[i].target.Size()),
		}
	}
	n := t.Size()
	logits := make([]float64, n)
	proj := make([][]float64, len(prep))
	for i := range proj {
		proj[i] = make([]float64, prep[i].target.Size())
	}
	// Step size on normalized marginals; adapted multiplicatively.
	step := 1.0
	tol := opt.tol() * total
	prevWorst := math.Inf(1)
	guard := newDivergenceGuard("maxent-dual")
	maxIter := opt.maxIter() * 4 // dual ascent needs more, cheaper steps
	for iter := 0; iter < maxIter; iter++ {
		if iter%ctxCheckEvery == 0 {
			if err := ContextErr(ctx); err != nil {
				return nil, err
			}
		}
		// Primal from multipliers.
		maxLogit := math.Inf(-1)
		for a := 0; a < n; a++ {
			l := 0.0
			for i := range prep {
				l += prep[i].lambda[prep[i].ridx[a]]
			}
			logits[a] = l
			if l > maxLogit {
				maxLogit = l
			}
		}
		z := 0.0
		for a := 0; a < n; a++ {
			t.Cells[a] = math.Exp(logits[a] - maxLogit)
			z += t.Cells[a]
		}
		scale := total / z
		for a := 0; a < n; a++ {
			t.Cells[a] *= scale
		}
		// Dual gradient and convergence check.
		worst := 0.0
		for i := range prep {
			pr := proj[i]
			t.ProjectInto(pr, prep[i].ridx)
			for j := range pr {
				g := prep[i].target.Cells[j] - pr[j]
				if d := math.Abs(g); d > worst {
					worst = d
				}
			}
		}
		if err := guard.check(iter, worst); err != nil {
			return nil, err
		}
		if worst < tol {
			break
		}
		// Adapt the step: back off when the violation grows.
		if worst > prevWorst {
			step *= 0.7
		} else {
			step *= 1.02
		}
		prevWorst = worst
		for i := range prep {
			pr := proj[i]
			for j := range prep[i].lambda {
				// Gradient on the normalized scale keeps the step size
				// dimensionless.
				prep[i].lambda[j] += step * (prep[i].target.Cells[j] - pr[j]) / total
			}
		}
	}
	return checkResult("maxent-dual", maxIter, t)
}
