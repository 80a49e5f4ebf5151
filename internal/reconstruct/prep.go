package reconstruct

import (
	"context"
	"errors"
	"math"
	"sync"

	"priview/internal/lp"
	"priview/internal/marginal"
)

// Prepared caches the solver-independent precompute for reconstructing
// marginals over one attribute set from one constraint set: the
// sanitized maximal constraints and, per constraint, the cell →
// restricted-cell mapping (RestrictIndices). Building it once and
// solving many times is the batch fast path — every estimator answering
// the same attribute set shares one Prepared, so the constraint dedupe
// and projection-index work that used to be redone inside each solver
// call happens once per group.
//
// A Prepared is safe for concurrent solver calls: the cached state is
// built under sync.Once and is read-only afterwards, and each solver
// call keeps its iterates in per-call buffers. Each call runs on the
// caller's goroutine.
type Prepared struct {
	attrs []int
	total float64
	cons  []*marginal.Table

	sanOnce sync.Once
	san     []prepCons

	lpOnce sync.Once
	lpCons []*marginal.Table
	lpRidx [][]int32
}

// prepCons is one sanitized constraint with its projection precompute.
type prepCons struct {
	target *marginal.Table
	// ridx maps each full-table cell to its cell in target
	// (marginal.RestrictIndices).
	ridx []int32
	// groupSize is how many full-table cells share one target cell.
	groupSize float64
}

// Prepare wraps one reconstruction instance — target attribute set,
// common total, and the view-derived constraint tables — for repeated
// solving. It performs no validation or precompute itself: each solver
// method validates its inputs, and the shared precompute is built
// lazily on first use, so Prepare + one solve does no extra work.
func Prepare(attrs []int, total float64, cons []*marginal.Table) *Prepared {
	return &Prepared{attrs: attrs, total: total, cons: cons}
}

// sanitized returns the sanitize(MaximalConstraints(...)) set with the
// per-constraint projection precompute, building it on first call.
func (p *Prepared) sanitized() []prepCons {
	p.sanOnce.Do(func() {
		t := marginal.New(p.attrs)
		cons := sanitize(MaximalConstraints(p.cons), p.total)
		p.san = make([]prepCons, len(cons))
		for i, c := range cons {
			p.san[i] = prepCons{
				target:    c,
				ridx:      t.RestrictIndices(c.Attrs),
				groupSize: float64(int(1) << uint(t.Dim()-c.Dim())),
			}
		}
	})
	return p.san
}

// MaxEnt reconstructs the maximum-entropy marginal subject to the
// constraint marginals (assumed mutually consistent, as produced by the
// consistency step) and the total. Iterative proportional fitting is
// exactly coordinate ascent on the max-entropy dual, so for consistent
// constraints it converges to the unique maximum-entropy solution; for
// mildly inconsistent ones it settles near the relaxed solution,
// matching the paper's gradual-relaxation fallback. Every cycle polls
// ctx first and, once the caller has canceled or the deadline has
// passed, abandons the fit with ErrCanceled or ErrDeadline.
func (p *Prepared) MaxEnt(ctx context.Context, opt Options) (*marginal.Table, error) {
	if err := checkInputs("maxent", p.total, p.cons); err != nil {
		return nil, err
	}
	t := marginal.New(p.attrs)
	if p.total <= 0 {
		return t, nil
	}
	t.Fill(p.total / float64(t.Size()))
	san := p.sanitized()
	if len(san) == 0 {
		return t, nil
	}
	tol := opt.tol() * p.total
	proj := make([][]float64, len(san))
	for i := range proj {
		proj[i] = make([]float64, san[i].target.Size())
	}
	guard := newDivergenceGuard("maxent")
	for iter := 0; iter < opt.maxIter(); iter++ {
		if err := ContextErr(ctx); err != nil {
			return nil, err
		}
		worst := 0.0
		//lint:hot
		for i, pc := range san {
			// Current projection.
			pr := proj[i]
			t.ProjectInto(pr, pc.ridx)
			// Multiplicative update toward the target.
			for ci := range t.Cells {
				b := pc.ridx[ci]
				cur := pr[b]
				want := pc.target.Cells[b]
				if d := math.Abs(cur - want); d > worst {
					worst = d
				}
				switch {
				case cur > 0:
					t.Cells[ci] *= want / cur
				case want > 0:
					// Mass must appear in a group that currently has
					// none: seed it uniformly so the next cycle can
					// shape it.
					t.Cells[ci] = want / pc.groupSize
				default:
					t.Cells[ci] = 0
				}
			}
		}
		if err := guard.check(iter, worst); err != nil {
			return nil, err
		}
		if worst < tol {
			break
		}
	}
	return checkResult("maxent", opt.maxIter(), t)
}

// LeastSquares reconstructs the minimum-L2-norm non-negative marginal
// satisfying the constraints, via Dykstra's alternating projections onto
// the constraint subspaces and the non-negative orthant. Starting from
// the origin, Dykstra converges to the projection of 0 onto the
// feasible set, i.e. the least-norm feasible table. Every cycle polls
// ctx first and returns ErrCanceled or ErrDeadline once the caller
// gives up.
func (p *Prepared) LeastSquares(ctx context.Context, opt Options) (*marginal.Table, error) {
	if err := checkInputs("least-squares", p.total, p.cons); err != nil {
		return nil, err
	}
	t := marginal.New(p.attrs)
	san := p.sanitized()
	if len(san) == 0 {
		t.Fill(p.total / float64(t.Size()))
		return t, nil
	}
	// Dykstra increments: one per constraint set plus one for the
	// orthant.
	nSets := len(san) + 1
	incr := make([][]float64, nSets)
	for i := range incr {
		incr[i] = make([]float64, t.Size())
	}
	y := make([]float64, t.Size())
	proj := make([]float64, 0)
	tol := opt.tol() * math.Max(p.total, 1)
	guard := newDivergenceGuard("least-squares")
	for iter := 0; iter < opt.maxIter(); iter++ {
		if err := ContextErr(ctx); err != nil {
			return nil, err
		}
		moved := 0.0
		for s := 0; s < nSets; s++ {
			// y = x + p_s
			for ci := range y {
				y[ci] = t.Cells[ci] + incr[s][ci]
			}
			if s < len(san) {
				pc := &san[s]
				if cap(proj) < pc.target.Size() {
					proj = make([]float64, pc.target.Size())
				}
				proj = proj[:pc.target.Size()]
				for j := range proj {
					proj[j] = 0
				}
				for ci, v := range y {
					proj[pc.ridx[ci]] += v
				}
				for ci := range y {
					b := pc.ridx[ci]
					corr := (pc.target.Cells[b] - proj[b]) / pc.groupSize
					nv := y[ci] + corr
					if d := math.Abs(nv - t.Cells[ci]); d > moved {
						moved = d
					}
					incr[s][ci] = y[ci] - nv
					t.Cells[ci] = nv
				}
			} else {
				// Orthant projection.
				for ci := range y {
					nv := y[ci]
					if nv < 0 {
						nv = 0
					}
					if d := math.Abs(nv - t.Cells[ci]); d > moved {
						moved = d
					}
					incr[s][ci] = y[ci] - nv
					t.Cells[ci] = nv
				}
			}
		}
		if err := guard.check(iter, moved); err != nil {
			return nil, err
		}
		if moved < tol {
			break
		}
	}
	t.ClampNegatives()
	return checkResult("least-squares", opt.maxIter(), t)
}

// LinProg reconstructs the marginal by the paper's linear program:
// minimize the maximum violation τ of any view-derived constraint
// subject to non-negative cells. It accepts possibly inconsistent
// constraints (one per view) — the only method that needs no prior
// consistency step. Cancellation is threaded into the simplex
// iterations: it returns ErrCanceled or ErrDeadline when the caller
// gives up, and other errors for genuine solver failures. The
// deduplicated constraint set and its projection indices are cached on
// the Prepared; the simplex tableau itself is rebuilt per call because
// the solver consumes it destructively.
func (p *Prepared) LinProg(ctx context.Context) (*marginal.Table, error) {
	if err := checkInputs("linprog", 0, p.cons); err != nil {
		return nil, err
	}
	t := marginal.New(p.attrs)
	n := t.Size()
	// Dedupe exactly identical constraints (consistent views produce
	// many); keeps the simplex tableau small without changing the
	// optimum.
	p.lpOnce.Do(func() {
		p.lpCons = dedupeIdentical(p.cons)
		p.lpRidx = make([][]int32, len(p.lpCons))
		for i, c := range p.lpCons {
			p.lpRidx[i] = t.RestrictIndices(c.Attrs)
		}
	})
	prob := &lp.Problem{
		NumVars:   n + 1, // cells then τ
		Objective: make([]float64, n+1),
	}
	prob.Objective[n] = 1
	for k, c := range p.lpCons {
		ridx := p.lpRidx[k]
		// Group cells of A by their restricted index.
		groups := make([][]int, c.Size())
		for ci := 0; ci < n; ci++ {
			groups[ridx[ci]] = append(groups[ridx[ci]], ci)
		}
		for b, cells := range groups {
			// sum(cells) - τ ≤ target  and  sum(cells) + τ ≥ target.
			le := make([]float64, n+1)
			ge := make([]float64, n+1)
			for _, ci := range cells {
				le[ci] = 1
				ge[ci] = 1
			}
			le[n] = -1
			ge[n] = 1
			prob.Constraints = append(prob.Constraints,
				lp.Constraint{Coef: le, Rel: lp.LE, B: c.Cells[b]},
				lp.Constraint{Coef: ge, Rel: lp.GE, B: c.Cells[b]},
			)
		}
	}
	sol, err := lp.SolveContext(ctx, prob)
	if err != nil {
		// Re-type cancellation so callers see one error surface for all
		// three estimators; other errors are numerical failures.
		if cerr := ContextErr(ctx); cerr != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			return nil, cerr
		}
		if errors.Is(err, lp.ErrNumerical) {
			return nil, &NumericalError{Solver: "linprog", Iter: 0, Quantity: "simplex tableau", Value: math.NaN(), Err: err}
		}
		return nil, err
	}
	copy(t.Cells, sol.X[:n])
	return checkResult("linprog", 0, t)
}
