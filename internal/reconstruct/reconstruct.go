// Package reconstruct computes a k-way marginal table T_A from a set of
// consistent view marginals (§4.3 of the paper). When A is contained in
// some view the answer is a direct projection; otherwise the views
// induce an under-determined system of linear constraints on T_A and the
// package offers the paper's three estimators: maximum entropy (the
// proposed method, solved by iterative proportional fitting), least
// squares (Dykstra's alternating projections), and linear programming
// (max-error minimization via simplex).
package reconstruct

import (
	"priview/internal/attrset"
	"priview/internal/marginal"
)

// Options tunes the iterative solvers. The zero value selects sensible
// defaults.
type Options struct {
	// MaxIter bounds the number of IPF/Dykstra cycles (default 500).
	MaxIter int
	// Tol is the convergence threshold on the largest constraint
	// violation relative to the total count (default 1e-9).
	Tol float64
	// SweepWorkers bounds the goroutines parallelizing the per-view
	// projection/update sweep inside one solve of a large table (≥
	// sweepThreshold cells); 0 or 1 keeps the sweep sequential. The
	// sweep's gather-ordered reduction makes results bit-for-bit
	// identical at every setting — see sweep.go.
	SweepWorkers int
}

func (o Options) maxIter() int {
	if o.MaxIter <= 0 {
		return 500
	}
	return o.MaxIter
}

func (o Options) tol() float64 {
	if o.Tol <= 0 {
		return 1e-9
	}
	return o.Tol
}

func (o Options) sweepWorkers() int {
	if o.SweepWorkers <= 0 {
		return 1
	}
	return o.SweepWorkers
}

// ConstraintsFromViews projects every view onto its intersection with
// attrs, returning one constraint marginal per view that shares at least
// one attribute with attrs. The result keeps per-view duplicates — the
// linear-programming method wants all of them (it reconciles
// inconsistent views itself). Views fully covering attrs yield a
// constraint over attrs itself.
func ConstraintsFromViews(views []*marginal.Table, attrs []int) []*marginal.Table {
	target := attrset.MustFromAttrs(attrs)
	var cons []*marginal.Table
	for _, v := range views {
		b := v.Mask().Intersect(target)
		if b.Empty() {
			continue
		}
		cons = append(cons, v.Project(b.Attrs()))
	}
	return cons
}

// MaximalConstraints reduces a constraint set to maximal attribute sets:
// a constraint over B is dropped when another constraint covers B' ⊋ B
// (its information is implied once views are consistent), and duplicate
// sets are averaged. This is the constraint set the maximum-entropy and
// least-squares methods consume.
func MaximalConstraints(cons []*marginal.Table) []*marginal.Table {
	// Average duplicates first, keyed on the attribute masks — the mask
	// word is the map key, with no per-constraint string allocation.
	byKey := map[attrset.Set][]*marginal.Table{}
	var order []attrset.Set
	for _, c := range cons {
		k := c.Mask()
		if _, ok := byKey[k]; !ok {
			order = append(order, k)
		}
		byKey[k] = append(byKey[k], c)
	}
	merged := make([]*marginal.Table, 0, len(order))
	for _, k := range order {
		group := byKey[k]
		avg := group[0].Clone()
		for _, c := range group[1:] {
			avg.AddInto(c)
		}
		avg.Scale(1 / float64(len(group)))
		merged = append(merged, avg)
	}
	// Keep only maximal sets: after merging, masks are distinct, so a
	// strict-superset test is one subset word-op per pair.
	var out []*marginal.Table
	for i, c := range merged {
		maximal := true
		for j, other := range merged {
			if i == j {
				continue
			}
			if c.Mask().ProperSubset(other.Mask()) {
				maximal = false
				break
			}
		}
		if maximal {
			out = append(out, c)
		}
	}
	return out
}

// Covered returns the direct projection of some view fully containing
// attrs, or nil when no view covers it.
func Covered(views []*marginal.Table, attrs []int) *marginal.Table {
	target := attrset.MustFromAttrs(attrs)
	for _, v := range views {
		if target.Subset(v.Mask()) {
			return v.Project(attrs)
		}
	}
	return nil
}

// sanitize clamps negative cells of each constraint to zero and rescales
// the constraint to the common total, making the targets usable by the
// multiplicative maxent updates and the orthant-constrained least
// squares. This mirrors the paper's constraint relaxation: slightly
// infeasible noisy equalities are replaced by the nearest feasible ones.
func sanitize(cons []*marginal.Table, total float64) []*marginal.Table {
	out := make([]*marginal.Table, len(cons))
	for i, c := range cons {
		s := c.Clone()
		s.ClampNegatives()
		sum := s.Total()
		if sum > 0 {
			s.Scale(total / sum)
		} else {
			s.Fill(total / float64(s.Size()))
		}
		out[i] = s
	}
	return out
}

// dedupeIdentical drops constraints that duplicate an earlier one to
// within a small tolerance. After the consistency step all views agree
// exactly on shared projections up to floating-point rounding, so the
// tolerance collapses the (large) redundant constraint set of CLP while
// leaving genuinely inconsistent LP constraints untouched.
//
// Candidates are bucketed by their attribute mask first: marginal.Equal
// is false for different attribute sets, so only same-set tables can be
// duplicates and cross-bucket cell comparisons are pure waste. The mask
// word is the bucket key directly — no string allocation per
// constraint, unlike the retired marginal.Key scheme — keeping the pass
// near-linear for the common CLP pattern of many views projecting onto
// many distinct subsets, instead of O(n²) full-table compares.
func dedupeIdentical(cons []*marginal.Table) []*marginal.Table {
	out := make([]*marginal.Table, 0, len(cons))
	buckets := make(map[attrset.Set][]*marginal.Table, len(cons))
	for _, c := range cons {
		k := c.Mask()
		dup := false
		for _, o := range buckets[k] {
			if marginal.Equal(c, o, 1e-6) {
				dup = true
				break
			}
		}
		if !dup {
			buckets[k] = append(buckets[k], c)
			out = append(out, c)
		}
	}
	return out
}
