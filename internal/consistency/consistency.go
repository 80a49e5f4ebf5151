// Package consistency implements PriView's constrained-inference
// post-processing (§4.4 of the paper): making a collection of noisy view
// marginal tables mutually consistent on every shared attribute subset,
// and correcting negative entries with the Ripple method (and the
// Simple/Global alternatives evaluated in Fig. 4).
package consistency

import (
	"priview/internal/attrset"
	"priview/internal/fourier"
	"priview/internal/marginal"
)

// Overall makes all views mutually consistent (Definition 2): for every
// pair V_i, V_j, the projections onto V_i ∩ V_j agree. It sets every
// Walsh–Hadamard coefficient T of every view to its mean over the views
// that contain T, the closed form of §4.4's sweep: a view's marginal on
// A is fixed by its coefficients T ⊆ A, so Lemma 1's step on a closure
// set A sets those coefficients of the views containing A to their mean
// and leaves the rest alone. The first closure set holding T is the
// intersection of the views containing T, so that step already averages
// over all of them, and later steps average equal values.
//
// The d < 64 invariant of the attrset masks used here is enforced when
// the tables are built (marginal.New) and, with typed errors, at the
// core.Config and dataset input boundaries — not here.
func Overall(views []*marginal.Table) {
	overall(views, false)
}

// OverallWeighted is Overall with each view's coefficients weighted
// 2^{-|V_i|}, the inverse variance of its projections (a projection onto
// A sums 2^{|V_i|-|A|} noisy cells). §4.4's sweep with those weights has
// the same closed form, and the result is the least-squares projection
// onto consistent views for any mix of view sizes; with one size it
// equals Overall.
func OverallWeighted(views []*marginal.Table) {
	overall(views, true)
}

// overall works on the views' coefficients in place. Each coefficient is
// averaged once, from the first view that holds it.
func overall(views []*marginal.Table, weighted bool) {
	if len(views) < 2 {
		return
	}
	masks := make([]attrset.Set, len(views))
	weights := make([]float64, len(views))
	for i, v := range views {
		masks[i] = v.Mask()
		weights[i] = 1
		if weighted {
			weights[i] = 1 / float64(len(v.Cells))
		}
		fourier.WHT(v.Cells)
	}
	for i, v := range views {
		// t is coefficient p's attribute set: both step in ascending
		// order, t through the submasks of V_i.
		mi := masks[i]
	coefficients:
		//lint:hot
		for p, t := 0, attrset.Set(0); p < len(v.Cells); p, t = p+1, (t-mi)&mi {
			for _, mj := range masks[:i] {
				if t.Subset(mj) {
					continue coefficients
				}
			}
			sum, wsum := weights[i]*v.Cells[p], weights[i]
			for j := i + 1; j < len(views); j++ {
				if t.Subset(masks[j]) {
					sum += weights[j] * views[j].Cells[attrset.PosMask(t, masks[j])]
					wsum += weights[j]
				}
			}
			mean := sum / wsum
			v.Cells[p] = mean
			for j := i + 1; j < len(views); j++ {
				if t.Subset(masks[j]) {
					views[j].Cells[attrset.PosMask(t, masks[j])] = mean
				}
			}
		}
	}
	for _, v := range views {
		fourier.InverseWHT(v.Cells)
	}
}

// IsPairwiseConsistent reports whether every pair of views agrees on the
// projection onto their common attributes to within tol.
func IsPairwiseConsistent(views []*marginal.Table, tol float64) bool {
	for i := 0; i < len(views); i++ {
		for j := i + 1; j < len(views); j++ {
			common := views[i].Mask().Intersect(views[j].Mask()).Attrs()
			pi := views[i].Project(common)
			pj := views[j].Project(common)
			if !marginal.Equal(pi, pj, tol) {
				return false
			}
		}
	}
	return true
}
