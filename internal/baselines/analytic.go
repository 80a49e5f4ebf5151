package baselines

import (
	"math"

	"priview/internal/noise"
)

// DirectBeatsFlatThreshold returns the smallest d at which the Direct
// method's ESE (Eq. 4) drops below the Flat method's (Eq. 3), for a
// given k — the quantity tabulated in §3.2 (16, 26, 36, 46 for
// k = 2..5).
func DirectBeatsFlatThreshold(k int) int {
	for d := k + 1; d < 200; d++ {
		if DirectESE(d, k, 1) < FlatESE(d, 1) {
			return d
		}
	}
	return -1
}

// MidsizeViewsESE returns the ESE (in units of V_u) of answering a
// k-way marginal from one of w published ℓ-way views that covers it:
// each of the 2^k entries sums 2^{ℓ−k} cells carrying w²·V_u noise, so
// ESE = 2^k · 2^{ℓ−k} · w² = 2^ℓ·w². For the §4.1 example (d=16, k=2,
// ℓ=8, w=6) this is 2^2·6^2·2^6 = 9216 (the paper prints 9126, an
// arithmetic typo for the same formula).
func MidsizeViewsESE(w, ell int) float64 {
	return float64(w*w) * math.Pow(2, float64(ell))
}

// EllObjectivePairs is the §4.5 view-size objective 2^{ℓ/2}/(ℓ(ℓ−1))
// minimized when choosing ℓ for pair coverage.
func EllObjectivePairs(ell int) float64 {
	return math.Pow(2, float64(ell)/2) / float64(ell*(ell-1))
}

// EllObjectiveTriples is the triple-coverage objective
// 2^{ℓ/2}/(ℓ(ℓ−1)(ℓ−2)).
func EllObjectiveTriples(ell int) float64 {
	return math.Pow(2, float64(ell)/2) / float64(ell*(ell-1)*(ell-2))
}

// UnitVariance re-exports V_u for analytic tables.
func UnitVariance(eps float64) float64 { return noise.UnitVariance(eps) }
