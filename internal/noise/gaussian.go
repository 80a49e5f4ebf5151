package noise

import "math"

// Gaussian draws one sample from N(0, sigma²) using the source's
// uniform variates (Box–Muller; one of the pair is discarded to keep
// the Source interface minimal).
func Gaussian(src Source, sigma float64) float64 {
	if !(sigma > 0) || math.IsInf(sigma, 1) {
		panic("noise: Gaussian sigma must be positive and finite")
	}
	// Box–Muller with guards against log(0).
	u1 := src.Float64()
	//lint:ignore floatcmp log(u1) is finite for every u1 except exactly zero; rejecting more would bias the sample
	for u1 == 0 {
		u1 = src.Float64()
	}
	u2 := src.Float64()
	return sigma * math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// GaussianMechSigma returns the noise standard deviation for the
// analytic Gaussian mechanism under (ε, δ)-DP with the given L2
// sensitivity, using the classic calibration
// σ = Δ₂·sqrt(2 ln(1.25/δ))/ε (valid for ε ≤ 1; conservative above).
func GaussianMechSigma(l2Sensitivity, epsilon, delta float64) float64 {
	if !(l2Sensitivity > 0) {
		panic("noise: sensitivity must be positive")
	}
	if !(epsilon > 0) {
		panic("noise: epsilon must be positive")
	}
	if !(delta > 0 && delta < 1) {
		panic("noise: delta must be in (0,1)")
	}
	return l2Sensitivity * math.Sqrt(2*math.Log(1.25/delta)) / epsilon
}
