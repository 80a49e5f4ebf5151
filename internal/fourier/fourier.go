// Package fourier implements the Walsh–Hadamard (Fourier) analysis of
// contingency tables used by the Barak et al. baseline: a table over m
// binary attributes corresponds to 2^m coefficients
//
//	c_α = Σ_x (−1)^{α·x} T(x),
//
// and a marginal over A ⊆ attributes depends exactly on the coefficients
// whose support lies within A. The transform is an involution up to the
// 1/2^m factor, computed in place in O(m·2^m).
package fourier

import (
	"math/bits"

	"priview/internal/marginal"
)

// WHT applies the unnormalized Walsh–Hadamard transform in place. The
// input length must be a power of two. Applying it twice multiplies the
// vector by its length.
func WHT(v []float64) {
	n := len(v)
	if n == 0 || n&(n-1) != 0 {
		panic("fourier: length must be a power of two")
	}
	for h := 1; h < n; h <<= 1 {
		for i := 0; i < n; i += h << 1 {
			for j := i; j < i+h; j++ {
				x, y := v[j], v[j+h]
				v[j] = x + y
				v[j+h] = x - y
			}
		}
	}
}

// InverseWHT inverts WHT in place.
func InverseWHT(v []float64) {
	WHT(v)
	inv := 1 / float64(len(v))
	for i := range v {
		v[i] *= inv
	}
}

// Coefficients returns the full local coefficient vector of a marginal
// table: entry β (a bitmask over the table's attribute positions) holds
// c_β = Σ_y (−1)^{β·y} T(y).
func Coefficients(t *marginal.Table) []float64 {
	c := append([]float64(nil), t.Cells...)
	WHT(c)
	return c
}

// FromCoefficients reconstructs a marginal table over attrs from its
// local coefficient vector (length 2^len(attrs)).
func FromCoefficients(attrs []int, coeffs []float64) *marginal.Table {
	t := marginal.New(attrs)
	if len(coeffs) != t.Size() {
		panic("fourier: coefficient vector length mismatch")
	}
	copy(t.Cells, coeffs)
	InverseWHT(t.Cells)
	return t
}

// SubsetMasks returns all bitmasks over m positions with popcount ≤ k,
// in increasing numeric order. These index the coefficients the Barak et
// al. method publishes to support all k-way marginals over m attributes.
func SubsetMasks(m, k int) []int {
	var out []int
	for mask := 0; mask < 1<<uint(m); mask++ {
		if bits.OnesCount(uint(mask)) <= k {
			out = append(out, mask)
		}
	}
	return out
}
