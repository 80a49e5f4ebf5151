package baselines

import (
	"fmt"
	"math"
	"math/bits"

	"priview/internal/covering"
	"priview/internal/dataset"
	"priview/internal/fourier"
)

// MaxMatrixDim bounds the matrix mechanism: the strategy optimization
// examines all 2^d Fourier directions of the workload Gram matrix. The
// paper likewise only runs its approximations at d=9.
const MaxMatrixDim = 20

// MatrixMechanism is the Li et al. baseline (§3.5) instantiated with the
// best strategy that is diagonal in the Walsh–Hadamard basis — computed
// exactly, with no semidefinite programming, by exploiting the structure
// of the marginal workload:
//
// The Gram matrix of the all-k-way-marginals workload has entries
// (WᵀW)[x][y] = C(d − H(x,y), k) (the number of k-way cell queries
// containing both x and y), a function of x⊕y alone. Such ⊕-convolution
// matrices are diagonalized by the WHT, with eigenvalue
// μ_α = Σ_z C(d−|z|, k)(−1)^{α·z} on the parity function χ_α. Among
// strategies A whose rows are scaled parities a_α·χ_α, the expected
// total squared error (2/ε²)·(Σ a_α)²·Σ_α μ_α/(2^d a_α²) is minimized
// at a_α ∝ μ_α^{1/3}, which the constructor solves in closed form. As
// in the paper, the experiments plot the mechanism's expected error
// (ExpectedNormalizedL2) rather than sampled answers.
type MatrixMechanism struct {
	data *dataset.Dataset
	k    int
	eps  float64
	aByW []float64 // strategy weight per mask popcount (0 where μ=0)
	sens float64   // Σ_α a_α, the strategy's L1 sensitivity
}

// NewMatrixMechanism builds the mechanism for the workload of all k-way
// marginal cell queries under budget eps.
func NewMatrixMechanism(data *dataset.Dataset, eps float64, k int) *MatrixMechanism {
	d := data.Dim()
	if d > MaxMatrixDim {
		panic(fmt.Sprintf("baselines: matrix mechanism unfeasible for d=%d (max %d)", d, MaxMatrixDim))
	}
	if k <= 0 || k > d {
		panic(fmt.Sprintf("baselines: matrix mechanism with k=%d out of range for d=%d", k, d))
	}
	// Workload Gram kernel and its WHT spectrum.
	n := 1 << uint(d)
	g := make([]float64, n)
	for z := 0; z < n; z++ {
		g[z] = float64(covering.Binom(d-bits.OnesCount(uint(z)), k))
	}
	fourier.WHT(g)
	// Eigenvalues depend only on popcount; collect one per weight and
	// count multiplicities.
	muByW := make([]float64, d+1)
	countByW := make([]float64, d+1)
	for alpha := 0; alpha < n; alpha++ {
		w := bits.OnesCount(uint(alpha))
		mu := g[alpha]
		if mu < 0 && mu > -1e-6 {
			mu = 0 // numerical zero
		}
		muByW[w] = mu
		countByW[w]++
	}
	// Optimal diagonal strategy: a_α ∝ μ_α^{1/3} where μ_α > 0.
	aByW := make([]float64, d+1)
	sens := 0.0
	for w := 0; w <= d; w++ {
		if muByW[w] > 1e-9 {
			aByW[w] = math.Pow(muByW[w], 1.0/3.0)
			sens += aByW[w] * countByW[w]
		}
	}
	return &MatrixMechanism{
		data: data,
		k:    k,
		eps:  eps,
		aByW: aByW,
		sens: sens,
	}
}

// ExpectedMarginalESE returns the expected squared error of one k-way
// marginal table under the mechanism: each of the 2^k cells averages
// the 2^k in-span coefficients, so the table ESE is
// 2^{-k} Σ_{β⊆A} Var(ĉ_β) with Var(ĉ_β) = 2·sens²/(ε²·a_β²). By
// symmetry this depends only on k, not on which attributes are asked.
func (mm *MatrixMechanism) ExpectedMarginalESE() float64 {
	sum := 0.0
	for t := 0; t <= mm.k; t++ {
		a := mm.aByW[t]
		if a <= 0 {
			continue
		}
		varC := 2 * mm.sens * mm.sens / (mm.eps * mm.eps * a * a)
		sum += float64(covering.Binom(mm.k, t)) * varC
	}
	return sum / float64(int(1)<<uint(mm.k))
}

// ExpectedNormalizedL2 returns sqrt(ExpectedMarginalESE)/N, the value
// the paper plots for the matrix mechanism.
func (mm *MatrixMechanism) ExpectedNormalizedL2() float64 {
	return math.Sqrt(mm.ExpectedMarginalESE()) / float64(mm.data.Len())
}
