package baselines

import (
	"fmt"

	"priview/internal/covering"
	"priview/internal/dataset"
	"priview/internal/fourier"
	"priview/internal/marginal"
	"priview/internal/noise"
)

// Fourier is the Barak et al. baseline (§3.3): publish Laplace-noised
// Walsh–Hadamard coefficients for every attribute subset of size ≤ k,
// and rebuild any ≤k-way marginal from the 2^|A| coefficients supported
// inside it. Coefficients are materialized lazily and cached, which is
// equivalent to publishing all m = Σ_{i≤k} C(d,i) of them with the
// correspondingly split budget.
type Fourier struct {
	data        *dataset.Dataset
	k           int
	scale       float64
	src         noise.Source
	coeffs      map[string]float64
	postprocess bool
}

// NewFourier builds the Fourier synopsis supporting marginals up to k
// attributes under budget eps.
func NewFourier(data *dataset.Dataset, eps float64, k int, postprocess bool, src noise.Source) *Fourier {
	if k <= 0 || k > data.Dim() {
		panic(fmt.Sprintf("baselines: Fourier with k=%d out of range for d=%d", k, data.Dim()))
	}
	m := 0
	for i := 0; i <= k; i++ {
		m += covering.Binom(data.Dim(), i)
	}
	return &Fourier{
		data:        data,
		k:           k,
		scale:       noise.LaplaceMechScale(float64(m), eps),
		src:         src,
		coeffs:      map[string]float64{},
		postprocess: postprocess,
	}
}

// Name implements Synopsis.
func (fm *Fourier) Name() string { return "Fourier" }

// Query implements Synopsis. len(attrs) must be at most k.
//
// All 2^|attrs| coefficients supported inside the queried set are
// obtained from one data scan: the WHT of the true marginal over attrs
// yields every c_β with supp(β) ⊆ attrs at once (marginalization is
// coefficient restriction in the Fourier domain). Noisy values are
// cached per global subset so overlapping queries share coefficients,
// exactly as if all m coefficients had been published up front.
func (fm *Fourier) Query(attrs []int) *marginal.Table {
	t := marginal.New(attrs)
	if t.Dim() > fm.k {
		panic(fmt.Sprintf("baselines: Fourier synopsis supports up to %d-way marginals, got %d", fm.k, t.Dim()))
	}
	truth := fm.data.Marginal(t.Attrs)
	trueCoeffs := fourier.Coefficients(truth)
	local := make([]float64, t.Size())
	sub := make([]int, 0, t.Dim())
	for beta := 0; beta < t.Size(); beta++ {
		sub = sub[:0]
		for j, a := range t.Attrs {
			if beta>>uint(j)&1 == 1 {
				sub = append(sub, a)
			}
		}
		key := marginal.Key(sub)
		v, ok := fm.coeffs[key]
		if !ok {
			v = trueCoeffs[beta] + noise.Laplace(fm.src, fm.scale)
			fm.coeffs[key] = v
		}
		local[beta] = v
	}
	out := fourier.FromCoefficients(t.Attrs, local)
	if fm.postprocess {
		redistribute(out)
	}
	return out
}
