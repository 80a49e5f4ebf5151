package baselines

import (
	"fmt"
	"math"

	"priview/internal/covering"
	"priview/internal/dataset"
	"priview/internal/lp"
	"priview/internal/marginal"
	"priview/internal/noise"
)

// Learning is the learning-based baseline (§3.7, Gupta et al. /
// Thaler–Ullman–Vadhan): a k-way conjunction count is approximated by a
// low-degree polynomial in the number of matched attributes, evaluated
// from noisy ≤D-way match counts. The degree D ≈ √k·log2(1/γ) trades
// approximation error (larger γ) against noise (smaller γ adds more
// released counts and bigger combination coefficients) — the paper's
// Learning1/2/3 are γ = 1/2, 1/4, 1/8.
//
// Mechanics: a cell query for assignment y of attrs A counts records r
// whose match count s_r = |{i ∈ A : r_i = y_i}| equals k. With p a
// degree-D polynomial approximating the indicator [s = k] on {0..k},
//
//	count ≈ Σ_r p(s_r) = Σ_{t ≤ D} w_t Σ_{T⊆A, |T|=t} M_T(y|_T),
//
// where M_T counts records matching y on T and the weights w_t combine
// the polynomial's coefficients through Stirling numbers (s^j expanded
// in falling factorials). The released object is thus the set of noisy
// ≤D-way marginals, with the budget split over all
// m_D = Σ_{t≤D} C(d,t)·... released counts; answering amplifies their
// noise by the (large) combination weights, which is exactly why the
// method underperforms in the paper's Fig. 1.
type Learning struct {
	data    *dataset.Dataset
	k       int
	gamma   float64
	degree  int
	scale   float64 // Laplace scale per released count; 0 = noise-free
	src     noise.Source
	weights []float64 // w_t for t = 0..degree
	approx  float64   // minimax approximation error of the polynomial
	cache   map[string]*marginal.Table
}

// NewLearning builds the baseline for k-way marginals with accuracy
// parameter gamma under budget eps. If noisy is false the counts are
// released exactly — the paper's green-star series isolating
// approximation error.
func NewLearning(data *dataset.Dataset, eps float64, k int, gamma float64, noisy bool, src noise.Source) *Learning {
	d := data.Dim()
	if k <= 0 || k > d {
		panic(fmt.Sprintf("baselines: Learning with k=%d out of range for d=%d", k, d))
	}
	if gamma <= 0 || gamma >= 1 {
		panic("baselines: Learning needs gamma in (0,1)")
	}
	degree := int(math.Ceil(math.Sqrt(float64(k)) * math.Log2(1/gamma)))
	if degree < 1 {
		degree = 1
	}
	if degree > k {
		degree = k // degree k interpolates the indicator exactly
	}
	coefs, approx := fitThresholdPolynomial(k, degree)
	weights := combinationWeights(coefs)

	scale := 0.0
	if noisy {
		// One record changes exactly one cell of each ≤degree-way
		// marginal, i.e. Σ_{t≤D} C(d,t) released counts by 1 each.
		m := 0
		for t := 0; t <= degree; t++ {
			m += covering.Binom(d, t)
		}
		scale = noise.LaplaceMechScale(float64(m), eps)
	}
	return &Learning{
		data:    data,
		k:       k,
		gamma:   gamma,
		degree:  degree,
		scale:   scale,
		src:     src,
		weights: weights,
		approx:  approx,
		cache:   map[string]*marginal.Table{},
	}
}

// Name implements Synopsis.
func (lb *Learning) Name() string {
	return fmt.Sprintf("Learning(γ=%g)", lb.gamma)
}

// noisyMarginal returns the (cached) released marginal over the subset
// T; an empty T yields the 0-way table holding N.
func (lb *Learning) noisyMarginal(sub []int) *marginal.Table {
	key := marginal.Key(sub)
	if t, ok := lb.cache[key]; ok {
		return t
	}
	t := lb.data.Marginal(sub)
	if lb.scale > 0 {
		t.AddLaplace(lb.src, lb.scale)
	}
	lb.cache[key] = t
	return t
}

// Query implements Synopsis; len(attrs) must equal k (the polynomial is
// fitted to the threshold s = k).
func (lb *Learning) Query(attrs []int) *marginal.Table {
	out := marginal.New(attrs)
	if out.Dim() != lb.k {
		panic(fmt.Sprintf("baselines: Learning built for k=%d, queried with %d attributes", lb.k, out.Dim()))
	}
	// Enumerate subsets T ⊆ A with |T| ≤ degree once; reuse across
	// cells.
	type subsetInfo struct {
		mask  int // bitmask within attrs
		attrs []int
		table *marginal.Table
		pos   []int // positions of T within attrs
	}
	var subs []subsetInfo
	k := out.Dim()
	for mask := 0; mask < 1<<uint(k); mask++ {
		t := popcount(mask)
		if t > lb.degree {
			continue
		}
		sub := make([]int, 0, t)
		pos := make([]int, 0, t)
		for j := 0; j < k; j++ {
			if mask>>uint(j)&1 == 1 {
				sub = append(sub, out.Attrs[j])
				pos = append(pos, j)
			}
		}
		subs = append(subs, subsetInfo{
			mask:  mask,
			attrs: sub,
			table: lb.noisyMarginal(sub),
			pos:   pos,
		})
	}
	for y := range out.Cells {
		est := 0.0
		for _, s := range subs {
			t := len(s.attrs)
			// Index of y restricted to T within T's table.
			b := marginal.RestrictIndex(y, s.pos)
			est += lb.weights[t] * s.table.Cells[b]
		}
		out.Cells[y] = est
	}
	return out
}

// fitThresholdPolynomial finds coefficients c_0..c_D of the degree-D
// polynomial minimizing max_{s∈{0..k}} |p(s) − [s = k]|, via a small
// linear program (the discrete minimax / Remez problem). It returns the
// coefficients and the achieved minimax error.
func fitThresholdPolynomial(k, degree int) ([]float64, float64) {
	nc := degree + 1
	// Variables: c⁺_0..c⁺_D, c⁻_0..c⁻_D, τ — LP variables must be
	// non-negative, so coefficients are split into signed parts.
	nv := 2*nc + 1
	prob := &lp.Problem{NumVars: nv, Objective: make([]float64, nv)}
	prob.Objective[nv-1] = 1
	// Evaluate monomials at s; normalize by k^j to keep the tableau
	// well-conditioned, then unscale the coefficients at the end.
	scalePow := func(j int) float64 {
		if j == 0 {
			return 1
		}
		return math.Pow(float64(k), float64(j))
	}
	for s := 0; s <= k; s++ {
		target := 0.0
		if s == k {
			target = 1
		}
		le := make([]float64, nv)
		ge := make([]float64, nv)
		for j := 0; j < nc; j++ {
			v := math.Pow(float64(s), float64(j)) / scalePow(j)
			le[j], le[nc+j] = v, -v
			ge[j], ge[nc+j] = v, -v
		}
		le[nv-1] = -1
		ge[nv-1] = 1
		prob.Constraints = append(prob.Constraints,
			lp.Constraint{Coef: le, Rel: lp.LE, B: target},
			lp.Constraint{Coef: ge, Rel: lp.GE, B: target},
		)
	}
	sol, err := lp.Solve(prob)
	if err != nil {
		panic(fmt.Sprintf("baselines: threshold polynomial fit failed: %v", err))
	}
	coefs := make([]float64, nc)
	for j := 0; j < nc; j++ {
		coefs[j] = (sol.X[j] - sol.X[nc+j]) / scalePow(j)
	}
	return coefs, sol.Obj
}

// combinationWeights converts monomial coefficients c_j into per-subset-
// size weights w_t = t!·Σ_j c_j·S(j,t) using Stirling numbers of the
// second kind (s^j = Σ_t S(j,t)·s·(s−1)···(s−t+1)).
func combinationWeights(coefs []float64) []float64 {
	deg := len(coefs) - 1
	// S[j][t], 0 ≤ t ≤ j ≤ deg.
	S := make([][]float64, deg+1)
	for j := range S {
		S[j] = make([]float64, deg+1)
	}
	S[0][0] = 1
	for j := 1; j <= deg; j++ {
		for t := 1; t <= j; t++ {
			S[j][t] = S[j-1][t-1] + float64(t)*S[j-1][t]
		}
	}
	w := make([]float64, deg+1)
	factorial := 1.0
	for t := 0; t <= deg; t++ {
		if t > 0 {
			factorial *= float64(t)
		}
		sum := 0.0
		for j := t; j <= deg; j++ {
			sum += coefs[j] * S[j][t]
		}
		w[t] = factorial * sum
	}
	return w
}

func popcount(x int) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}
