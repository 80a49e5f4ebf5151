package baselines

import (
	"fmt"
	"math"

	"priview/internal/covering"
	"priview/internal/dataset"
	"priview/internal/marginal"
	"priview/internal/noise"
)

// Direct is the §3.2 baseline: publish every k-way marginal with
// independent Laplace noise, splitting the budget over all m = C(d,k)
// tables. The synopsis materializes queried marginals lazily — each
// marginal's noise is drawn once and cached, which is observationally
// identical to having published all of them up front.
type Direct struct {
	data        *dataset.Dataset
	k           int
	scale       float64
	src         noise.Source
	cache       map[string]*marginal.Table
	postprocess bool
}

// NewDirect builds the Direct synopsis for k-way marginals under budget
// eps. When postprocess is true, queried marginals get the paper's
// Fig. 2 optimization (negatives removed, difference redistributed).
func NewDirect(data *dataset.Dataset, eps float64, k int, postprocess bool, src noise.Source) *Direct {
	if k <= 0 || k > data.Dim() {
		panic(fmt.Sprintf("baselines: Direct with k=%d out of range for d=%d", k, data.Dim()))
	}
	m := covering.Binom(data.Dim(), k)
	return &Direct{
		data:        data,
		k:           k,
		scale:       noise.LaplaceMechScale(float64(m), eps),
		src:         src,
		cache:       map[string]*marginal.Table{},
		postprocess: postprocess,
	}
}

// Name implements Synopsis.
func (dm *Direct) Name() string { return "Direct" }

// Query implements Synopsis. attrs must have exactly k attributes: the
// Direct method commits to one marginal size when the budget is split.
func (dm *Direct) Query(attrs []int) *marginal.Table {
	t := marginal.New(attrs) // canonicalizes and validates attrs
	if t.Dim() != dm.k {
		panic(fmt.Sprintf("baselines: Direct synopsis built for k=%d, queried with %d attributes", dm.k, t.Dim()))
	}
	key := marginal.Key(t.Attrs)
	if cached, ok := dm.cache[key]; ok {
		return cached.Clone()
	}
	noisy := dm.data.Marginal(t.Attrs)
	noisy.AddLaplace(dm.src, dm.scale)
	if dm.postprocess {
		redistribute(noisy)
	}
	dm.cache[key] = noisy
	return noisy.Clone()
}

// DirectESE returns the expected squared error of the Direct method for
// one k-way marginal (Eq. 4): 2^k · C(d,k)^2 · V_u.
func DirectESE(d, k int, eps float64) float64 {
	m := float64(covering.Binom(d, k))
	return math.Pow(2, float64(k)) * m * m * noise.UnitVariance(eps)
}
