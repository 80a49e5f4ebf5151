// Package accuracy implements the paper's two error measures — L2 error
// distance (optionally normalized by dataset size) and Jensen–Shannon
// divergence between normalized marginals — plus the candlestick
// summaries (25th/50th/75th/95th percentile and mean) used in every
// figure.
package accuracy

import (
	"math"
	"sort"

	"priview/internal/marginal"
)

// L2Error returns the L2 distance between a reconstructed marginal and
// the true one.
func L2Error(recon, truth *marginal.Table) float64 {
	return marginal.L2Distance(recon, truth)
}

// NormalizedL2Error divides the L2 error by n (the dataset size) so that
// errors are comparable across datasets, exactly as the paper plots.
func NormalizedL2Error(recon, truth *marginal.Table, n float64) float64 {
	if n <= 0 {
		panic("accuracy: normalization requires n > 0")
	}
	return marginal.L2Distance(recon, truth) / n
}

// JSDivergence returns the Jensen–Shannon divergence between the
// normalized tables (Eq. 1 in the paper): a symmetrized, smoothed KL
// that is always finite and bounded by ln 2.
func JSDivergence(p, q *marginal.Table) float64 {
	if !marginal.SameAttrs(p.Attrs, q.Attrs) {
		panic("accuracy: JS over mismatched attribute sets")
	}
	pn := p.Normalized()
	qn := q.Normalized()
	m := pn.Clone()
	m.AddInto(qn)
	m.Scale(0.5)
	half := func(a *marginal.Table) float64 {
		d := 0.0
		for i := range a.Cells {
			ai := a.Cells[i]
			//lint:ignore floatcmp x·log x → 0 as x → 0, so only an exactly zero cell may be skipped
			if ai == 0 {
				continue
			}
			d += ai * math.Log(ai/m.Cells[i])
		}
		return d
	}
	return 0.5*half(pn) + 0.5*half(qn)
}

// Candlestick is the five-number profile the paper plots for each
// method/setting: quartiles, the 95th percentile, and the mean.
type Candlestick struct {
	P25, Median, P75, P95, Mean float64
}

// Summarize computes the candlestick of a non-empty sample. Percentiles
// use linear interpolation between order statistics.
func Summarize(samples []float64) Candlestick {
	if len(samples) == 0 {
		panic("accuracy: empty sample")
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return Candlestick{
		P25:    Percentile(s, 0.25),
		Median: Percentile(s, 0.50),
		P75:    Percentile(s, 0.75),
		P95:    Percentile(s, 0.95),
		Mean:   sum / float64(len(s)),
	}
}

// Percentile returns the p-quantile (0 ≤ p ≤ 1) of an ascending-sorted
// sample using linear interpolation.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		panic("accuracy: empty sample")
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}
