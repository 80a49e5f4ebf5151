// Package audit checks a published PriView synopsis against the
// paper's release invariants: every stored value is finite, views are
// mutually consistent on shared attribute sets (§4.4), per-view totals
// agree with the published total, and negative cells stay within the
// Ripple tolerance. The checker is a pure post-condition pass — it
// never modifies the synopsis — and returns a structured report rather
// than a bare error so callers can distinguish "release is broken"
// from "release is noisy but usable".
//
// Build runs it to catch post-processing bugs at the source; Load and
// the snapshot store run it so a synopsis that was valid when written
// but rotted on disk (or was corrupted in transit) is refused before it
// serves a single query.
package audit

import (
	"fmt"
	"math"
	"math/bits"
	"strings"

	"priview/internal/attrset"
	"priview/internal/consistency"
	"priview/internal/covering"
	"priview/internal/fourier"
	"priview/internal/marginal"
)

// Severity grades a finding. Only Error findings make a report fail:
// Warning covers expected statistical artifacts (e.g. mildly negative
// cells from the final consistency pass), Info is observational.
type Severity int

const (
	Info Severity = iota
	Warning
	Error
)

// String implements fmt.Stringer.
func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warning:
		return "warning"
	case Error:
		return "error"
	default:
		return fmt.Sprintf("severity(%d)", int(s))
	}
}

// MarshalText renders the severity as its lower-case name in JSON
// reports.
func (s Severity) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// Finding is one invariant violation (or observation).
type Finding struct {
	Severity Severity `json:"severity"`
	// Invariant names the checked property: "finiteness", "structure",
	// "non-negativity", "consistency" or "total".
	Invariant string `json:"invariant"`
	// View is the index of the offending view, or -1 for synopsis-level
	// findings (for "consistency" it is the first view of the pair).
	View int `json:"view"`
	// Detail is a human-readable description.
	Detail string `json:"detail"`
	// Value is the offending quantity (the negative cell, the
	// consistency gap, …); NaN when not applicable.
	Value float64 `json:"value"`
}

// Report is the result of an audit pass.
type Report struct {
	Views    int       `json:"views"`
	Pairs    int       `json:"pairs_checked"`
	Findings []Finding `json:"findings"`
}

// OK reports whether the synopsis passed: no Error-severity findings.
func (r *Report) OK() bool {
	for _, f := range r.Findings {
		if f.Severity >= Error {
			return false
		}
	}
	return true
}

// Err returns nil when the report is OK, otherwise an error summarizing
// the first Error finding and the total count.
func (r *Report) Err() error {
	n, first := 0, ""
	for _, f := range r.Findings {
		if f.Severity >= Error {
			if n == 0 {
				first = f.Detail
			}
			n++
		}
	}
	if n == 0 {
		return nil
	}
	return fmt.Errorf("audit: %d invariant violation(s); first: %s", n, first)
}

// String renders the report for terminals: a one-line verdict followed
// by the findings, most severe first.
func (r *Report) String() string {
	var b strings.Builder
	if r.OK() {
		fmt.Fprintf(&b, "audit: OK (%d views, %d pairs checked", r.Views, r.Pairs)
		if len(r.Findings) > 0 {
			fmt.Fprintf(&b, ", %d note(s)", len(r.Findings))
		}
		b.WriteString(")\n")
	} else {
		fmt.Fprintf(&b, "audit: FAILED (%d views, %d finding(s))\n", r.Views, len(r.Findings))
	}
	for sev := Error; sev >= Info; sev-- {
		for _, f := range r.Findings {
			if f.Severity != sev {
				continue
			}
			fmt.Fprintf(&b, "  [%s] %s: %s\n", f.Severity, f.Invariant, f.Detail)
		}
	}
	return b.String()
}

func (r *Report) add(sev Severity, invariant string, view int, value float64, format string, args ...interface{}) {
	r.Findings = append(r.Findings, Finding{
		Severity: sev, Invariant: invariant, View: view,
		Detail: fmt.Sprintf(format, args...), Value: value,
	})
}

// Synopsis is the read surface the auditor needs; *core.Synopsis
// implements it.
type Synopsis interface {
	Views() []*marginal.Table
	Total() float64
	Epsilon() float64
	Design() *covering.Design
}

// Options tunes the audit tolerances. The zero value selects defaults
// calibrated to the release pipeline: the final mutual-consistency pass
// is exact up to float rounding, so the consistency and total
// tolerances are tight (1e-6 relative), while the non-negativity
// thresholds are loose — that pass can lawfully push cells below the
// Ripple tolerance θ again, which is statistical noise, not damage.
type Options struct {
	// NonnegWarn is the (positive) magnitude beyond which a negative
	// cell is worth a Warning. Default: consistency.DefaultRippleTheta.
	NonnegWarn float64
	// NonnegErr is the magnitude at which a negative cell becomes an
	// Error — far outside anything post-processing produces. The
	// default scales with the per-cell Laplace noise b = w/ε (the
	// consistency passes can lawfully leave cells several noise scales
	// negative): max(0.1·|total|, 20·w/ε, 10).
	NonnegErr float64
	// ConsistencyTol bounds the max-abs gap between two views projected
	// onto a shared attribute set. Default: 1e-6·max(|total|, 1).
	ConsistencyTol float64
	// TotalTol bounds the spread of per-view totals around their mean
	// and the gap to the published total. Default: 1e-6·max(|total|, 1).
	TotalTol float64
}

func (o Options) withDefaults(total, eps float64, w int) Options {
	ref := math.Max(math.Abs(total), 1)
	if o.NonnegWarn <= 0 {
		o.NonnegWarn = consistency.DefaultRippleTheta
	}
	if o.NonnegErr <= 0 {
		o.NonnegErr = math.Max(0.1*math.Abs(total), 10)
		if eps > 0 {
			noiseScale := float64(w) / eps
			o.NonnegErr = math.Max(o.NonnegErr, 20*noiseScale)
		}
	}
	if o.ConsistencyTol <= 0 {
		o.ConsistencyTol = 1e-6 * ref
	}
	if o.TotalTol <= 0 {
		o.TotalTol = 1e-6 * ref
	}
	return o
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Check audits the synopsis against the release invariants and returns
// the structured report. It never panics and never modifies s.
func Check(s Synopsis, opt Options) *Report {
	views := s.Views()
	total := s.Total()
	opt = opt.withDefaults(total, s.Epsilon(), len(views))
	r := &Report{Views: len(views)}

	if len(views) == 0 {
		r.add(Error, "structure", -1, math.NaN(), "synopsis has no views")
		return r
	}
	if !finite(total) {
		r.add(Error, "finiteness", -1, total, "published total is %v", total)
	}
	if eps := s.Epsilon(); !finite(eps) || eps < 0 {
		r.add(Error, "finiteness", -1, eps, "epsilon is %v", eps)
	}

	// Per-view structure, finiteness and non-negativity. A view with a
	// non-finite cell is excluded from the cross-view checks below —
	// its projections would poison every comparison. Views with a cell
	// below -NonnegWarn share one Warning, which counts them and names
	// the lowest.
	usable := make([]bool, len(views))
	norm := make([]float64, len(views)) // ‖v‖₁ of each usable view
	cells := 0                          // the usable views' cells
	negViews, lowestView, lowest := 0, -1, 0.0
	for i, v := range views {
		if v == nil {
			r.add(Error, "structure", i, math.NaN(), "view %d is nil", i)
			continue
		}
		if want := 1 << uint(len(v.Attrs)); len(v.Cells) != want {
			r.add(Error, "structure", i, float64(len(v.Cells)),
				"view %d (attrs %v) has %d cells, want %d", i, v.Attrs, len(v.Cells), want)
			continue
		}
		usable[i] = true
		worstNeg := 0.0
		for j, c := range v.Cells {
			if !finite(c) {
				r.add(Error, "finiteness", i, c, "view %d (attrs %v) cell %d is %v", i, v.Attrs, j, c)
				usable[i] = false
				break
			}
			if c < worstNeg {
				worstNeg = c
			}
			norm[i] += math.Abs(c)
		}
		if !usable[i] {
			continue
		}
		cells += len(v.Cells)
		switch {
		case worstNeg < -opt.NonnegErr:
			r.add(Error, "non-negativity", i, worstNeg,
				"view %d (attrs %v) has cell %v, far below -%v", i, v.Attrs, worstNeg, opt.NonnegErr)
		case worstNeg < -opt.NonnegWarn:
			negViews++
			if worstNeg < lowest {
				lowestView, lowest = i, worstNeg
			}
		}
	}
	if negViews > 0 {
		r.add(Warning, "non-negativity", lowestView, lowest,
			"%d view(s) have a cell below the Ripple tolerance -%v; lowest: view %d (attrs %v) cell %v",
			negViews, opt.NonnegWarn, lowestView, views[lowestView].Attrs, lowest)
	}

	// Total preservation: the per-view totals must agree with each
	// other; the published total must match their mean, except in the
	// clamp case where a negative mean is published as 0.
	var sum float64
	n := 0
	for i, v := range views {
		if usable[i] {
			sum += v.Total()
			n++
		}
	}
	if n > 0 {
		mean := sum / float64(n)
		for i, v := range views {
			if !usable[i] {
				continue
			}
			if gap := math.Abs(v.Total() - mean); gap > opt.TotalTol {
				r.add(Error, "total", i, gap,
					"view %d total %v deviates from mean %v by %v (tol %v)", i, v.Total(), mean, gap, opt.TotalTol)
			}
		}
		clamped := total >= 0 && total <= opt.TotalTol && mean < 0
		if gap := math.Abs(total - mean); gap > opt.TotalTol && !clamped {
			r.add(Error, "total", -1, gap,
				"published total %v deviates from view mean %v by %v (tol %v)", total, mean, gap, opt.TotalTol)
		} else if clamped {
			r.add(Info, "total", -1, mean, "published total clamped to 0 from negative view mean %v", mean)
		}
	}

	// Mutual consistency (§4.4): every pair of views sharing attributes
	// must agree on the shared marginal. A marginal over S is fixed by
	// the Walsh–Hadamard coefficients supported within S, so each pair
	// is first screened on those (pairBound); only a pair the screen
	// cannot clear projects both views and compares them cell by cell.
	coef := make([][]float64, len(views))
	slab := make([]float64, cells)
	for i, v := range views {
		if usable[i] {
			coef[i], slab = slab[:len(v.Cells):len(v.Cells)], slab[len(v.Cells):]
			copy(coef[i], v.Cells)
			fourier.WHT(coef[i])
		}
	}
	// In exact arithmetic no cell of P_S(vᵢ) − P_S(vⱼ) exceeds the
	// bound B, so a pair clears when B ≤ tol − margin. The margin covers
	// the rounding of the computed B and of the exact path's computed
	// gap; with u = 2⁻⁵², n a view's cell count and
	// M = max(‖vᵢ‖₁, ‖vⱼ‖₁):
	//   - each WHT coefficient is off by ≤ log₂n·u·‖v‖₁, which moves B
	//     by ≤ (log₂nᵢ + log₂nⱼ)·u·M;
	//   - B's subtractions, absolute values and sum round by a relative
	//     ≤ (2^|S| + 2)·u, and B ≤ tol where it clears;
	//   - the exact path sums each projected cell in ascending cell
	//     order, off by ≤ n·u·‖v‖₁, so its gap is off by ≤ (nᵢ + nⱼ)·u·M.
	// Together these stay below 2·(nᵢ + nⱼ)·u·(M + tol), and
	// margin = 8·(nᵢ + nⱼ)·u·(M + tol) is 4× that: a pair that clears
	// has a computed gap ≤ tol, hence no finding. A NaN or Inf in B or
	// in the margin makes the comparison false and sends the pair to
	// the exact path.
	tol := opt.ConsistencyTol
	for i := 0; i < len(views); i++ {
		if !usable[i] {
			continue
		}
		mi := views[i].Mask()
		for j := i + 1; j < len(views); j++ {
			if !usable[j] {
				continue
			}
			mj := views[j].Mask()
			shared := mi.Intersect(mj)
			if shared.Empty() {
				continue
			}
			r.Pairs++
			ci, cj := coef[i], coef[j]
			margin := 8 * float64(len(ci)+len(cj)) * 0x1p-52 * (math.Max(norm[i], norm[j]) + tol)
			if pairBound(ci, cj, attrset.PosMask(shared, mi), attrset.PosMask(shared, mj)) <= tol-margin {
				continue
			}
			attrs := shared.Attrs()
			gap := marginal.MaxAbsDiff(views[i].Project(attrs), views[j].Project(attrs))
			if gap > tol {
				r.add(Error, "consistency", i, gap,
					"views %d and %d disagree on shared attrs %v by %v (tol %v)", i, j, attrs, gap, tol)
			}
		}
	}

	if dg := s.Design(); dg != nil && dg.W() != len(views) {
		r.add(Info, "structure", -1, float64(len(views)),
			"design declares %d views, synopsis has %d (merged or pruned release)", dg.W(), len(views))
	}
	return r
}

// pairBound returns B = 2^−|S|·Σ_{T⊆S} |âᵢ(T) − âⱼ(T)|, where âᵢ and âⱼ
// are the Walsh–Hadamard coefficients of two views and pi and pj the
// positions their shared set S occupies in each (attrset.PosMask). The
// inverse transform bounds every cell of P_S(vᵢ) − P_S(vⱼ) by B. Both
// views index S's members in ascending attribute order, so the
// submasks of pi and pj, each enumerated in ascending order, visit the
// same T in lockstep.
func pairBound(ai, aj []float64, pi, pj uint64) float64 {
	b := 0.0
	//lint:hot
	for s, t := uint64(0), uint64(0); ; s, t = (s-pi)&pi, (t-pj)&pj {
		b += math.Abs(ai[s] - aj[t])
		if s == pi {
			break
		}
	}
	return b / float64(uint64(1)<<bits.OnesCount64(pi))
}
