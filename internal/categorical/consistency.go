package categorical

import (
	"priview/internal/attrset"
)

// MutualOnSet enforces consistency of the views on attribute set a
// (which every view must cover), exactly as in the binary case: average
// the projections, then update each view additively, spreading each
// correction evenly over the view cells in the corresponding group.
func MutualOnSet(views []*Table, a []int) *Table {
	if len(views) == 0 {
		panic("categorical: no views")
	}
	sorted := sortedCopy(a)
	est := views[0].Project(sorted)
	projections := make([]*Table, len(views))
	projections[0] = est.Clone()
	for i := 1; i < len(views); i++ {
		projections[i] = views[i].Project(sorted)
		est.AddInto(projections[i])
	}
	est.Scale(1 / float64(len(views)))
	for i, v := range views {
		applyEstimate(v, est, projections[i])
	}
	return est
}

func applyEstimate(view, est, proj *Table) {
	pos := view.positions(est.Attrs)
	group := float64(view.Size()) / float64(est.Size())
	corr := make([]float64, est.Size())
	for i := range est.Cells {
		corr[i] = (est.Cells[i] - proj.Cells[i]) / group
	}
	for c := range view.Cells {
		corr2 := corr[view.restrictIndex(c, pos, est.strides)]
		view.Cells[c] += corr2
	}
}

// Overall makes all views mutually consistent by processing the
// intersection closure of their attribute sets in subset order, as in
// the binary implementation. The closure is the shared
// attrset.IntersectionClosure kernel — this package previously carried
// a private copy of the mask/closure machinery, now retired.
func Overall(views []*Table) {
	if len(views) < 2 {
		return
	}
	masks := make([]attrset.Set, len(views))
	for i, v := range views {
		masks[i] = attrset.MustFromAttrs(v.Attrs)
	}
	sets := attrset.IntersectionClosure(masks)
	group := make([]*Table, 0, len(views))
	for _, m := range sets {
		group = group[:0]
		for i, vm := range masks {
			if m.Subset(vm) {
				group = append(group, views[i])
			}
		}
		if len(group) >= 2 {
			MutualOnSet(group, m.Attrs())
		}
	}
}

// Ripple corrects negative entries the §4.7 way: a cell below −θ is
// zeroed and its mass pulled evenly from all cells differing from it in
// exactly one attribute's value — Σ_j (card_j − 1) neighbors.
func Ripple(t *Table, theta float64) {
	if theta <= 0 {
		panic("categorical: Ripple requires theta > 0")
	}
	if t.Dim() == 0 {
		return
	}
	numNeighbors := 0
	for _, c := range t.Cards {
		numNeighbors += c - 1
	}
	queue := make([]int, 0, len(t.Cells))
	inQueue := make([]bool, len(t.Cells))
	for i, v := range t.Cells {
		if v < -theta {
			queue = append(queue, i)
			inQueue[i] = true
		}
	}
	maxOps := 64 * len(t.Cells) * (numNeighbors + 1)
	ops := 0
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		inQueue[i] = false
		c := t.Cells[i]
		if c >= -theta {
			continue
		}
		t.Cells[i] = 0
		share := -c / float64(numNeighbors)
		for j := range t.Cards {
			cur := (i / t.strides[j]) % t.Cards[j]
			base := i - cur*t.strides[j]
			for v := 0; v < t.Cards[j]; v++ {
				if v == cur {
					continue
				}
				nb := base + v*t.strides[j]
				t.Cells[nb] -= share
				if t.Cells[nb] < -theta && !inQueue[nb] {
					queue = append(queue, nb)
					inQueue[nb] = true
				}
			}
		}
		if ops++; ops > maxOps {
			// Pathological θ; fall back to clamping.
			for j, v := range t.Cells {
				if v < 0 {
					t.Cells[j] = 0
				}
			}
			return
		}
	}
}
