package core

import (
	"math"
	"testing"

	"priview/internal/covering"
	"priview/internal/dataset"
	"priview/internal/noise"
)

// TestEndToEndDPAudit empirically audits the whole release path: build
// PriView synopses over two neighboring datasets (D' = D plus one
// record) many times and compare the output distributions of a raw
// published view cell. ε-DP requires the likelihood ratio of any
// outcome to stay within e^ε; we check histogram ratios over dense
// buckets with statistical slack. This exercises the actual budget
// split across views (scale w/ε), not just the Laplace primitive.
func TestEndToEndDPAudit(t *testing.T) {
	const (
		eps    = 1.0
		trials = 30000
	)
	// Small world: d=4, three views of 3 attributes (w=3), so each
	// trial is microseconds. The extra record lands in view-0 cell
	// 0b000.
	base := dataset.New(4, []uint64{0b0001, 0b0110, 0b1011})
	neighbor := dataset.New(4, []uint64{0b0001, 0b0110, 0b1011, 0b0000})
	design := &covering.Design{D: 4, T: 2, L: 3, Blocks: [][]int{{0, 1, 2}, {1, 2, 3}, {0, 2, 3}}}
	if err := design.Verify(); err != nil {
		t.Fatal(err)
	}
	root := noise.NewStream(123)
	histA := map[int]int{}
	histB := map[int]int{}
	const width = 1.0
	bucket := func(x float64) int { return int(math.Floor(x / width)) }
	for i := 0; i < trials; i++ {
		sa := BuildSynopsis(base, Config{Epsilon: eps, Design: design, SkipPostprocess: true},
			root.DeriveIndexed("a", i))
		sb := BuildSynopsis(neighbor, Config{Epsilon: eps, Design: design, SkipPostprocess: true},
			root.DeriveIndexed("b", i))
		histA[bucket(sa.rawViews[0].Cells[0])]++
		histB[bucket(sb.rawViews[0].Cells[0])]++
	}
	bound := math.Exp(eps)
	checked := 0
	for b, ca := range histA {
		cb := histB[b]
		if ca < 400 || cb < 400 {
			continue
		}
		checked++
		ratio := float64(ca) / float64(cb)
		if ratio > bound*1.25 || ratio < 1/(bound*1.25) {
			t.Errorf("bucket %d: likelihood ratio %.3f outside e^±ε = %.3f", b, ratio, bound)
		}
	}
	if checked < 3 {
		t.Fatalf("only %d dense buckets; audit underpowered", checked)
	}
}

// TestBudgetSplitAcrossViews verifies the per-view noise scale is w/ε:
// the empirical variance of a published cell must be ≈ 2(w/ε)².
func TestBudgetSplitAcrossViews(t *testing.T) {
	data := dataset.New(4, []uint64{1, 2, 3})
	design := &covering.Design{D: 4, T: 2, L: 3, Blocks: [][]int{{0, 1, 2}, {1, 2, 3}, {0, 1, 3}}}
	if err := design.Verify(); err != nil {
		t.Fatal(err)
	}
	const eps = 0.8
	w := float64(design.W())
	root := noise.NewStream(9)
	var sum, sumSq float64
	const trials = 20000
	for i := 0; i < trials; i++ {
		s := BuildSynopsis(data, Config{Epsilon: eps, Design: design, SkipPostprocess: true},
			root.DeriveIndexed("t", i))
		v := s.rawViews[1].Cells[3]
		sum += v
		sumSq += v * v
	}
	mean := sum / trials
	variance := sumSq/trials - mean*mean
	want := 2 * (w / eps) * (w / eps)
	if math.Abs(variance-want)/want > 0.08 {
		t.Errorf("published-cell variance = %v, want ≈ %v (scale w/ε)", variance, want)
	}
}
