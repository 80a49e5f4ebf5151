package consistency

import (
	"math/rand"
	"testing"

	"priview/internal/covering"
	"priview/internal/marginal"
)

func benchViews(b *testing.B, d, l, t int) []*marginal.Table {
	b.Helper()
	dg := covering.Groups(d, l)
	if t == 3 {
		// Groups only builds t=2; that is representative enough for the
		// consistency cost, which depends on w and overlaps.
		b.Helper()
	}
	r := rand.New(rand.NewSource(7))
	views := make([]*marginal.Table, dg.W())
	for i, block := range dg.Blocks {
		v := marginal.New(block)
		for c := range v.Cells {
			v.Cells[c] = r.Float64()*100 - 5
		}
		views[i] = v
	}
	return views
}

func BenchmarkOverallD32(b *testing.B) {
	base := benchViews(b, 32, 8, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		views := make([]*marginal.Table, len(base))
		for j, v := range base {
			views[j] = v.Clone()
		}
		b.StartTimer()
		Overall(views)
	}
}

func BenchmarkRipple256(b *testing.B) {
	r := rand.New(rand.NewSource(8))
	base := marginal.New([]int{0, 1, 2, 3, 4, 5, 6, 7})
	for i := range base.Cells {
		base.Cells[i] = r.Float64()*40 - 10
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		t := base.Clone()
		b.StartTimer()
		Ripple(t, 0.5)
	}
}
