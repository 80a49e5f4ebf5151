package marginal

import (
	"testing"

	"priview/internal/noise"
)

func benchTable(dim int) *Table {
	attrs := make([]int, dim)
	for i := range attrs {
		attrs[i] = i * 2
	}
	t := New(attrs)
	for i := range t.Cells {
		t.Cells[i] = float64(i%97) + 0.5
	}
	return t
}

func BenchmarkProject8to4(b *testing.B) {
	t := benchTable(8)
	sub := []int{0, 4, 8, 12}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t.Project(sub)
	}
}

func BenchmarkProject12to2(b *testing.B) {
	t := benchTable(12)
	sub := []int{0, 10}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t.Project(sub)
	}
}

func BenchmarkAddLaplace256(b *testing.B) {
	t := benchTable(8)
	src := noise.NewStream(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t.AddLaplace(src, 3.0)
	}
}

func BenchmarkL2Distance(b *testing.B) {
	x := benchTable(10)
	y := benchTable(10)
	for i := 0; i < b.N; i++ {
		L2Distance(x, y)
	}
}

func BenchmarkRestrictIndex(b *testing.B) {
	pos := []int{1, 3, 5, 7}
	s := 0
	for i := 0; i < b.N; i++ {
		s += RestrictIndex(i&255, pos)
	}
	_ = s
}

// The solver hot loop, before and after the attrset refactor: every
// IPF/Dykstra cycle projects the working table onto each
// constraint's attribute set. Old shape: per-cell bit-gather
// (RestrictIndex over a pos slice). New shape: mapping precomputed once
// (RestrictIndices), the loop is one array load per cell (ProjectInto).
// The precompute is amortized over hundreds of solver iterations, so
// the benchmarks compare steady-state iteration cost and hoist it.

func BenchmarkHotLoopProjectionOld(b *testing.B) {
	t := benchTable(12) // 4096 cells
	sub := []int{0, 8, 14}
	pos := t.Positions(sub)
	proj := make([]float64, 1<<uint(len(sub)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range proj {
			proj[j] = 0
		}
		for ci, v := range t.Cells {
			proj[RestrictIndex(ci, pos)] += v
		}
	}
}

func BenchmarkHotLoopProjectionNew(b *testing.B) {
	t := benchTable(12)
	sub := []int{0, 8, 14}
	ridx := t.RestrictIndices(sub)
	proj := make([]float64, 1<<uint(len(sub)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.ProjectInto(proj, ridx)
	}
}
