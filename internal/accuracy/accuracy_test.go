package accuracy

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"priview/internal/marginal"
)

func tbl(attrs []int, cells ...float64) *marginal.Table {
	t := marginal.New(attrs)
	copy(t.Cells, cells)
	return t
}

func TestL2AndNormalized(t *testing.T) {
	a := tbl([]int{0}, 3, 0)
	b := tbl([]int{0}, 0, 4)
	if got := L2Error(a, b); got != 5 {
		t.Errorf("L2Error = %v, want 5", got)
	}
	if got := NormalizedL2Error(a, b, 10); got != 0.5 {
		t.Errorf("NormalizedL2Error = %v, want 0.5", got)
	}
}

func TestNormalizedL2PanicsOnBadN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NormalizedL2Error(tbl([]int{0}, 1, 1), tbl([]int{0}, 1, 1), 0)
}

func TestJSDivergenceSymmetricAndBounded(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := marginal.New([]int{0, 1, 2})
		q := marginal.New([]int{0, 1, 2})
		for i := range p.Cells {
			p.Cells[i] = r.Float64()
			q.Cells[i] = r.Float64()
		}
		a := JSDivergence(p, q)
		b := JSDivergence(q, p)
		return math.Abs(a-b) < 1e-12 && a >= 0 && a <= math.Log(2)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestJSDivergenceIdentical(t *testing.T) {
	p := tbl([]int{0, 1}, 1, 2, 3, 4)
	if got := JSDivergence(p, p); got != 0 {
		t.Errorf("JS(P||P) = %v, want 0", got)
	}
}

func TestJSDivergenceDisjointSupport(t *testing.T) {
	// Disjoint distributions reach the ln 2 maximum.
	p := tbl([]int{0}, 1, 0)
	q := tbl([]int{0}, 0, 1)
	if got := JSDivergence(p, q); math.Abs(got-math.Log(2)) > 1e-12 {
		t.Errorf("JS = %v, want ln 2", got)
	}
}

func TestJSDivergenceFiniteWhereKLIsNot(t *testing.T) {
	p := tbl([]int{0}, 1, 1)
	q := tbl([]int{0}, 0, 2)
	if got := JSDivergence(p, q); math.IsInf(got, 0) || math.IsNaN(got) {
		t.Errorf("JS = %v, want finite", got)
	}
}

func TestSummarize(t *testing.T) {
	c := Summarize([]float64{1, 2, 3, 4, 5})
	if c.Median != 3 || c.Mean != 3 {
		t.Errorf("median=%v mean=%v, want 3, 3", c.Median, c.Mean)
	}
	if c.P25 != 2 || c.P75 != 4 {
		t.Errorf("P25=%v P75=%v, want 2, 4", c.P25, c.P75)
	}
	if math.Abs(c.P95-4.8) > 1e-12 {
		t.Errorf("P95=%v, want 4.8", c.P95)
	}
}

func TestSummarizeSingleton(t *testing.T) {
	c := Summarize([]float64{7})
	if c.P25 != 7 || c.Median != 7 || c.P95 != 7 || c.Mean != 7 {
		t.Errorf("singleton candlestick = %+v", c)
	}
}

func TestSummarizeDoesNotMutate(t *testing.T) {
	in := []float64{3, 1, 2}
	Summarize(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("input mutated: %v", in)
	}
}

func TestPercentileEdges(t *testing.T) {
	s := []float64{10, 20, 30}
	if Percentile(s, 0) != 10 || Percentile(s, 1) != 30 {
		t.Error("extreme percentiles wrong")
	}
	if got := Percentile(s, 0.5); got != 20 {
		t.Errorf("P50 = %v, want 20", got)
	}
}

func TestEmptySamplesPanic(t *testing.T) {
	for _, fn := range []func(){
		func() { Summarize(nil) },
		func() { Percentile(nil, 0.5) },
	} {
		func() {
			defer func() { _ = recover() }()
			fn()
			t.Error("expected panic on empty sample")
		}()
	}
}
