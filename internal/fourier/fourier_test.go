package fourier

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"

	"priview/internal/marginal"
)

// coefficient computes the single coefficient c_β of a marginal table
// directly from its definition (β is a bitmask over the table's
// attribute positions): the oracle for the batch transform.
func coefficient(t *marginal.Table, beta int) float64 {
	c := 0.0
	for y, v := range t.Cells {
		if bits.OnesCount(uint(y&beta))&1 == 1 {
			c -= v
		} else {
			c += v
		}
	}
	return c
}

func TestWHTInvolution(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 << uint(1+r.Intn(6))
		v := make([]float64, n)
		orig := make([]float64, n)
		for i := range v {
			v[i] = r.Float64()*10 - 5
			orig[i] = v[i]
		}
		WHT(v)
		InverseWHT(v)
		for i := range v {
			if math.Abs(v[i]-orig[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestWHTMatchesDefinition(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	v := make([]float64, 8)
	for i := range v {
		v[i] = r.Float64()
	}
	c := append([]float64(nil), v...)
	WHT(c)
	for alpha := 0; alpha < 8; alpha++ {
		want := 0.0
		for x := 0; x < 8; x++ {
			if bits.OnesCount(uint(alpha&x))&1 == 1 {
				want -= v[x]
			} else {
				want += v[x]
			}
		}
		if math.Abs(c[alpha]-want) > 1e-9 {
			t.Errorf("c[%d] = %v, want %v", alpha, c[alpha], want)
		}
	}
}

func TestWHTPanicsOnBadLength(t *testing.T) {
	for _, n := range []int{0, 3, 6} {
		func() {
			defer func() { _ = recover() }()
			WHT(make([]float64, n))
			t.Errorf("WHT accepted length %d", n)
		}()
	}
}

func TestCoefficientZeroIsTotal(t *testing.T) {
	tab := marginal.New([]int{0, 1})
	tab.Cells = []float64{1, 2, 3, 4}
	if got := coefficient(tab, 0); got != 10 {
		t.Errorf("c_0 = %v, want total 10", got)
	}
	c := Coefficients(tab)
	if c[0] != 10 {
		t.Errorf("Coefficients[0] = %v, want 10", c[0])
	}
}

func TestCoefficientMatchesBatch(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	tab := marginal.New([]int{2, 5, 7})
	for i := range tab.Cells {
		tab.Cells[i] = r.Float64() * 20
	}
	batch := Coefficients(tab)
	for beta := 0; beta < tab.Size(); beta++ {
		if got := coefficient(tab, beta); math.Abs(got-batch[beta]) > 1e-9 {
			t.Errorf("coefficient(%d) = %v, batch = %v", beta, got, batch[beta])
		}
	}
}

func TestFromCoefficientsRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tab := marginal.New([]int{0, 3, 4, 9})
		for i := range tab.Cells {
			tab.Cells[i] = r.Float64() * 100
		}
		back := FromCoefficients(tab.Attrs, Coefficients(tab))
		return marginal.Equal(tab, back, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Marginalization in the table domain = coefficient restriction in the
// Fourier domain: the projection's coefficient c_β equals the original
// table's coefficient at the embedded mask.
func TestProjectionCoefficientIdentity(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	tab := marginal.New([]int{0, 1, 2})
	for i := range tab.Cells {
		tab.Cells[i] = r.Float64() * 50
	}
	proj := tab.Project([]int{0, 2})
	projCoeffs := Coefficients(proj)
	// Positions of {0,2} within {0,1,2} are bits 0 and 2.
	embed := func(beta int) int {
		out := 0
		if beta&1 != 0 {
			out |= 1 // attr 0 -> bit 0
		}
		if beta&2 != 0 {
			out |= 4 // attr 2 -> bit 2
		}
		return out
	}
	for beta := 0; beta < 4; beta++ {
		want := coefficient(tab, embed(beta))
		if math.Abs(projCoeffs[beta]-want) > 1e-9 {
			t.Errorf("projection coefficient %d = %v, want %v", beta, projCoeffs[beta], want)
		}
	}
}

func TestSubsetMasks(t *testing.T) {
	got := SubsetMasks(4, 1)
	want := []int{0, 1, 2, 4, 8}
	if len(got) != len(want) {
		t.Fatalf("SubsetMasks(4,1) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SubsetMasks(4,1) = %v, want %v", got, want)
		}
	}
	if n := len(SubsetMasks(9, 3)); n != 1+9+36+84 {
		t.Errorf("|SubsetMasks(9,3)| = %d, want 130", n)
	}
	if n := len(SubsetMasks(5, 5)); n != 32 {
		t.Errorf("|SubsetMasks(5,5)| = %d, want 32", n)
	}
}

func TestFromCoefficientsLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromCoefficients([]int{0, 1}, []float64{1, 2})
}
