package marginal

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"priview/internal/noise"
)

func TestNewSortsAttrs(t *testing.T) {
	tab := New([]int{5, 1, 3})
	if !reflect.DeepEqual(tab.Attrs, []int{1, 3, 5}) {
		t.Errorf("Attrs = %v, want sorted", tab.Attrs)
	}
	if tab.Size() != 8 {
		t.Errorf("Size = %d, want 8", tab.Size())
	}
}

func TestNewRejectsDuplicates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate attribute")
		}
	}()
	New([]int{1, 2, 1})
}

func TestNewRejectsHuge(t *testing.T) {
	attrs := make([]int, 31)
	for i := range attrs {
		attrs[i] = i
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on 31-attribute table")
		}
	}()
	New(attrs)
}

func TestRestrictIndex(t *testing.T) {
	// Table over positions {0,1,2}; restrict to positions {0,2}.
	// Index 0b101 (attr0=1, attr1=0, attr2=1) -> 0b11.
	if got := RestrictIndex(0b101, []int{0, 2}); got != 0b11 {
		t.Errorf("RestrictIndex = %b, want 11", got)
	}
	if got := RestrictIndex(0b010, []int{0, 2}); got != 0 {
		t.Errorf("RestrictIndex = %b, want 0", got)
	}
	if got := RestrictIndex(0b111, nil); got != 0 {
		t.Errorf("RestrictIndex to empty = %d, want 0", got)
	}
}

func TestProjectSumsCorrectCells(t *testing.T) {
	tab := New([]int{2, 7})
	// Cells indexed by (bit0 = attr2, bit1 = attr7).
	tab.Cells = []float64{1, 2, 3, 4} // 00, 10, 01, 11 in (a2, a7)
	p := tab.Project([]int{2})
	// attr2=0: cells 0b00 + 0b10 = 1 + 3; attr2=1: 2 + 4.
	if p.Cells[0] != 4 || p.Cells[1] != 6 {
		t.Errorf("projection = %v, want [4 6]", p.Cells)
	}
	q := tab.Project([]int{7})
	if q.Cells[0] != 3 || q.Cells[1] != 7 {
		t.Errorf("projection = %v, want [3 7]", q.Cells)
	}
	e := tab.Project(nil)
	if e.Cells[0] != 10 {
		t.Errorf("projection on empty = %v, want [10]", e.Cells)
	}
}

func TestProjectPanicsOnUncovered(t *testing.T) {
	tab := New([]int{1, 2})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic projecting on uncovered attribute")
		}
	}()
	tab.Project([]int{3})
}

// Property: projecting first onto B then onto C equals projecting
// directly onto C, for C ⊆ B ⊆ A.
func TestProjectionComposes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tab := New([]int{0, 1, 2, 3, 4})
		for i := range tab.Cells {
			tab.Cells[i] = math.Floor(r.Float64() * 100)
		}
		b := []int{0, 2, 3}
		c := []int{2, 3}
		direct := tab.Project(c)
		staged := tab.Project(b).Project(c)
		return Equal(direct, staged, 1e-9)
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: projection preserves total mass.
func TestProjectionPreservesTotal(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tab := New([]int{1, 4, 6, 9})
		for i := range tab.Cells {
			tab.Cells[i] = r.Float64()*20 - 5
		}
		p := tab.Project([]int{4, 9})
		return math.Abs(p.Total()-tab.Total()) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestTotalAndScale(t *testing.T) {
	tab := New([]int{0, 1})
	tab.Cells = []float64{1, 2, 3, 4}
	if tab.Total() != 10 {
		t.Errorf("Total = %v, want 10", tab.Total())
	}
	tab.Scale(0.5)
	if tab.Total() != 5 {
		t.Errorf("Total after scale = %v, want 5", tab.Total())
	}
}

func TestNormalize(t *testing.T) {
	tab := New([]int{0})
	tab.Cells = []float64{3, 1}
	tab.Normalize()
	if tab.Cells[0] != 0.75 || tab.Cells[1] != 0.25 {
		t.Errorf("normalized = %v", tab.Cells)
	}
}

func TestNormalizeDegenerate(t *testing.T) {
	tab := New([]int{0, 1})
	tab.Cells = []float64{-1, 0.5, 0.25, 0.25} // total = 0
	tab.Normalize()
	for _, v := range tab.Cells {
		if v != 0.25 {
			t.Errorf("degenerate normalize = %v, want uniform", tab.Cells)
			break
		}
	}
}

func TestUniform(t *testing.T) {
	u := Uniform([]int{3, 8, 1}, 80)
	if u.Size() != 8 {
		t.Fatalf("Size = %d", u.Size())
	}
	for _, v := range u.Cells {
		if v != 10 {
			t.Errorf("uniform cell = %v, want 10", v)
		}
	}
}

func TestClampNegatives(t *testing.T) {
	tab := New([]int{0, 1})
	tab.Cells = []float64{-2, 3, -0.5, 1}
	removed := tab.ClampNegatives()
	if removed != 2.5 {
		t.Errorf("removed = %v, want 2.5", removed)
	}
	if tab.Cells[0] != 0 || tab.Cells[2] != 0 {
		t.Errorf("cells = %v, negatives remain", tab.Cells)
	}
}

func TestL2Distance(t *testing.T) {
	a := New([]int{0})
	b := New([]int{0})
	a.Cells = []float64{3, 0}
	b.Cells = []float64{0, 4}
	if got := L2Distance(a, b); got != 5 {
		t.Errorf("L2 = %v, want 5", got)
	}
}

func TestL2DistancePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	L2Distance(New([]int{0}), New([]int{1}))
}

func TestMaxAbsDiff(t *testing.T) {
	a := New([]int{0, 1})
	b := New([]int{0, 1})
	a.Cells = []float64{1, 2, 3, 4}
	b.Cells = []float64{1, 5, 3, 3}
	if got := MaxAbsDiff(a, b); got != 3 {
		t.Errorf("MaxAbsDiff = %v, want 3", got)
	}
}

func TestSetOps(t *testing.T) {
	a := []int{1, 3, 5, 7}
	b := []int{3, 4, 5, 9}
	if got := Intersect(a, b); !reflect.DeepEqual(got, []int{3, 5}) {
		t.Errorf("Intersect = %v", got)
	}
	if !Subset([]int{3, 5}, a) {
		t.Error("Subset({3,5}, a) = false")
	}
	if Subset([]int{3, 4}, a) {
		t.Error("Subset({3,4}, a) = true")
	}
	if !Subset(nil, a) {
		t.Error("Subset(∅, a) = false")
	}
}

func TestIntersectEmpty(t *testing.T) {
	if got := Intersect([]int{1, 2}, []int{3, 4}); len(got) != 0 {
		t.Errorf("Intersect = %v, want empty", got)
	}
}

func TestKeyCanonical(t *testing.T) {
	if Key([]int{1, 2, 3}) == Key([]int{1, 23}) {
		t.Error("Key collides between {1,2,3} and {1,23}")
	}
	if Key([]int{1, 2}) != Key([]int{1, 2}) {
		t.Error("Key is not deterministic")
	}
	if Key(nil) != "" {
		t.Errorf("Key(nil) = %q, want empty", Key(nil))
	}
}

func TestAddInto(t *testing.T) {
	a := New([]int{0, 1})
	b := New([]int{0, 1})
	a.Cells = []float64{1, 1, 1, 1}
	b.Cells = []float64{1, 2, 3, 4}
	a.AddInto(b)
	if !reflect.DeepEqual(a.Cells, []float64{2, 3, 4, 5}) {
		t.Errorf("AddInto = %v", a.Cells)
	}
}

func TestAddLaplaceChangesCells(t *testing.T) {
	tab := New([]int{0, 1, 2})
	tab.Fill(100)
	src := noise.NewStream(4)
	noisy := tab.NoisyCopy(src, 5)
	if Equal(tab, noisy, 1e-12) {
		t.Error("noisy copy identical to original")
	}
	// Original untouched.
	for _, v := range tab.Cells {
		if v != 100 {
			t.Fatal("NoisyCopy mutated the source table")
		}
	}
}

func TestNoisyCopyVariance(t *testing.T) {
	src := noise.NewStream(8)
	tab := New([]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	scale := 4.0
	var sumSq float64
	const reps = 30
	for r := 0; r < reps; r++ {
		noisy := tab.NoisyCopy(src, scale)
		for _, v := range noisy.Cells {
			sumSq += v * v
		}
	}
	got := sumSq / float64(reps*tab.Size())
	want := 2 * scale * scale
	if math.Abs(got-want)/want > 0.1 {
		t.Errorf("empirical noise variance = %v, want ~%v", got, want)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := New([]int{0})
	a.Cells = []float64{1, 2}
	b := a.Clone()
	b.Cells[0] = 99
	b.Attrs[0] = 7
	if a.Cells[0] != 1 || a.Attrs[0] != 0 {
		t.Error("Clone shares storage with the original")
	}
}
