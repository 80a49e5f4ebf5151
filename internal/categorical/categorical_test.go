package categorical

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"priview/internal/noise"
)

func TestNewTableMixedRadix(t *testing.T) {
	tab := NewTable([]int{3, 1}, []int{4, 3}) // attr1 card 3, attr3 card 4
	if tab.Attrs[0] != 1 || tab.Attrs[1] != 3 {
		t.Fatalf("attrs = %v, want sorted", tab.Attrs)
	}
	if tab.Cards[0] != 3 || tab.Cards[1] != 4 {
		t.Fatalf("cards = %v misaligned after sort", tab.Cards)
	}
	if tab.Size() != 12 {
		t.Fatalf("size = %d, want 12", tab.Size())
	}
}

func TestNewTableRejections(t *testing.T) {
	for name, fn := range map[string]func(){
		"misaligned":  func() { NewTable([]int{0, 1}, []int{2}) },
		"cardinality": func() { NewTable([]int{0}, []int{1}) },
		"duplicate":   func() { NewTable([]int{0, 0}, []int{2, 2}) },
	} {
		func() {
			defer func() { _ = recover() }()
			fn()
			t.Errorf("%s: expected panic", name)
		}()
	}
}

func TestIndexValuesRoundTrip(t *testing.T) {
	tab := NewTable([]int{0, 1, 2}, []int{3, 2, 4})
	for idx := 0; idx < tab.Size(); idx++ {
		if got := tab.Index(tab.Values(idx)); got != idx {
			t.Fatalf("Index(Values(%d)) = %d", idx, got)
		}
	}
}

func TestIndexRejectsOutOfRange(t *testing.T) {
	tab := NewTable([]int{0}, []int{3})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tab.Index([]int{3})
}

func TestProjectCategorical(t *testing.T) {
	tab := NewTable([]int{0, 1}, []int{3, 2})
	// Cells indexed v0 + 3*v1.
	for idx := range tab.Cells {
		tab.Cells[idx] = float64(idx + 1)
	}
	p := tab.Project([]int{0})
	// v0=0: idx 0 + idx 3 = 1 + 4; v0=1: 2+5; v0=2: 3+6.
	want := []float64{5, 7, 9}
	for i := range want {
		if p.Cells[i] != want[i] {
			t.Errorf("projection = %v, want %v", p.Cells, want)
			break
		}
	}
	if math.Abs(p.Total()-tab.Total()) > 1e-9 {
		t.Error("projection changed total")
	}
}

func TestProjectionComposes(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tab := NewTable([]int{0, 1, 2}, []int{3, 4, 2})
		for i := range tab.Cells {
			tab.Cells[i] = r.Float64() * 10
		}
		direct := tab.Project([]int{2})
		staged := tab.Project([]int{1, 2}).Project([]int{2})
		for i := range direct.Cells {
			if math.Abs(direct.Cells[i]-staged.Cells[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestDatasetMarginal(t *testing.T) {
	schema := Schema{3, 2, 4}
	records := [][]uint8{{0, 1, 3}, {0, 1, 3}, {2, 0, 1}}
	data, err := NewDataset(schema, records)
	if err != nil {
		t.Fatal(err)
	}
	m := data.Marginal([]int{0, 2})
	// (0,3) appears twice: index 0 + 3*3 = 9.
	if m.Cells[9] != 2 {
		t.Errorf("cell (0,3) = %v, want 2", m.Cells[9])
	}
	if m.Total() != 3 {
		t.Errorf("total = %v", m.Total())
	}
}

func TestDatasetValidation(t *testing.T) {
	if _, err := NewDataset(Schema{1}, nil); err == nil {
		t.Error("accepted cardinality 1")
	}
	if _, err := NewDataset(Schema{2}, [][]uint8{{0, 1}}); err == nil {
		t.Error("accepted wrong record width")
	}
	if _, err := NewDataset(Schema{2}, [][]uint8{{2}}); err == nil {
		t.Error("accepted out-of-range value")
	}
	if _, err := NewDataset(nil, nil); err == nil {
		t.Error("accepted empty schema")
	}
}

func TestMutualOnSetCategorical(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	mk := func(attrs, cards []int) *Table {
		tab := NewTable(attrs, cards)
		for i := range tab.Cells {
			tab.Cells[i] = r.Float64() * 10
		}
		return tab
	}
	v1 := mk([]int{0, 1}, []int{3, 2})
	v2 := mk([]int{1, 2}, []int{2, 4})
	// Equalize totals first (consistency on ∅), so that the later step
	// is in Lemma 1's regime: consistent on A ⊆ B before the B step.
	MutualOnSet([]*Table{v1, v2}, nil)
	before1 := v1.Project([]int{0})
	MutualOnSet([]*Table{v1, v2}, []int{1})
	p1 := v1.Project([]int{1})
	p2 := v2.Project([]int{1})
	for i := range p1.Cells {
		if math.Abs(p1.Cells[i]-p2.Cells[i]) > 1e-9 {
			t.Fatal("views disagree on shared attribute after MutualOnSet")
		}
	}
	// Lemma 1: the marginal over attributes outside the shared set is
	// untouched.
	after1 := v1.Project([]int{0})
	for i := range before1.Cells {
		if math.Abs(before1.Cells[i]-after1.Cells[i]) > 1e-9 {
			t.Fatal("MutualOnSet changed an unrelated marginal")
		}
	}
}

func TestOverallCategorical(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		mk := func(attrs, cards []int) *Table {
			tab := NewTable(attrs, cards)
			for i := range tab.Cells {
				tab.Cells[i] = r.Float64() * 10
			}
			return tab
		}
		views := []*Table{
			mk([]int{0, 1}, []int{3, 2}),
			mk([]int{1, 2}, []int{2, 3}),
			mk([]int{0, 2}, []int{3, 3}),
		}
		Overall(views)
		return isPairwiseConsistent(views, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestRippleCategorical(t *testing.T) {
	tab := NewTable([]int{0, 1}, []int{3, 3})
	for i := range tab.Cells {
		tab.Cells[i] = 5
	}
	tab.Cells[4] = -9
	total := tab.Total()
	Ripple(tab, 0.5)
	if math.Abs(tab.Total()-total) > 1e-9 {
		t.Errorf("Ripple changed total %v -> %v", total, tab.Total())
	}
	for i, v := range tab.Cells {
		if v < -0.5 {
			t.Errorf("cell %d = %v below -θ", i, v)
		}
	}
	if tab.Cells[4] != 0 {
		t.Errorf("negative cell not zeroed: %v", tab.Cells[4])
	}
}

func TestRippleNeighborsShareEvenly(t *testing.T) {
	// Single negative cell in a 3x2 table: 3-1 + 2-1 = 3 neighbors each
	// lose |c|/3.
	tab := NewTable([]int{0, 1}, []int{3, 2})
	tab.Fill(10)
	tab.Cells[0] = -3
	Ripple(tab, 0.5)
	// Neighbors of cell (0,0): (1,0) idx1, (2,0) idx2, (0,1) idx3.
	for _, idx := range []int{1, 2, 3} {
		if math.Abs(tab.Cells[idx]-9) > 1e-9 {
			t.Errorf("neighbor %d = %v, want 9", idx, tab.Cells[idx])
		}
	}
	if tab.Cells[4] != 10 || tab.Cells[5] != 10 {
		t.Errorf("non-neighbors changed: %v", tab.Cells)
	}
}

func TestMaxEntCategoricalConditionalIndependence(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	joint := NewTable([]int{0, 1, 2}, []int{3, 2, 3})
	for i := range joint.Cells {
		joint.Cells[i] = 0.2 + r.Float64()
	}
	c01 := joint.Project([]int{0, 1})
	c12 := joint.Project([]int{1, 2})
	p1 := joint.Project([]int{1})
	got := MaxEnt([]int{0, 1, 2}, []int{3, 2, 3}, joint.Total(), []*Table{c01, c12}, 0, 0)
	// Closed form: P(a,b,c) = P(a,b)P(b,c)/P(b).
	total := joint.Total()
	for idx := range got.Cells {
		vals := got.Values(idx)
		a, b, c := vals[0], vals[1], vals[2]
		want := (c01.Cells[c01.Index([]int{a, b})] / total) *
			(c12.Cells[c12.Index([]int{b, c})] / total) /
			(p1.Cells[b] / total) * total
		if math.Abs(got.Cells[idx]-want) > 1e-5*total {
			t.Fatalf("cell %v: got %v, want %v", vals, got.Cells[idx], want)
		}
	}
}

func TestMaxEntCategoricalSatisfiesConstraints(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	joint := NewTable([]int{0, 1, 2}, []int{4, 3, 2})
	for i := range joint.Cells {
		joint.Cells[i] = r.Float64() * 20
	}
	cons := []*Table{joint.Project([]int{0, 1}), joint.Project([]int{2})}
	got := MaxEnt([]int{0, 1, 2}, []int{4, 3, 2}, joint.Total(), cons, 0, 0)
	for _, c := range cons {
		p := got.Project(c.Attrs)
		for i := range p.Cells {
			if math.Abs(p.Cells[i]-c.Cells[i]) > 1e-4 {
				t.Fatalf("constraint over %v violated: %v vs %v", c.Attrs, p.Cells[i], c.Cells[i])
			}
		}
	}
}

func TestRecommendedCellBudgetMatchesPaperTable(t *testing.T) {
	// §4.7: b=2: 100-1000, b=3: 150-2000, b=4: 200-3200, b=5: 250-5000.
	// Our minimizers land near those figures (the paper rounds
	// aggressively); allow a factor-2 band.
	cases := map[int][2]int{2: {100, 1000}, 3: {150, 2000}, 4: {200, 3200}, 5: {250, 5000}}
	for b, want := range cases {
		lo, hi := RecommendedCellBudget(b)
		if float64(lo) < float64(want[0])/2.5 || float64(lo) > float64(want[0])*2.5 {
			t.Errorf("b=%d: lo=%d, paper %d", b, lo, want[0])
		}
		if float64(hi) < float64(want[1])/2.5 || float64(hi) > float64(want[1])*2.5 {
			t.Errorf("b=%d: hi=%d, paper %d", b, hi, want[1])
		}
	}
}

func TestGreedyPairViews(t *testing.T) {
	schema := Schema{3, 4, 2, 5, 3, 2, 4, 3}
	views := GreedyPairViews(schema, 200, noise.NewStream(1))
	if err := verifyPairCover(schema, views, 200); err != nil {
		t.Fatal(err)
	}
}

func TestGreedyPairViewsTightBudget(t *testing.T) {
	schema := Schema{5, 5, 5, 5}
	// Budget 25: each view holds exactly one pair.
	views := GreedyPairViews(schema, 25, noise.NewStream(2))
	if err := verifyPairCover(schema, views, 25); err != nil {
		t.Fatal(err)
	}
	if len(views) != 6 {
		t.Errorf("%d views, want 6 (all pairs)", len(views))
	}
}

func TestGreedyPairViewsImpossibleBudget(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for budget below any pair")
		}
	}()
	GreedyPairViews(Schema{5, 5}, 24, noise.NewStream(1))
}

func TestSynopsisEndToEnd(t *testing.T) {
	schema := Schema{3, 4, 2, 3, 5, 2}
	data := SynthSurvey(schema, 30000, 1)
	syn := BuildSynopsis(data, Config{Epsilon: 1.0, CellBudget: 120}, noise.NewStream(2))
	if !isPairwiseConsistent(syn.views, 1e-6) {
		t.Error("synopsis views inconsistent")
	}
	// Covered pair: small error.
	q := []int{0, 1}
	got := syn.Query(q)
	truth := data.Marginal(q)
	if err := L2Distance(got, truth) / float64(data.Len()); err > 0.05 {
		t.Errorf("pair error %v too large", err)
	}
	// Cross-view triple: maxent reconstruction must beat the uniform
	// baseline comfortably.
	q3 := []int{0, 3, 4}
	got3 := syn.Query(q3)
	truth3 := data.Marginal(q3)
	uniform := NewTable(q3, []int{3, 3, 5})
	uniform.Fill(float64(data.Len()) / float64(uniform.Size()))
	if L2Distance(got3, truth3) >= L2Distance(uniform, truth3) {
		t.Errorf("maxent (%v) no better than uniform (%v)",
			L2Distance(got3, truth3), L2Distance(uniform, truth3))
	}
}

func TestSynopsisNoNoise(t *testing.T) {
	schema := Schema{3, 3, 3, 3}
	data := SynthSurvey(schema, 5000, 3)
	syn := BuildSynopsis(data, Config{NoNoise: true, CellBudget: 81}, noise.NewStream(4))
	q := []int{0, 1}
	got := syn.Query(q)
	truth := data.Marginal(q)
	if L2Distance(got, truth) > 1e-6 {
		t.Errorf("noise-free covered query error %v", L2Distance(got, truth))
	}
}

func TestSynopsisDefaultBudget(t *testing.T) {
	schema := Schema{3, 3, 4, 2, 3}
	data := SynthSurvey(schema, 2000, 5)
	syn := BuildSynopsis(data, Config{Epsilon: 1}, noise.NewStream(6))
	if len(syn.views) == 0 {
		t.Fatal("no views chosen")
	}
	got := syn.Query([]int{0, 4})
	if got.Size() != 9 {
		t.Errorf("size = %d, want 9", got.Size())
	}
}

func TestSynthSurveyCorrelated(t *testing.T) {
	schema := Schema{4, 4}
	data := SynthSurvey(schema, 40000, 7)
	joint := data.Marginal([]int{0, 1})
	p0 := joint.Project([]int{0})
	p1 := joint.Project([]int{1})
	n := joint.Total()
	// Mutual information must be clearly positive (profiles couple the
	// attributes).
	mi := 0.0
	for idx, v := range joint.Cells {
		if v == 0 {
			continue
		}
		vals := joint.Values(idx)
		pxy := v / n
		px := p0.Cells[vals[0]] / n
		py := p1.Cells[vals[1]] / n
		mi += pxy * math.Log(pxy/(px*py))
	}
	if mi < 0.01 {
		t.Errorf("mutual information %v too small; generator uncorrelated", mi)
	}
}

// isPairwiseConsistent reports whether all views agree on projections
// onto shared attributes within tol.
func isPairwiseConsistent(views []*Table, tol float64) bool {
	for i := 0; i < len(views); i++ {
		for j := i + 1; j < len(views); j++ {
			common := intersect(views[i].Attrs, views[j].Attrs)
			pi := views[i].Project(common)
			pj := views[j].Project(common)
			for c := range pi.Cells {
				d := pi.Cells[c] - pj.Cells[c]
				if d < -tol || d > tol {
					return false
				}
			}
		}
	}
	return true
}

// verifyPairCover checks that the views cover every attribute pair and
// respect the cell budget.
func verifyPairCover(schema Schema, views [][]int, cellBudget int) error {
	d := len(schema)
	covered := make([][]bool, d)
	for i := range covered {
		covered[i] = make([]bool, d)
	}
	for vi, v := range views {
		cells := 1
		for _, a := range v {
			if a < 0 || a >= d {
				return fmt.Errorf("categorical: view %d has out-of-range attribute %d", vi, a)
			}
			cells *= schema[a]
		}
		if cells > cellBudget {
			return fmt.Errorf("categorical: view %d has %d cells, budget %d", vi, cells, cellBudget)
		}
		for i := 0; i < len(v); i++ {
			for j := i + 1; j < len(v); j++ {
				covered[v[i]][v[j]] = true
			}
		}
	}
	for i := 0; i < d; i++ {
		for j := i + 1; j < d; j++ {
			if !covered[i][j] {
				return fmt.Errorf("categorical: pair (%d,%d) uncovered", i, j)
			}
		}
	}
	return nil
}
