package categorical

import (
	"fmt"

	"priview/internal/noise"
)

// Config controls categorical synopsis construction.
type Config struct {
	// Epsilon is the total privacy budget (required unless NoNoise).
	Epsilon float64
	// Views are the attribute blocks. If nil, GreedyPairViews with
	// CellBudget chooses them.
	Views [][]int
	// CellBudget bounds cells per view when Views is nil; 0 picks the
	// §4.7 guideline for the schema's median cardinality.
	CellBudget int
	// RippleTheta is the non-negativity tolerance (default 0.5).
	RippleTheta float64
	// NoNoise skips the Laplace step (for coverage-error analysis).
	NoNoise bool
	// MaxIter/Tol tune the maxent solver (defaults 500 / 1e-9).
	MaxIter int
	Tol     float64
}

// Synopsis is a published categorical PriView synopsis.
type Synopsis struct {
	cfg    Config
	schema Schema
	views  []*Table
	total  float64
}

// BuildSynopsis constructs the private synopsis of a categorical
// dataset: noisy view marginals, consistency, Ripple, consistency —
// the binary pipeline with the §4.7 adaptations.
func BuildSynopsis(data *Dataset, cfg Config, src noise.Source) *Synopsis {
	if !cfg.NoNoise && cfg.Epsilon <= 0 {
		panic("categorical: Config.Epsilon must be positive")
	}
	views := cfg.Views
	if views == nil {
		budget := cfg.CellBudget
		if budget <= 0 {
			budget = defaultCellBudget(data.Schema())
		}
		rng, ok := src.(*noise.Stream)
		if !ok {
			rng = noise.NewStream(1)
		}
		views = GreedyPairViews(data.Schema(), budget, rng.Derive("views"))
	}
	w := len(views)
	tables := make([]*Table, w)
	for i, block := range views {
		t := data.Marginal(block)
		if !cfg.NoNoise {
			scale := noise.LaplaceMechScale(float64(w), cfg.Epsilon)
			for c := range t.Cells {
				t.Cells[c] += noise.Laplace(src, scale)
			}
		}
		tables[i] = t
	}
	theta := cfg.RippleTheta
	if theta <= 0 {
		theta = 0.5
	}
	Overall(tables)
	for _, t := range tables {
		Ripple(t, theta)
	}
	Overall(tables)
	total := 0.0
	for _, t := range tables {
		total += t.Total()
	}
	total /= float64(len(tables))
	if total < 0 {
		total = 0
	}
	return &Synopsis{cfg: cfg, schema: data.Schema(), views: tables, total: total}
}

// defaultCellBudget picks the low end of the §4.7 guideline for the
// schema's median cardinality (conservative: smaller views mean less
// noise; coverage error can be bought back with a larger budget).
func defaultCellBudget(schema Schema) int {
	cards := append([]int(nil), schema...)
	for i := 1; i < len(cards); i++ {
		for j := i; j > 0 && cards[j] < cards[j-1]; j-- {
			cards[j], cards[j-1] = cards[j-1], cards[j]
		}
	}
	median := cards[len(cards)/2]
	lo, _ := RecommendedCellBudget(median)
	// Never below the largest pair of cardinalities, or no view could
	// hold a pair.
	maxPair := 1
	if len(cards) >= 2 {
		maxPair = cards[len(cards)-1] * cards[len(cards)-2]
	}
	if lo < maxPair {
		lo = maxPair
	}
	return lo
}

// Query reconstructs the marginal over attrs: a direct projection when
// one view covers the set, maximum entropy otherwise.
func (s *Synopsis) Query(attrs []int) *Table {
	sorted := sortedCopy(attrs)
	for _, a := range sorted {
		if a < 0 || a >= len(s.schema) {
			panic(fmt.Sprintf("categorical: attribute %d out of range", a))
		}
	}
	for _, v := range s.views {
		if subsetOf(sorted, v.Attrs) {
			return v.Project(sorted)
		}
	}
	var cons []*Table
	for _, v := range s.views {
		shared := intersect(v.Attrs, sorted)
		if len(shared) > 0 {
			cons = append(cons, v.Project(shared))
		}
	}
	cards := make([]int, len(sorted))
	for i, a := range sorted {
		cards[i] = s.schema[a]
	}
	return MaxEnt(sorted, cards, s.total, cons, s.cfg.MaxIter, s.cfg.Tol)
}
