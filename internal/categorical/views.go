package categorical

import (
	"fmt"
	"math"
	"sort"

	"priview/internal/noise"
)

// RecommendedCellBudget returns the paper's §4.7 guideline range for
// the number of cells per view when every attribute has roughly b
// values: [pair-objective minimizer, triple-objective minimizer] of
// √s / (log_b s · (log_b s − 1) [· (log_b s − 2)]).
func RecommendedCellBudget(b int) (lo, hi int) {
	if b < 2 {
		panic("categorical: cardinality must be at least 2")
	}
	logb := math.Log(float64(b))
	pair := func(s float64) float64 {
		u := math.Log(s) / logb
		if u <= 1 {
			return math.Inf(1)
		}
		return math.Sqrt(s) / (u * (u - 1))
	}
	triple := func(s float64) float64 {
		u := math.Log(s) / logb
		if u <= 2 {
			return math.Inf(1)
		}
		return math.Sqrt(s) / (u * (u - 1) * (u - 2))
	}
	argmin := func(f func(float64) float64) int {
		bestS, bestV := 0.0, math.Inf(1)
		for s := 8.0; s <= 200000; s *= 1.01 {
			if v := f(s); v < bestV {
				bestV, bestS = v, s
			}
		}
		return int(bestS)
	}
	return argmin(pair), argmin(triple)
}

// GreedyPairViews selects views for a categorical schema: blocks of
// attributes whose marginal has at most cellBudget cells, together
// covering every attribute pair (t=2, the paper's recommendation for
// categorical data). Greedy block growth prefers attributes covering
// the most uncovered pairs; ties break randomly via rng.
func GreedyPairViews(schema Schema, cellBudget int, rng *noise.Stream) [][]int {
	if err := schema.Validate(); err != nil {
		panic(fmt.Sprintf("categorical: GreedyPairViews: %v", err))
	}
	d := len(schema)
	// A view must hold at least one pair of attributes: check the two
	// smallest cardinalities against the budget.
	smallest := [2]int{1 << 30, 1 << 30}
	for _, c := range schema {
		if c < smallest[0] {
			smallest[1] = smallest[0]
			smallest[0] = c
		} else if c < smallest[1] {
			smallest[1] = c
		}
	}
	if d >= 2 && cellBudget < smallest[0]*smallest[1] {
		panic(fmt.Sprintf("categorical: cell budget %d cannot hold any attribute pair", cellBudget))
	}

	covered := make([][]bool, d)
	for i := range covered {
		covered[i] = make([]bool, d)
	}
	uncoveredCount := d * (d - 1) / 2
	if d == 1 {
		return [][]int{{0}}
	}
	var views [][]int
	for uncoveredCount > 0 {
		// Seed the block with an uncovered pair.
		var block []int
		cells := 1
	seek:
		for i := 0; i < d; i++ {
			for j := i + 1; j < d; j++ {
				if !covered[i][j] {
					block = []int{i, j}
					cells = schema[i] * schema[j]
					break seek
				}
			}
		}
		inBlock := make([]bool, d)
		for _, a := range block {
			inBlock[a] = true
		}
		// Grow while the budget allows, preferring attributes covering
		// the most uncovered pairs with current members.
		for {
			best, bestGain := -1, 0
			start := rng.Intn(d)
			for off := 0; off < d; off++ {
				a := (start + off) % d
				if inBlock[a] || cells*schema[a] > cellBudget {
					continue
				}
				gain := 0
				for _, m := range block {
					lo, hi := a, m
					if lo > hi {
						lo, hi = hi, lo
					}
					if !covered[lo][hi] {
						gain++
					}
				}
				if gain > bestGain {
					bestGain, best = gain, a
				}
			}
			if best < 0 || bestGain == 0 {
				break
			}
			block = append(block, best)
			inBlock[best] = true
			cells *= schema[best]
		}
		sort.Ints(block)
		for i := 0; i < len(block); i++ {
			for j := i + 1; j < len(block); j++ {
				if !covered[block[i]][block[j]] {
					covered[block[i]][block[j]] = true
					uncoveredCount--
				}
			}
		}
		views = append(views, block)
	}
	return views
}
