package main

import (
	"math"
	"testing"
)

// TestQuartiles pins quartiles to Python's statistics.quantiles(xs,
// n=4) and statistics.median(xs), the figures an outside checker
// computes from the same samples.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}, [3]float64{4, 8, 12}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{17.2, 18.0, 20.5, 16.1, 19.9, 18.3}, [3]float64{16.925, 18.15, 20.05}},
		{[]float64{5}, [3]float64{5, 5, 5}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		for i, got := range [3]float64{q1, q2, q3} {
			if math.Abs(got-c.want[i]) > 1e-9 {
				t.Errorf("quartiles(%v) = %v, %v, %v; want %v", c.xs, q1, q2, q3, c.want)
				break
			}
		}
	}
}

// TestPairDiffs pins the per-pair figures: the i-th samples of the two
// sides form a pair, the median is taken over tree − base, and a tie
// is no win.
func TestPairDiffs(t *testing.T) {
	for _, c := range []struct {
		base, tree []float64
		median     float64
		wins       int
	}{
		{[]float64{10, 12, 11}, []float64{8, 12.5, 10}, -1, 2},
		{[]float64{5, 5, 5, 5}, []float64{4, 5, 6, 7}, 0.5, 1},
		{[]float64{20, 1}, []float64{1, 20}, 0, 1},
		{[]float64{7}, []float64{7}, 0, 0},
	} {
		median, wins := pairDiffs(c.base, c.tree)
		if math.Abs(median-c.median) > 1e-9 || wins != c.wins {
			t.Errorf("pairDiffs(%v, %v) = %v, %d; want %v, %d", c.base, c.tree, median, wins, c.median, c.wins)
		}
	}
}
