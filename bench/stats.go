package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile:
// a p99 over fewer than 1000 samples is a maximum in disguise.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of samples and how many
// samples lie strictly beyond its rank. A failed or refused request is
// recorded as +Inf, so failures push the percentile up instead of
// vanishing from the sample. It reports ok=false when fewer than
// minBeyond samples lie beyond the rank (q < 0.5 is never asked).
func percentile(samples []float64, q float64) (v float64, beyond int, ok bool) {
	n := len(samples)
	if n == 0 {
		return 0, 0, false
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	beyond = n - rank
	return s[rank-1], beyond, q <= 0.5 || beyond >= minBeyond
}

// median is the nearest-rank median; it does not need minBeyond.
func median(xs []float64) float64 {
	v, _, _ := percentile(xs, 0.5)
	return v
}

// windowRates buckets completion offsets (since the phase start) into
// whole 1 s windows and returns the count in each, per second. A partial
// trailing window is dropped: it would understate the rate.
func windowRates(done []time.Duration, phase time.Duration) []float64 {
	n := int(phase / time.Second)
	if n < 1 {
		return nil
	}
	counts := make([]float64, n)
	for _, d := range done {
		if w := int(d / time.Second); d >= 0 && w < n {
			counts[w]++
		}
	}
	return counts
}

// quartiles returns the first and third quartile with Python's
// statistics.quantiles(values, n=4) (the default "exclusive" method), so
// the spreads printed here match the ones an outside checker computes.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	ld, m := len(s), len(s)+1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// spread is the interquartile distance as a share of the median (the
// statistics.median of xs, i.e. the mean of the middle pair when even).
// Every end-to-end metric is positive, so a median ≤ 0 means no spread
// can be stated.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	m := pyMedian(xs)
	if m <= 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / m
}

// pyMedian is statistics.median: the middle value, or the mean of the
// middle pair.
func pyMedian(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
