package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	v, beyond, ok := percentile(seq(1000), 0.99)
	if v != 990 || beyond != 10 || !ok {
		t.Fatalf("p99 of 1..1000 = %v with %d beyond (ok=%v), want 990 with 10 beyond", v, beyond, ok)
	}
	if _, beyond, ok := percentile(seq(999), 0.99); ok || beyond != 9 {
		t.Fatalf("p99 of 999 samples: %d beyond, ok=%v; want 9 beyond and not ok", beyond, ok)
	}
	if v, _, ok := percentile(seq(7), 0.5); v != 4 || !ok {
		t.Fatalf("median of 1..7 = %v (ok=%v), want 4", v, ok)
	}
}

func TestPercentileCountsFailuresAsInfinite(t *testing.T) {
	xs := seq(1000)
	for i := 0; i < 5; i++ {
		xs[i] = math.Inf(1)
	}
	if v, _, _ := percentile(xs, 0.99); math.IsInf(v, 1) {
		t.Fatalf("5 failures in 1000 made p99 infinite")
	}
	for i := 0; i < 15; i++ {
		xs[i] = math.Inf(1)
	}
	if v, _, _ := percentile(xs, 0.99); !math.IsInf(v, 1) {
		t.Fatalf("15 failures in 1000: p99 = %v, want +Inf", v)
	}
	failed := span{Due: 0, Done: time.Millisecond}
	if !math.IsInf(failed.latency(), 1) {
		t.Fatalf("a failed request's latency is %v, want +Inf", failed.latency())
	}
	good := span{Due: time.Millisecond, Done: 3 * time.Millisecond, ok: true}
	if good.latency() != 2 {
		t.Fatalf("latency from due = %v ms, want 2", good.latency())
	}
}

func TestWindowRatesDropPartialWindow(t *testing.T) {
	var done []time.Duration
	for w, n := range []int{5, 7, 6, 40} {
		for i := 0; i < n; i++ {
			done = append(done, time.Duration(w)*time.Second+time.Duration(i)*time.Millisecond)
		}
	}
	// A 3.5 s phase has three whole windows; the completions after 3 s
	// fall in the partial fourth and are dropped.
	got := windowRates(done, 3500*time.Millisecond)
	if len(got) != 3 || got[0] != 5 || got[1] != 7 || got[2] != 6 {
		t.Fatalf("windows = %v, want [5 7 6]", got)
	}
	if m := median(got); m != 6 {
		t.Fatalf("median window = %v, want 6", m)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles(seq(10))
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles of 1..10 = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if m := pyMedian(seq(10)); m != 5.5 {
		t.Fatalf("median of 1..10 = %v, want 5.5", m)
	}
	if s := spread(seq(10)); math.Abs(s-1) > 1e-12 {
		t.Fatalf("spread of 1..10 = %v, want (8.25-2.75)/5.5 = 1", s)
	}
}
