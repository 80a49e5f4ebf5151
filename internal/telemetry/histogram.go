package telemetry

import (
	"math"
	"sync/atomic"
	"time"
)

// DefBuckets is the default latency bucket ladder in seconds: wide
// enough to cover a ~400ns cache hit rendered into the lowest bucket
// and a multi-second LP solve in the highest, roughly ×2.5 per step.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram counts observations into fixed buckets, lock-free: one
// atomic add on the bucket and a CAS loop on the float sum; the total
// count is the sum of the buckets. Bounds are upper-inclusive (`le`)
// and the +Inf bucket is implicit. Observation allocates nothing — the
// bucket search is a bounded linear scan over a slice that is immutable
// after construction (typical ladders have ≤ 20 steps, where linear
// beats binary and stays trivially allocation-free).
type Histogram struct {
	bounds  []float64 // ascending, finite; +Inf implicit
	counts  []atomic.Uint64
	sumBits atomic.Uint64
}

// NewHistogram returns a standalone histogram (not attached to any
// registry) with the given upper bucket bounds, which must be strictly
// ascending and finite; nil or empty bounds use DefBuckets. The bounds
// slice is copied.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	checkBuckets(bounds)
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// checkBuckets panics unless bounds are strictly ascending and finite.
// nil is allowed (means DefBuckets).
func checkBuckets(bounds []float64) {
	for i, b := range bounds {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			panic("telemetry: histogram bucket bound must be finite")
		}
		if i > 0 && b <= bounds[i-1] {
			panic("telemetry: histogram bucket bounds must be strictly ascending")
		}
	}
}

// Observe records one value. NaN observations are dropped (a NaN sum
// would poison the exposition forever).
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	idx := len(h.bounds) // +Inf bucket unless a bound covers v
	//lint:hot
	for i := 0; i < len(h.bounds); i++ {
		if v <= h.bounds[i] {
			idx = i
			break
		}
	}
	h.counts[idx].Add(1)
	//lint:ignore ctxflow bounded CAS retry between two atomic loads under finite contention; no request context reaches this path
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records d in seconds — the standard unit for every
// latency histogram in this repo.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// snapshot returns per-bucket (non-cumulative) counts, their total and
// the sum, reading each atomically. The counts are not a consistent cut
// across buckets — Prometheus scrapes tolerate that — but the total is
// summed from the same loads, so the +Inf bucket always equals _count.
func (h *Histogram) snapshot() (buckets []uint64, count uint64, sum float64) {
	buckets = make([]uint64, len(h.counts))
	for i := range h.counts {
		buckets[i] = h.counts[i].Load()
		count += buckets[i]
	}
	return buckets, count, h.Sum()
}
