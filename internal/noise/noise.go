// Package noise provides the random-noise primitives used throughout
// PriView: Laplace samples calibrated to a query's sensitivity and
// privacy budget, plus deterministic, splittable random streams so that
// experiments are reproducible run to run.
package noise

import (
	"math"
	"math/rand"
)

// Source is the randomness interface the mechanisms consume. It is
// satisfied by *rand.Rand and by any test double that provides uniform
// variates in [0, 1).
type Source interface {
	Float64() float64
}

// Laplace draws one sample from the Laplace distribution with mean 0 and
// scale b, using inverse-transform sampling. It panics if b <= 0 or is
// not finite, since a non-positive scale always indicates a privacy
// accounting bug upstream.
func Laplace(src Source, b float64) float64 {
	if !(b > 0) || math.IsInf(b, 1) {
		panic("noise: Laplace scale must be positive and finite")
	}
	// u is uniform on (-1/2, 1/2]; the inverse CDF of Laplace(0, b) is
	// -b * sgn(u) * ln(1 - 2|u|).
	u := src.Float64() - 0.5
	//lint:ignore floatcmp the inverse CDF is exact at u = 0; treating near-zero u as zero would flatten the distribution's peak
	if u == 0 {
		return 0
	}
	sign := 1.0
	if u < 0 {
		sign = -1.0
		u = -u
	}
	// Guard against ln(0) when u == 0.5 exactly.
	arg := 1 - 2*u
	if arg <= 0 {
		arg = math.SmallestNonzeroFloat64
	}
	return -b * sign * math.Log(arg)
}

// LaplaceMechScale returns the Laplace scale needed to answer a query
// with the given L1 sensitivity under epsilon-differential privacy.
func LaplaceMechScale(sensitivity, epsilon float64) float64 {
	if !(sensitivity > 0) {
		panic("noise: sensitivity must be positive")
	}
	if !(epsilon > 0) {
		panic("noise: epsilon must be positive")
	}
	return sensitivity / epsilon
}

// UnitVariance is the paper's V_u = 2/eps^2, the variance of the noise a
// single Laplace mechanism with sensitivity 1 adds under budget eps. The
// paper expresses every expected-squared-error formula in multiples of
// this unit (Eq. 2).
func UnitVariance(epsilon float64) float64 {
	return 2 / (epsilon * epsilon)
}

// Stream wraps a deterministic PRNG so callers can derive independent
// sub-streams by name. Deriving is stable: the same parent seed and name
// always yield the same child stream, regardless of derivation order.
type Stream struct {
	seed int64
	rng  *rand.Rand
}

// NewStream returns a stream rooted at the given seed.
func NewStream(seed int64) *Stream {
	return &Stream{seed: seed, rng: rand.New(rand.NewSource(seed))}
}

// Float64 returns a uniform variate in [0, 1).
func (s *Stream) Float64() float64 { return s.rng.Float64() }

// Intn returns a uniform integer in [0, n).
func (s *Stream) Intn(n int) int { return s.rng.Intn(n) }

// Int63 returns a non-negative uniform 63-bit integer.
func (s *Stream) Int63() int64 { return s.rng.Int63() }

// Perm returns a random permutation of [0, n).
func (s *Stream) Perm(n int) []int { return s.rng.Perm(n) }

// Shuffle pseudo-randomizes the order of n elements via swap.
func (s *Stream) Shuffle(n int, swap func(i, j int)) { s.rng.Shuffle(n, swap) }

// NormFloat64 returns a standard normal variate.
func (s *Stream) NormFloat64() float64 { return s.rng.NormFloat64() }

// Derive returns an independent child stream determined by the parent
// seed and the given name. Children with distinct names are statistically
// independent for all practical purposes.
func (s *Stream) Derive(name string) *Stream {
	h := fnv64(name)
	// Mix the parent seed and the name hash with a splitmix64 round so
	// that nearby seeds do not produce correlated children.
	return NewStream(int64(splitmix64(uint64(s.seed) ^ h)))
}

// DeriveIndexed returns the i-th child of a named family, e.g. one stream
// per experiment repetition.
func (s *Stream) DeriveIndexed(name string, i int) *Stream {
	h := fnv64(name) + uint64(i)*0x9e3779b97f4a7c15
	return NewStream(int64(splitmix64(uint64(s.seed) ^ h)))
}

func fnv64(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
