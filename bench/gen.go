package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"priview/internal/attrset"
	"priview/internal/covering"
	"priview/internal/noise"
)

// request is one pre-generated unit of work: a GET of one marginal, or a
// POST of one batch.
type request struct {
	path   string  // URL path and query
	body   []byte  // POST /v1/marginals body; nil for a GET
	sets   [][]int // attribute sets asked, in request order
	minLen int     // shortest body a well-formed answer can have
}

// cellsLen is the shortest JSON rendering of one k-way answer's cells:
// 2^k numbers of at least one digit, each followed by a comma or ']'.
func cellsLen(k int) int { return 2 * (1 << k) }

func singleRequest(attrs []int) request {
	parts := make([]string, len(attrs))
	for i, a := range attrs {
		parts[i] = strconv.Itoa(a)
	}
	return request{
		path:   "/v1/marginal?attrs=" + strings.Join(parts, ","),
		sets:   [][]int{attrs},
		minLen: cellsLen(len(attrs)),
	}
}

func batchRequest(sets [][]int) request {
	type query struct {
		Attrs []int `json:"attrs"`
	}
	body := struct {
		Queries []query `json:"queries"`
	}{Queries: make([]query, len(sets))}
	n := 0
	for i, s := range sets {
		body.Queries[i].Attrs = s
		n += cellsLen(len(s))
	}
	raw, err := json.Marshal(body)
	if err != nil {
		panic(fmt.Sprintf("bench: encoding a batch of int slices: %v", err))
	}
	return request{path: "/v1/marginals", body: raw, sets: sets, minLen: n}
}

// randomSet draws k distinct attributes of [0, d), sorted.
func randomSet(rng *noise.Stream, d, k int) []int {
	s := rng.Perm(d)[:k]
	sort.Ints(s)
	return s
}

// universe draws n distinct attribute sets with sizes uniform in
// [kmin, kmax].
func universe(rng *noise.Stream, d, n, kmin, kmax int) [][]int {
	seen := make(map[attrset.Set]bool, n)
	out := make([][]int, 0, n)
	for len(out) < n {
		s := randomSet(rng, d, kmin+rng.Intn(kmax-kmin+1))
		key := attrset.MustFromAttrs(s)
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, s)
	}
	return out
}

// zipf samples indices 0..n-1 with P(i) ∝ 1/(i+1)^s by inverting the
// cumulative distribution; rank 0 is the most popular.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += math.Pow(float64(i+1), -s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &zipf{cdf: cdf}
}

func (z *zipf) pick(rng *noise.Stream) int {
	i := sort.SearchFloat64s(z.cdf, rng.Float64())
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}

// arrivals returns Poisson arrival offsets at rate per second over d.
func arrivals(rng *noise.Stream, rate float64, d time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += -math.Log(1-rng.Float64()) / rate
		off := time.Duration(t * float64(time.Second))
		if off >= d {
			return out
		}
		out = append(out, off)
	}
}

// uncovered draws attribute sets that no view of the design contains,
// never repeating one over the generator's lifetime, so every request
// misses the cache and runs a maximum-entropy solve.
type uncovered struct {
	rng    *noise.Stream
	design *covering.Design
	seen   map[attrset.Set]bool
}

func newUncovered(rng *noise.Stream, design *covering.Design) *uncovered {
	return &uncovered{rng: rng, design: design, seen: make(map[attrset.Set]bool)}
}

func (u *uncovered) next(k int) []int {
	for {
		s := randomSet(u.rng, u.design.D, k)
		key := attrset.MustFromAttrs(s)
		if u.seen[key] || u.design.CoversSet(s) {
			continue
		}
		u.seen[key] = true
		return s
	}
}

// coveredSet draws a k-subset of a random view, which the synopsis
// answers by summation.
func coveredSet(rng *noise.Stream, design *covering.Design, k int) []int {
	block := design.Blocks[rng.Intn(len(design.Blocks))]
	s := make([]int, 0, k)
	for _, i := range rng.Perm(len(block))[:k] {
		s = append(s, block[i])
	}
	sort.Ints(s)
	return s
}
