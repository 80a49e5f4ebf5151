// Package experiments regenerates every table and figure of the paper's
// evaluation (§5). Each exported RunXxx function returns the rows of one
// artifact — per (dataset, method, ε, k) candlestick profiles of
// normalized L2 error or Jensen–Shannon divergence — which
// cmd/priview-bench renders as text tables and CSV, and which
// EXPERIMENTS.md compares against the paper's reported values.
package experiments

import (
	"fmt"
	"sort"

	"priview/internal/accuracy"
	"priview/internal/dataset"
	"priview/internal/marginal"
	"priview/internal/noise"
)

// Config scales an experiment. The zero value is ignored; use Reduced or
// Full, or craft intermediate sizes.
type Config struct {
	// Queries is how many random k-attribute sets are evaluated per
	// setting (the paper uses 200).
	Queries int
	// Runs is how many independent noise draws are averaged per query
	// set (the paper uses 5).
	Runs int
	// N is the synthetic dataset size; 0 means each dataset's
	// paper-scale default.
	N int
	// Seed roots all randomness (data synthesis, noise, query choice).
	Seed int64
}

// Reduced returns a configuration small enough for go test and quick
// iterations: fewer queries, fewer runs, smaller datasets. The error
// *distributions* it produces are noisier than the paper's but the
// method ordering and orders-of-magnitude gaps are stable.
func Reduced() Config {
	return Config{Queries: 20, Runs: 2, N: 40000, Seed: 1}
}

// Full returns the paper-scale configuration: 200 query sets, 5 runs,
// full synthetic dataset sizes.
func Full() Config {
	return Config{Queries: 200, Runs: 5, N: 0, Seed: 1}
}

func (c Config) orDefaults() Config {
	if c.Queries <= 0 {
		c.Queries = 20
	}
	if c.Runs <= 0 {
		c.Runs = 2
	}
	return c
}

// Row is one plotted candlestick (or analytic point) of an artifact.
type Row struct {
	Experiment string
	Dataset    string
	Method     string
	Epsilon    float64
	K          int
	Metric     string // "L2n" (normalized L2) or "JS"
	Stats      accuracy.Candlestick
	Note       string // "expected", "no-noise", covering-design name, ...
}

// String renders the row compactly for logs.
func (r Row) String() string {
	return fmt.Sprintf("%s %s %s eps=%g k=%d %s mean=%.3g median=%.3g",
		r.Experiment, r.Dataset, r.Method, r.Epsilon, r.K, r.Metric,
		r.Stats.Mean, r.Stats.Median)
}

// synopsis is the structural interface every mechanism satisfies.
type synopsis interface {
	Name() string
	Query(attrs []int) *marginal.Table
}

// sampleQuerySets draws `count` distinct k-subsets of {0..d-1}. When
// C(d,k) is small, all subsets are returned.
func sampleQuerySets(d, k, count int, rng *noise.Stream) [][]int {
	total := binomBig(d, k)
	if total <= int64(count) {
		return allKSubsets(d, k)
	}
	seen := map[string]bool{}
	var out [][]int
	for len(out) < count {
		perm := rng.Perm(d)[:k]
		sort.Ints(perm)
		key := marginal.Key(perm)
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, perm)
	}
	return out
}

func binomBig(n, k int) int64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	v := int64(1)
	for i := 0; i < k; i++ {
		v = v * int64(n-i) / int64(i+1)
		if v > 1<<40 {
			return 1 << 40
		}
	}
	return v
}

func allKSubsets(d, k int) [][]int {
	var out [][]int
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	for {
		out = append(out, append([]int(nil), idx...))
		i := k - 1
		for i >= 0 && idx[i] == d-k+i {
			i--
		}
		if i < 0 {
			return out
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}

// consecutiveQuerySets returns all runs of k consecutive attributes —
// the query workload for the Markov-chain experiment (Fig. 5).
func consecutiveQuerySets(d, k int) [][]int {
	var out [][]int
	for start := 0; start+k <= d; start++ {
		q := make([]int, k)
		for i := range q {
			q[i] = start + i
		}
		out = append(out, q)
	}
	return out
}

// trueMarginals evaluates the exact marginal for every query set.
func trueMarginals(data *dataset.Dataset, queries [][]int) []*marginal.Table {
	out := make([]*marginal.Table, len(queries))
	for i, q := range queries {
		out[i] = data.Marginal(q)
	}
	return out
}

// evalL2 runs `runs` independent builds of a mechanism and returns the
// candlestick over query sets of the per-query average normalized L2
// error — the paper's evaluation protocol ("we compute the average
// error of each query of five runs ... then plot the distribution of
// the 200 average errors").
func evalL2(build func(run int) synopsis, queries [][]int, truths []*marginal.Table, n float64, runs int) accuracy.Candlestick {
	return eval(build, queries, truths, runs, func(got, truth *marginal.Table) float64 {
		return accuracy.NormalizedL2Error(got, truth, n)
	})
}

func eval(build func(run int) synopsis, queries [][]int, truths []*marginal.Table, runs int, errFn func(got, truth *marginal.Table) float64) accuracy.Candlestick {
	perQuery := make([]float64, len(queries))
	for run := 0; run < runs; run++ {
		syn := build(run)
		for i, q := range queries {
			perQuery[i] += errFn(syn.Query(q), truths[i])
		}
	}
	for i := range perQuery {
		perQuery[i] /= float64(runs)
	}
	return accuracy.Summarize(perQuery)
}

// evalBoth computes the normalized-L2 and Jensen–Shannon candlesticks
// in a single query pass (reconstruction dominates the cost, so the
// two-metric figures use this instead of two eval calls).
func evalBoth(build func(run int) synopsis, queries [][]int, truths []*marginal.Table, n float64, runs int) (l2, js accuracy.Candlestick) {
	perL2 := make([]float64, len(queries))
	perJS := make([]float64, len(queries))
	for run := 0; run < runs; run++ {
		syn := build(run)
		for i, q := range queries {
			got := syn.Query(q)
			perL2[i] += accuracy.NormalizedL2Error(got, truths[i], n)
			perJS[i] += accuracy.JSDivergence(got, truths[i])
		}
	}
	for i := range perL2 {
		perL2[i] /= float64(runs)
		perJS[i] /= float64(runs)
	}
	return accuracy.Summarize(perL2), accuracy.Summarize(perJS)
}

// constantCandlestick represents an analytic (expected) value as a
// degenerate candlestick so it renders uniformly with measured rows.
func constantCandlestick(v float64) accuracy.Candlestick {
	return accuracy.Candlestick{P25: v, Median: v, P75: v, P95: v, Mean: v}
}
