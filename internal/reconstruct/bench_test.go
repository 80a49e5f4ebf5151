package reconstruct

import (
	"context"
	"math/rand"
	"testing"

	"priview/internal/marginal"
)

// benchConstraints fabricates the constraint pattern of a k=8 PriView
// query: many small consistent marginals from overlapping views.
func benchConstraints(k int, seed int64) (attrs []int, total float64, cons []*marginal.Table) {
	r := rand.New(rand.NewSource(seed))
	attrs = make([]int, k)
	for i := range attrs {
		attrs[i] = i
	}
	joint := marginal.New(attrs)
	sum := 0.0
	for i := range joint.Cells {
		joint.Cells[i] = 0.2 + r.Float64()
		sum += joint.Cells[i]
	}
	joint.Scale(100000 / sum)
	// Pair constraints covering all adjacent pairs plus a few triples.
	for i := 0; i+1 < k; i++ {
		cons = append(cons, joint.Project([]int{i, i + 1}))
	}
	for i := 0; i+2 < k; i += 2 {
		cons = append(cons, joint.Project([]int{i, i + 1, i + 2}))
	}
	return attrs, joint.Total(), cons
}

// dedupeBenchConstraints fabricates the CLP workload dedupeIdentical
// exists for: w views each projecting onto nPairs attribute pairs,
// where consistent views produce exact duplicates per pair. The
// pre-bucketing implementation compared every candidate against every
// kept table across ALL attribute sets — O(n²) full-table compares;
// bucketing by attribute set first only compares within a pair's own
// group.
func dedupeBenchConstraints(nSets, dupsPerSet int) []*marginal.Table {
	r := rand.New(rand.NewSource(9))
	// Distinct attribute pairs drawn from [0, 64) — C(64,2) = 2016
	// pairs, plenty for any nSets used here, and all within the d < 64
	// invariant tables enforce.
	pairs := make([][]int, 0, nSets)
	for a := 0; a < 64 && len(pairs) < nSets; a++ {
		for b := a + 1; b < 64 && len(pairs) < nSets; b++ {
			pairs = append(pairs, []int{a, b})
		}
	}
	if len(pairs) < nSets {
		panic("reconstruct: dedupeBenchConstraints nSets exceeds C(64,2)")
	}
	var cons []*marginal.Table
	for s := 0; s < nSets; s++ {
		proto := marginal.New(pairs[s])
		for i := range proto.Cells {
			proto.Cells[i] = r.Float64() * 1000
		}
		for d := 0; d < dupsPerSet; d++ {
			cons = append(cons, proto.Clone())
		}
	}
	return cons
}

// BenchmarkDedupeIdentical measures the constraint dedup pass on 3000
// constraints (300 attribute sets × 10 duplicate views each), the CLP
// shape where the quadratic cross-set compares dominate. The current
// implementation buckets on the attribute mask (one word, no
// allocation); BenchmarkDedupeIdenticalStringKeyed below is the
// retired marginal.Key-bucketed version for comparison. Numbers are
// recorded in BENCH_attrset.json (earlier history of this pass is in
// BENCH_qcache.json).
func BenchmarkDedupeIdentical(b *testing.B) {
	cons := dedupeBenchConstraints(300, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := dedupeIdentical(cons)
		if len(out) != 300 {
			b.Fatalf("deduped to %d, want 300", len(out))
		}
	}
}

// dedupeIdenticalStringKeyed is the pre-attrset implementation kept
// verbatim as the benchmark baseline: buckets keyed on the
// marginal.Key string, paying one string allocation and a string hash
// per constraint.
func dedupeIdenticalStringKeyed(cons []*marginal.Table) []*marginal.Table {
	out := make([]*marginal.Table, 0, len(cons))
	buckets := make(map[string][]*marginal.Table, len(cons))
	for _, c := range cons {
		k := marginal.Key(c.Attrs)
		dup := false
		for _, o := range buckets[k] {
			if marginal.Equal(c, o, 1e-6) {
				dup = true
				break
			}
		}
		if !dup {
			buckets[k] = append(buckets[k], c)
			out = append(out, c)
		}
	}
	return out
}

func BenchmarkDedupeIdenticalStringKeyed(b *testing.B) {
	cons := dedupeBenchConstraints(300, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := dedupeIdenticalStringKeyed(cons)
		if len(out) != 300 {
			b.Fatalf("deduped to %d, want 300", len(out))
		}
	}
}

func BenchmarkMaxEntK6(b *testing.B) {
	attrs, total, cons := benchConstraints(6, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		must(b)(Prepare(attrs, total, cons).MaxEnt(context.Background(), Options{}))
	}
}

func BenchmarkMaxEntK8(b *testing.B) {
	attrs, total, cons := benchConstraints(8, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		must(b)(Prepare(attrs, total, cons).MaxEnt(context.Background(), Options{}))
	}
}

func BenchmarkMaxEntDualK6(b *testing.B) {
	attrs, total, cons := benchConstraints(6, 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		must(b)(Prepare(attrs, total, cons).MaxEntDual(context.Background(), Options{}))
	}
}

func BenchmarkLeastSquaresK6(b *testing.B) {
	attrs, total, cons := benchConstraints(6, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		must(b)(Prepare(attrs, total, cons).LeastSquares(context.Background(), Options{}))
	}
}

func BenchmarkLinProgK4(b *testing.B) {
	attrs, total, cons := benchConstraints(4, 5)
	_ = total
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Prepare(attrs, 0, cons).LinProg(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}
