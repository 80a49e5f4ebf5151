package qcache_test

import (
	"context"
	"testing"

	"priview/internal/core"
	"priview/internal/covering"
	"priview/internal/dataset/synth"
	"priview/internal/marginal"
	"priview/internal/noise"
	"priview/internal/qcache"
)

// benchSynopsis is a Kosarak-like d=32 release whose 8-way query is NOT
// covered by a single view, so the uncached path runs a real IPF solve
// — the workload the cache exists for.
func benchSynopsis(b *testing.B) (*core.Synopsis, []int) {
	b.Helper()
	data := synth.Kosarak(20000, 42)
	dg := covering.Best(32, 8, 2, 1, 2)
	syn := core.BuildSynopsis(data, core.Config{Epsilon: 1, Design: dg}, noise.NewStream(43))
	attrs := []int{0, 4, 9, 13, 17, 22, 26, 30}
	return syn, attrs
}

// BenchmarkQueryUncached is the baseline: every iteration re-runs the
// full maximum-entropy solve, exactly what the serving path did before
// the cache existed.
func BenchmarkQueryUncached(b *testing.B) {
	syn, attrs := benchSynopsis(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := syn.QueryMethodContext(ctx, attrs, core.CME); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryCached measures the steady-state hit path: after one
// warming solve, each iteration is a lock + map lookup + defensive
// clone. The only allocations are the clone's three (table struct,
// attrs, cells) — zero new solver state.
func BenchmarkQueryCached(b *testing.B) {
	syn, attrs := benchSynopsis(b)
	ctx := context.Background()
	cache := qcache.New(1024, 64<<20)
	key, ok := qcache.KeyFor(attrs, int(core.CME))
	if !ok {
		b.Fatal("bench attrs not maskable")
	}
	compute := func(ctx context.Context) (*marginal.Table, error) {
		return syn.QueryMethodContext(ctx, attrs, core.CME)
	}
	if _, err := do(cache, ctx, key, compute); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := do(cache, ctx, key, compute); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := cache.Stats()
	if st.Misses != 1 || st.Hits != uint64(b.N) {
		b.Fatalf("stats = %+v, want pure hits after the warming miss", st)
	}
}

// BenchmarkQueryCachedParallel exercises the hit path under contention:
// GOMAXPROCS goroutines hammering one hot key.
func BenchmarkQueryCachedParallel(b *testing.B) {
	syn, attrs := benchSynopsis(b)
	cache := qcache.New(1024, 64<<20)
	key, ok := qcache.KeyFor(attrs, int(core.CME))
	if !ok {
		b.Fatal("bench attrs not maskable")
	}
	compute := func(ctx context.Context) (*marginal.Table, error) {
		return syn.QueryMethodContext(ctx, attrs, core.CME)
	}
	if _, err := do(cache, context.Background(), key, compute); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		ctx := context.Background()
		for pb.Next() {
			if _, err := do(cache, ctx, key, compute); err != nil {
				b.Fatal(err)
			}
		}
	})
}
