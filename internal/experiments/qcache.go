package experiments

import (
	"context"
	"fmt"
	"time"

	"priview/internal/core"
	"priview/internal/noise"
	"priview/internal/qcache"
)

// QCacheRow is one row of the beyond-paper query-cache experiment: how
// long a k-way reconstruction takes against a Kosarak release with and
// without the memoizing cache in front of it.
type QCacheRow struct {
	Dataset  string
	Design   string
	K        int
	Uncached time.Duration // mean solve latency, no cache
	Cold     time.Duration // mean first-query latency through the cache (miss + fill)
	Hot      time.Duration // mean repeat-query latency (cache hit)
	Speedup  float64       // Uncached / Hot
}

// RunQCache measures the query cache introduced for the serving path:
// a published synopsis is immutable, so a marginal is a pure function
// of (attrs, method) and memoizing it costs no privacy budget. For each
// query size k the same query sets are answered three ways — directly,
// through a cold cache, and again through the now-warm cache — so the
// cold column shows the cache's fill overhead is noise next to the
// solve, and the hot column shows what repeat queries cost.
func RunQCache(cfg Config) []QCacheRow {
	cfg = cfg.orDefaults()
	kos := kosarakSetup(cfg)
	syn := core.BuildSynopsis(kos.data,
		core.Config{Epsilon: 1.0, Design: kos.c2},
		noise.NewStream(cfg.Seed).Derive("qcache"))
	rng := noise.NewStream(cfg.Seed).Derive("qcache-queries")
	ctx := context.Background()

	var rows []QCacheRow
	for _, k := range []int{6, 8} {
		sets := sampleQuerySets(kos.data.Dim(), k, cfg.Queries, rng)
		row := QCacheRow{Dataset: kos.name, Design: kos.c2.Name(), K: k}

		start := time.Now()
		for _, attrs := range sets {
			syn.Query(attrs)
		}
		row.Uncached = time.Since(start) / time.Duration(len(sets))

		cache := qcache.New(4096, 64<<20)
		query := func(attrs []int) {
			key, ok := qcache.KeyFor(attrs, int(core.CME))
			if !ok {
				panic("experiments: unkeyable query set")
			}
			if _, err := cache.DoBatch(ctx, []qcache.Key{key}, func(ctx context.Context, _ []qcache.Key) ([]qcache.Result, error) {
				t, err := syn.QueryMethodContext(ctx, attrs, core.CME)
				if t == nil {
					return nil, err
				}
				return []qcache.Result{{Table: t, Err: err}}, nil
			}); err != nil {
				panic(fmt.Sprintf("experiments: qcache query failed: %v", err))
			}
		}
		start = time.Now()
		for _, attrs := range sets {
			query(attrs)
		}
		row.Cold = time.Since(start) / time.Duration(len(sets))

		start = time.Now()
		for _, attrs := range sets {
			query(attrs)
		}
		row.Hot = time.Since(start) / time.Duration(len(sets))
		if st := cache.Stats(); st.Hits == 0 || int(st.Misses) != len(sets) {
			panic(fmt.Sprintf("experiments: qcache stats %+v, want %d misses and repeat hits", st, len(sets)))
		}
		if row.Hot > 0 {
			row.Speedup = float64(row.Uncached) / float64(row.Hot)
		}
		rows = append(rows, row)
	}
	return rows
}

// FormatQCache renders the query-cache rows.
func FormatQCache(rows []QCacheRow) string {
	out := "== qcache: memoized reconstruction latency (beyond-paper; serving-path cache) ==\n"
	out += fmt.Sprintf("%-8s  %-12s  %-3s  %-12s  %-12s  %-12s  %s\n",
		"dataset", "design", "k", "uncached", "cold", "hot", "speedup")
	for _, r := range rows {
		out += fmt.Sprintf("%-8s  %-12s  %-3d  %-12v  %-12v  %-12v  %.0f×\n",
			r.Dataset, r.Design, r.K, round(r.Uncached), round(r.Cold), round(r.Hot), r.Speedup)
	}
	return out
}

func round(d time.Duration) time.Duration {
	if d >= time.Millisecond {
		return d.Round(10 * time.Microsecond)
	}
	return d.Round(10 * time.Nanosecond)
}
