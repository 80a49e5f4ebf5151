package server

import (
	"context"
	"errors"
	"slices"

	"priview/internal/core"
	"priview/internal/marginal"
	"priview/internal/qcache"
	"priview/internal/reconstruct"
)

// CacheStatser is implemented by Queriers that maintain a query cache;
// the /v1/stats endpoint reads it. enabled is false when the underlying
// querier keeps no cache (e.g. a Pinned lease over a bare synopsis).
type CacheStatser interface {
	CacheStats() (stats qcache.Stats, enabled bool)
}

// CacheOnlyQuerier is implemented by Queriers that can answer a query
// from already-memoized state without running a solve. The brownout
// serving mode depends on it: under sustained overload the server
// answers non-priority traffic from cache hits alone, and a querier
// that cannot do that simply has nothing to serve in that mode.
type CacheOnlyQuerier interface {
	// QueryCached returns the memoized marginal for (attrs, method), or
	// ok=false when it is not cached. It must never trigger a solve.
	QueryCached(attrs []int, method core.ReconstructMethod) (*marginal.Table, bool)
}

// CachedQuerier wraps any Querier with a memoizing qcache layer: a
// repeated (attrs, method) query is answered from the cache instead of
// re-running the reconstruction solve, which is sound because a
// published synopsis is immutable (the paper's post-processing
// property). Concurrent identical queries are coalesced into one solve.
//
// Degraded answers (reconstruct.ErrNumerical) are served but never
// cached, and queries that cannot be keyed (an attribute ≥ 64 or a
// duplicate) bypass the cache entirely and hit the inner Querier with
// their original semantics.
type CachedQuerier struct {
	Querier
	cache *qcache.Cache
}

// NewCachedQuerier wraps q with the given cache. The cache must not be
// shared across different synopses: keys carry no synopsis identity, so
// reusing a cache after the underlying data changes serves stale
// answers. Hot-reload paths should build a fresh CachedQuerier per
// loaded synopsis.
func NewCachedQuerier(q Querier, cache *qcache.Cache) *CachedQuerier {
	return &CachedQuerier{Querier: q, cache: cache}
}

// QueryMethodContext implements Querier as a one-query QueryBatch, so a
// single query takes the batch path through the cache.
func (c *CachedQuerier) QueryMethodContext(ctx context.Context, attrs []int, method core.ReconstructMethod) (*marginal.Table, error) {
	res, err := c.QueryBatch(ctx, []core.BatchRequest{{Attrs: attrs, Method: method}}, core.BatchOptions{})
	if err != nil {
		return nil, err
	}
	return res[0].Table, res[0].Err
}

// QueryBatch implements BatchQuerier over the cache: each member
// resolves from the store, by joining an in-flight solve, or as part of
// one batched solve of this call's misses against the inner Querier.
// Degraded members are served but never cached, clean members cache
// normally. A member that cannot be keyed (an attribute ≥ 64 or a
// duplicate) makes the whole batch bypass the cache, keeping the inner
// QueryBatch's index-accurate validation errors.
func (c *CachedQuerier) QueryBatch(ctx context.Context, reqs []core.BatchRequest, opt core.BatchOptions) ([]core.BatchResult, error) {
	keys := make([]qcache.Key, len(reqs))
	for i, r := range reqs {
		k, ok := qcache.KeyFor(r.Attrs, int(r.Method))
		if !ok {
			return queryBatch(ctx, c.Querier, reqs, opt)
		}
		keys[i] = k
	}
	rs, err := c.cache.DoBatch(ctx, keys, func(ctx context.Context, miss []qcache.Key) ([]qcache.Result, error) {
		sub := make([]core.BatchRequest, len(miss))
		for i, k := range miss {
			sub[i] = reqs[slices.Index(keys, k)]
		}
		res, err := queryBatch(ctx, c.Querier, sub, opt)
		if err != nil {
			return nil, err
		}
		out := make([]qcache.Result, len(res))
		for i, r := range res {
			out[i] = qcache.Result{Table: r.Table, Err: r.Err}
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]core.BatchResult, len(rs))
	for i, r := range rs {
		if r.Table == nil {
			// A joined flight whose leader failed outright; honor the
			// no-partial-results contract and fail the batch with it.
			return nil, r.Err
		}
		out[i] = core.BatchResult{Table: r.Table, Err: r.Err}
	}
	return out, nil
}

// QueryCached implements CacheOnlyQuerier: a pure cache peek that never
// solves and never joins an in-flight solve.
func (c *CachedQuerier) QueryCached(attrs []int, method core.ReconstructMethod) (*marginal.Table, bool) {
	key, ok := qcache.KeyFor(attrs, int(method))
	if !ok {
		return nil, false
	}
	return c.cache.Peek(key)
}

// CacheStats implements CacheStatser.
func (c *CachedQuerier) CacheStats() (qcache.Stats, bool) {
	return c.cache.Stats(), true
}

// DefaultMethod implements DefaultMethoder by delegating to the inner
// Querier; CME when it exposes no default. The embedded interface would
// hide the inner implementation from type assertions on the wrapper, so
// the forward is explicit.
func (c *CachedQuerier) DefaultMethod() core.ReconstructMethod {
	return defaultMethod(c.Querier)
}

// warmChunk bounds how many marginals one Warm batch carries, so a
// canceled pass reports the progress of completed chunks instead of
// zero.
const warmChunk = 256

// WarmProgressFunc receives the running warm totals after every
// completed chunk. (*WarmProgress).Update satisfies it directly.
type WarmProgressFunc func(warmed, skipped int)

// Warm precomputes every marginal of 1..k attributes with the
// synopsis's configured default estimator (the method the unadorned
// query path uses — warming CME keys for a CLN-default release would
// fill the cache with entries no default query ever hits), filling the
// cache so the first real queries hit. workers ≤ 0 selects GOMAXPROCS.
// It returns how many marginals were cached cleanly and how many were
// skipped: a degraded key (reconstruct.ErrNumerical — one poisoned
// view) is computed, counted in skipped, and the pass keeps going, so a
// single bad view cannot leave the rest of the cache cold. Only the
// context ending stops the pass early (the context error is returned
// alongside the partial counts). A querier without a design has no
// known dimension and warms nothing.
//
// The pass runs as QueryBatch chunks: each chunk dedupes against the
// cache and concurrent traffic via the shared singleflight, and the
// solves inside a chunk share constraint precompute and the worker
// pool.
func (c *CachedQuerier) Warm(ctx context.Context, k, workers int) (warmed, skipped int, err error) {
	return c.WarmWithProgress(ctx, k, workers, nil)
}

// WarmWithProgress is Warm reporting its running totals through fn
// after every completed chunk, so a long pass is observable while it
// runs (the warm-progress gauges hang off this). fn may be nil.
func (c *CachedQuerier) WarmWithProgress(ctx context.Context, k, workers int, fn WarmProgressFunc) (warmed, skipped int, err error) {
	dg := c.Design()
	if dg == nil || k <= 0 {
		return 0, 0, nil
	}
	d := dg.D
	if k > d {
		k = d
	}
	reqs := core.AllKWay(d, k, defaultMethod(c.Querier))
	for lo := 0; lo < len(reqs); lo += warmChunk {
		hi := lo + warmChunk
		if hi > len(reqs) {
			hi = len(reqs)
		}
		res, berr := c.QueryBatch(ctx, reqs[lo:hi], core.BatchOptions{Workers: workers})
		if berr != nil {
			if errors.Is(berr, reconstruct.ErrCanceled) || errors.Is(berr, reconstruct.ErrDeadline) ||
				errors.Is(berr, context.Canceled) || errors.Is(berr, context.DeadlineExceeded) {
				// The pass is being stopped; report the progress so far.
				return warmed, skipped, reconstruct.ContextErr(ctx)
			}
			// An unanswerable chunk: count it skipped and keep warming
			// the rest.
			skipped += hi - lo
		} else {
			for _, r := range res {
				if r.Err == nil {
					warmed++
				} else {
					skipped++
				}
			}
		}
		if fn != nil {
			fn(warmed, skipped)
		}
	}
	return warmed, skipped, reconstruct.ContextErr(ctx)
}
