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

// CachedQuerier wraps any Querier with a memoizing qcache layer: a
// repeated (attrs, method) query is answered from the cache instead of
// re-running the reconstruction solve, which is sound because a
// published synopsis is immutable (the paper's post-processing
// property). Concurrent identical queries are coalesced into one solve.
//
// Degraded answers (reconstruct.ErrNumerical) are served but never
// cached, and a batch with a query that cannot be keyed (an attribute
// ≥ 64 or a duplicate) bypasses the cache entirely and goes to the
// inner QueryBatch with its original semantics.
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

// QueryBatch implements Querier over the cache: each member resolves
// from the store, by joining an in-flight solve, or as part of one
// batched solve of this call's misses against the inner Querier.
// Degraded members are served but never cached, clean members cache
// normally. A member that cannot be keyed (an attribute ≥ 64 or a
// duplicate) makes the whole batch bypass the cache, keeping the inner
// QueryBatch's index-accurate validation errors.
func (c *CachedQuerier) QueryBatch(ctx context.Context, reqs []core.BatchRequest, opt core.BatchOptions) ([]core.BatchResult, error) {
	keys := make([]qcache.Key, len(reqs))
	for i, r := range reqs {
		k, ok := qcache.KeyFor(r.Attrs, int(r.Method))
		if !ok {
			return c.Querier.QueryBatch(ctx, reqs, opt)
		}
		keys[i] = k
	}
	rs, err := c.cache.DoBatch(ctx, keys, func(ctx context.Context, miss []qcache.Key) ([]qcache.Result, error) {
		sub := make([]core.BatchRequest, len(miss))
		for i, k := range miss {
			sub[i] = reqs[slices.Index(keys, k)]
		}
		res, err := c.Querier.QueryBatch(ctx, sub, opt)
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

// QueryCached returns the memoized marginal for (attrs, method), or
// ok=false when it is not cached: a pure cache peek that never solves
// and never joins an in-flight solve. Brownout serves non-priority
// traffic through it under sustained overload.
func (c *CachedQuerier) QueryCached(attrs []int, method core.ReconstructMethod) (*marginal.Table, bool) {
	key, ok := qcache.KeyFor(attrs, int(method))
	if !ok {
		return nil, false
	}
	return c.cache.Peek(key)
}

// warmChunk bounds how many marginals one Warm batch carries, so a
// stopped pass reports the progress of completed chunks instead of
// zero.
const warmChunk = 256

// errCacheClosed stops a warm pass whose cache has been closed: the
// querier is no longer its release's current one, and anything it
// computed would be thrown away.
var errCacheClosed = errors.New("server: query cache closed")

// Warm answers reqs through QueryBatch, filling the cache so the first
// real queries for them hit. It is the one warm loop: a release's
// handoff of hot keys and its ≤k-way sweep both run through it. The
// pass runs in chunks of warmChunk requests; each chunk dedupes against
// the cache and concurrent traffic via the shared singleflight, and the
// solves inside a chunk share constraint precompute and fan over
// workers goroutines (≤ 0 selects GOMAXPROCS). progress, when non-nil,
// receives the running totals after every completed chunk, so a long
// pass is observable while it runs ((*WarmProgress).Update fits it).
//
// It returns how many requests were cached cleanly and how many were
// skipped: a degraded answer (reconstruct.ErrNumerical — one poisoned
// view) or an unanswerable chunk is counted in skipped and the pass
// keeps going, so a single bad view cannot leave the rest of the cache
// cold. The pass stops early, returning the counts so far with an
// error, when ctx ends or, at the next chunk, once the cache is
// closed.
func (c *CachedQuerier) Warm(ctx context.Context, reqs []core.BatchRequest, workers int, progress func(warmed, skipped int)) (warmed, skipped int, err error) {
	for lo := 0; lo < len(reqs); lo += warmChunk {
		if c.cache.Closed() {
			return warmed, skipped, errCacheClosed
		}
		hi := min(lo+warmChunk, len(reqs))
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
		if progress != nil {
			progress(warmed, skipped)
		}
	}
	return warmed, skipped, reconstruct.ContextErr(ctx)
}
