package qcache

import (
	"context"
	"fmt"
	"slices"
	"time"

	"priview/internal/marginal"
	"priview/internal/reconstruct"
	"priview/internal/telemetry"
)

// Result pairs one answer with its per-key error. A nil Err with a
// table is a clean answer (cacheable), a non-nil Err with a table is a
// degraded answer (served, never cached), and a nil table reports a
// failure for that key.
type Result struct {
	Table *marginal.Table
	Err   error
}

// DoBatch returns the memoized table for every key, running compute
// for the rest — the cache's one singleflight entry point; a single
// query is a one-key call. Each key resolves independently: from the
// store, by joining another caller's in-flight solve, or as one of this
// call's leads, which compute solves together in one call per round.
// Duplicate keys resolve to one solve and per-caller clones.
//
// compute receives the leader's ctx, must honor its cancellation, and
// must return one Result per key in order. When a joined flight's
// leader is canceled, this caller takes the key over next round as long
// as its own ctx is live, so a canceled leader never poisons its
// followers. Only clean members are stored: a degraded Result (Err
// matching reconstruct.ErrNumerical) is passed through but never
// cached. When ctx ends or compute fails as a whole, DoBatch returns
// the error and no results, failing its in-flight leads so waiters
// retry or fail on their own contexts.
//
// A traced ctx records the outcomes of each round: cache.hit and
// cache.join with the time from the call's start until the lookup or
// the wait ended, cache.fill with the compute's wall clock.
func (c *Cache) DoBatch(ctx context.Context, keys []Key, compute func(ctx context.Context, miss []Key) ([]Result, error)) ([]Result, error) {
	tr := telemetry.FromContext(ctx)
	var begin time.Time
	if tr != nil {
		begin = time.Now()
	}
	out := make([]Result, len(keys))
	// pending indexes the first occurrence of every distinct key still
	// unresolved; duplicates copy it at the end. Scanning the keys rather
	// than hashing them, with pending on the stack for up to 8 distinct
	// keys, keeps a single query free of bookkeeping allocations.
	var buf [8]int
	pending := buf[:0]
	for i, k := range keys {
		if slices.Index(keys[:i], k) < 0 {
			pending = append(pending, i)
		}
	}
	for len(pending) > 0 {
		if err := reconstruct.ContextErr(ctx); err != nil {
			return nil, err
		}
		hit := false
		var leads []Key
		var leadAt, joinAt []int
		var leadFl, joinFl []*flight
		c.mu.Lock()
		for _, i := range pending {
			k := keys[i]
			if el, ok := c.items[k]; ok {
				c.ll.MoveToFront(el)
				c.ctr.Hits.Inc()
				out[i].Table = el.Value.(*entry).table // cloned below
				hit = true
				continue
			}
			if f, ok := c.flights[k]; ok {
				c.ctr.Coalesced.Inc()
				joinAt = append(joinAt, i)
				joinFl = append(joinFl, f)
				continue
			}
			f := &flight{done: make(chan struct{})}
			c.flights[k] = f
			c.ctr.Misses.Inc()
			leads = append(leads, k)
			leadAt = append(leadAt, i)
			leadFl = append(leadFl, f)
		}
		c.mu.Unlock()
		if hit {
			if tr != nil {
				tr.Stage("cache.hit", time.Since(begin))
			}
			// A pending key holds a table only if it hit this round. Safe
			// to clone outside the lock: stored tables are never mutated,
			// and eviction only drops the reference.
			for _, i := range pending {
				if out[i].Table != nil {
					out[i].Table = out[i].Table.Clone()
				}
			}
		}
		if len(leads) > 0 {
			results, err := c.leadBatch(ctx, leads, leadFl, compute)
			if err != nil {
				return nil, err
			}
			for j, i := range leadAt {
				out[i] = results[j]
			}
		}
		var retry []int
		for j, i := range joinAt {
			f := joinFl[j]
			select {
			case <-ctx.Done():
				return nil, reconstruct.ContextErr(ctx)
			case <-f.done:
			}
			if canceledErr(f.err) {
				// The leader gave up before finishing; our context is
				// live, so take the key over next round.
				retry = append(retry, i)
				continue
			}
			out[i].Err = f.err
			if f.table != nil {
				out[i].Table = f.table.Clone()
			}
		}
		if len(joinAt) > 0 && tr != nil {
			tr.Stage("cache.join", time.Since(begin))
		}
		pending = retry
	}
	for i, k := range keys {
		if j := slices.Index(keys[:i], k); j >= 0 {
			out[i] = out[j]
			if out[j].Table != nil {
				out[i].Table = out[j].Table.Clone()
			}
		}
	}
	return out, nil
}

// leadBatch runs compute for the keys this caller leads and settles
// their flights: clean members are stored, degraded members passed
// through uncached, and a whole-compute failure (or panic) fails every
// flight so waiters never hang.
func (c *Cache) leadBatch(ctx context.Context, leads []Key, fl []*flight, compute func(ctx context.Context, miss []Key) ([]Result, error)) ([]Result, error) {
	completed := false
	defer func() {
		if !completed {
			// compute panicked. Fail the flights so waiters don't hang,
			// then let the panic propagate to this caller's recovery.
			for i, f := range fl {
				f.err = fmt.Errorf("qcache: leader panicked during compute")
				c.finish(leads[i], f, nil)
			}
		}
	}()
	fillStart := time.Now()
	results, cerr := compute(ctx, leads)
	completed = true
	telemetry.FromContext(ctx).Stage("cache.fill", time.Since(fillStart))
	if cerr == nil && len(results) != len(leads) {
		cerr = fmt.Errorf("qcache: batch compute returned %d results for %d keys", len(results), len(leads))
	}
	if cerr != nil {
		for i, f := range fl {
			f.err = cerr
			c.finish(leads[i], f, nil)
		}
		return nil, cerr
	}
	for i, f := range fl {
		r := results[i]
		var shared *marginal.Table
		if r.Table != nil {
			// One immutable copy serves both the cache and the waiters;
			// this caller keeps the original, free to mutate.
			shared = r.Table.Clone()
		}
		f.table, f.err = shared, r.Err
		var store *marginal.Table
		if r.Err == nil && shared != nil {
			store = shared
		}
		c.finish(leads[i], f, store)
	}
	return results, nil
}
