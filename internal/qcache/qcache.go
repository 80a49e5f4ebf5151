// Package qcache memoizes marginal reconstructions. A published PriView
// synopsis is immutable, so every query answer is a pure function of
// (attribute set, estimator) — the post-processing property (§2 of the
// paper) guarantees that re-serving a stored answer costs no privacy
// budget. The cache turns the serving path's dominant cost, a full
// IPF/Dykstra/simplex solve per request, into a map lookup for repeated
// queries.
//
// Three policies shape the design:
//
//   - Bounded LRU: entries are evicted least-recently-used, bounded by
//     both entry count and approximate bytes, so a high-cardinality
//     query stream cannot grow the cache without limit.
//   - Singleflight: N concurrent identical queries run one solve; the
//     rest wait and share the answer. A leader whose context is
//     canceled hands off — waiters with live contexts retry (one
//     becomes the new leader) and the canceled error is never cached
//     or propagated to them.
//   - Clean-only: answers produced by the numerical fallback chain
//     (reconstruct.ErrNumerical) are served to the callers that asked
//     but never cached, so a transiently degraded answer cannot be
//     pinned and re-served after the condition clears.
//
// Cached tables are immutable inside the cache; every caller receives
// its own defensive clone, so no caller can corrupt another's answer.
package qcache

import (
	"container/list"
	"context"
	"errors"
	"sync"

	"priview/internal/attrset"
	"priview/internal/marginal"
	"priview/internal/reconstruct"
	"priview/internal/telemetry"
)

// Key identifies one memoizable query: the attribute set as an
// attrset.Set (the repo-wide d < 64 invariant, also relied on by
// internal/consistency) plus the estimator,
// carried as its integer value so this package does not depend on
// internal/core.
type Key struct {
	// Mask is the queried attribute set.
	Mask attrset.Set
	// Method is the estimator (int value of core.ReconstructMethod).
	Method int
}

// KeyFor builds the cache key for a query. ok is false when the query
// is not maskable — an attribute outside [0, 64) or a duplicate — in
// which case the caller should bypass the cache rather than conflate
// distinct queries.
func KeyFor(attrs []int, method int) (key Key, ok bool) {
	m, err := attrset.FromAttrs(attrs)
	if err != nil {
		return Key{}, false
	}
	return Key{Mask: m, Method: method}, true
}

// Budget is a byte accountant shared by several caches — the
// multi-tenant registry gives every tenant cache its own LRU and entry
// bound but makes them all draw from one global byte pool, so the sum
// of cached table memory across tenants stays under one cap no matter
// how many tenants are resident. A cache that cannot reserve bytes
// evicts from its own tail first (tenant-local LRU pressure, never a
// neighbor's entries) and, if still over, serves the table uncached.
//
// A nil *Budget is valid everywhere and means "no shared accounting".
type Budget struct {
	mu    sync.Mutex
	total int64
	used  int64
}

// NewBudget returns a shared byte budget. total ≤ 0 means unlimited
// (the budget still accounts usage, for observability).
func NewBudget(total int64) *Budget {
	return &Budget{total: total}
}

// Used returns the bytes currently reserved across all member caches.
func (b *Budget) Used() int64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.used
}

// tryReserve reserves n bytes, failing when the cap would be exceeded.
func (b *Budget) tryReserve(n int64) bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.total > 0 && b.used+n > b.total {
		return false
	}
	b.used += n
	return true
}

// release returns n reserved bytes to the pool.
func (b *Budget) release(n int64) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.used -= n
	if b.used < 0 {
		b.used = 0
	}
	b.mu.Unlock()
}

// Stats is a snapshot of the cache counters.
type Stats struct {
	// Hits counts lookups answered from a stored table.
	Hits uint64 `json:"hits"`
	// Misses counts lookups that ran a solve (became the leader).
	Misses uint64 `json:"misses"`
	// Evictions counts entries removed to satisfy the bounds.
	Evictions uint64 `json:"evictions"`
	// Coalesced counts waiters that joined another caller's in-flight
	// solve instead of starting their own.
	Coalesced uint64 `json:"coalesced"`
	// Entries is the current entry count.
	Entries int `json:"entries"`
	// Bytes is the current approximate memory footprint of the stored
	// tables.
	Bytes int64 `json:"bytes"`
}

// Counters are the telemetry handles a Cache counts into. Handles
// interned per release (children of release-labeled CounterVecs) make
// a release's series accumulate across cache generations, since every
// reload builds a fresh Cache; Stats() and /metrics then read the same
// atomics, so the JSON stats and the Prometheus exposition never
// disagree. Every handle must be non-nil.
type Counters struct {
	Hits, Misses, Evictions, Coalesced *telemetry.Counter
}

// Cache is a bounded, concurrency-safe memoization layer over marginal
// reconstruction. The zero value is not usable; call New.
type Cache struct {
	maxEntries int
	maxBytes   int64
	budget     *Budget // nil = no shared accounting
	ctr        Counters

	mu      sync.Mutex
	ll      *list.List            // LRU order, front = most recent
	items   map[Key]*list.Element // element values are *entry
	flights map[Key]*flight       // in-progress solves
	bytes   int64
	closed  bool // set by Close; a closed cache stores nothing
}

type entry struct {
	key   Key
	table *marginal.Table // immutable once stored; cloned on every hit
	bytes int64
}

// flight is one in-progress solve. done is closed exactly once, after
// table/err are set; waiters only read them after <-done.
type flight struct {
	done  chan struct{}
	table *marginal.Table // immutable; cloned per waiter
	err   error
}

// New returns a cache bounded by maxEntries stored tables and maxBytes
// of approximate table memory, counting into counters of its own. A
// bound ≤ 0 disables that axis; passing both ≤ 0 yields an unbounded
// cache, which is almost never what a server wants. A single table
// larger than maxBytes is served but never stored.
func New(maxEntries int, maxBytes int64) *Cache {
	return NewShared(maxEntries, maxBytes, nil, Counters{
		Hits:      telemetry.NewCounter(),
		Misses:    telemetry.NewCounter(),
		Evictions: telemetry.NewCounter(),
		Coalesced: telemetry.NewCounter(),
	})
}

// NewShared is New with the cache's stored bytes additionally accounted
// against a shared Budget (nil behaves like New), counting into
// counters. When the shared pool is exhausted the cache evicts from
// its own LRU tail to make room — never from another budget member —
// and serves uncached if its own entries cannot free enough.
func NewShared(maxEntries int, maxBytes int64, budget *Budget, counters Counters) *Cache {
	return &Cache{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		budget:     budget,
		ctr:        counters,
		ll:         list.New(),
		items:      make(map[Key]*list.Element),
		flights:    make(map[Key]*flight),
	}
}

// Peek returns the stored table for key without computing anything and
// without joining an in-flight solve — the lookup behind brownout's
// cache-hits-only serving mode, where running a solve is exactly what
// must not happen. A hit counts toward Hits and refreshes LRU recency;
// a miss is silent (it never becomes a leader, so it is not a Miss).
func (c *Cache) Peek(key Key) (*marginal.Table, bool) {
	c.mu.Lock()
	el, ok := c.items[key]
	if !ok {
		c.mu.Unlock()
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.ctr.Hits.Inc()
	t := el.Value.(*entry).table
	c.mu.Unlock()
	// Safe to clone outside the lock: stored tables are never mutated,
	// and eviction only drops the reference.
	return t.Clone(), true
}

// finish retires the flight and, when store is non-nil, inserts it as a
// cache entry. done is closed after the cache state is settled so a
// released waiter that misses can immediately find the entry.
func (c *Cache) finish(key Key, f *flight, store *marginal.Table) {
	c.mu.Lock()
	delete(c.flights, key)
	if store != nil {
		c.addLocked(key, store)
	}
	c.mu.Unlock()
	close(f.done)
}

// addLocked inserts a table (which must never be mutated afterwards)
// and evicts from the LRU tail until both the local bounds and the
// shared byte budget hold. A closed cache stores nothing.
func (c *Cache) addLocked(key Key, t *marginal.Table) {
	b := approxBytes(t)
	if c.closed || (c.maxBytes > 0 && b > c.maxBytes) {
		return // retired, or larger than the whole budget; serve uncached
	}
	if el, ok := c.items[key]; ok {
		// Possible when a bypassing writer raced a flight; keep the
		// newer table.
		c.removeLocked(el)
	}
	// Make room in the shared pool by shedding this cache's own cold
	// tail; other budget members are never touched. If emptying
	// ourselves still cannot free enough, serve the table uncached.
	for !c.budget.tryReserve(b) {
		if !c.evictTailLocked() {
			return
		}
	}
	e := &entry{key: key, table: t, bytes: b}
	c.items[key] = c.ll.PushFront(e)
	c.bytes += e.bytes
	for (c.maxEntries > 0 && c.ll.Len() > c.maxEntries) ||
		(c.maxBytes > 0 && c.bytes > c.maxBytes) {
		if !c.evictTailLocked() {
			return
		}
	}
}

// removeLocked drops one entry, returning its bytes to the shared pool.
func (c *Cache) removeLocked(el *list.Element) {
	e := el.Value.(*entry)
	c.ll.Remove(el)
	delete(c.items, e.key)
	c.bytes -= e.bytes
	c.budget.release(e.bytes)
}

// evictTailLocked evicts the least-recently-used entry, reporting
// whether there was one.
func (c *Cache) evictTailLocked() bool {
	back := c.ll.Back()
	if back == nil {
		return false
	}
	c.removeLocked(back)
	c.ctr.Evictions.Inc()
	return true
}

// Keys returns the cached query keys, most recently used first. The
// registry uses this for cache-warm handoff: when a cold tenant is
// re-admitted after eviction, the keys that were hot at eviction time
// are replayed to pre-fill the fresh cache.
func (c *Cache) Keys() []Key {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]Key, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		keys = append(keys, el.Value.(*entry).key)
	}
	return keys
}

// Close retires the cache: it drops every stored entry, returns their
// bytes to the shared budget, and stores nothing from then on. Lookups
// and in-flight solves still answer — a querier acquired before the
// cache was retired keeps serving — but what they compute is not kept,
// so a retired cache never reserves budget bytes again. The registry closes
// a release's cache when it replaces, evicts or retires it, returning
// the tenant's quota to the global pool at once rather than when the
// garbage collector gets around to it.
func (c *Cache) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	for el := c.ll.Front(); el != nil; el = el.Next() {
		c.budget.release(el.Value.(*entry).bytes)
	}
	c.ll.Init()
	clear(c.items)
	c.bytes = 0
}

// Closed reports whether Close has been called.
func (c *Cache) Closed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// Stats returns a snapshot of the counters and current occupancy. The
// counters are read from the handles the cache was built with, so
// interned handles report the release's lifetime totals, not just this
// cache generation's.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:      c.ctr.Hits.Value(),
		Misses:    c.ctr.Misses.Value(),
		Evictions: c.ctr.Evictions.Value(),
		Coalesced: c.ctr.Coalesced.Value(),
		Entries:   c.ll.Len(),
		Bytes:     c.bytes,
	}
}

// Len returns the current number of stored tables.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// approxBytes estimates a table's memory footprint: cells and attrs
// backing arrays plus slice/struct overhead.
func approxBytes(t *marginal.Table) int64 {
	return int64(8*len(t.Cells) + 8*len(t.Attrs) + 64)
}

// canceledErr reports whether a flight failed because its leader's
// context ended — the one class of error a waiter must not inherit,
// because the waiter's own context may still be live.
func canceledErr(err error) bool {
	return err != nil && (errors.Is(err, reconstruct.ErrCanceled) ||
		errors.Is(err, reconstruct.ErrDeadline) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded))
}
