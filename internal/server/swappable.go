package server

import (
	"sync/atomic"

	"priview/internal/qcache"
)

// Swappable holds a Querier that can be replaced atomically while
// queries are in flight — the hot-reload primitive behind
// priview-serve's SIGHUP handling. It is not itself a Querier: the
// serving paths pin Current once per request (see New), so in-flight
// queries finish against the synopsis they started with while new
// queries see the replacement. Swap never blocks the query path.
type Swappable struct {
	v atomic.Value
}

// querierBox gives atomic.Value the single consistent concrete type it
// requires even as the underlying Querier implementations vary.
type querierBox struct{ q Querier }

// NewSwappable returns a Swappable initially serving q.
func NewSwappable(q Querier) *Swappable {
	s := &Swappable{}
	s.v.Store(querierBox{q: q})
	return s
}

// Swap atomically replaces the backing synopsis.
func (s *Swappable) Swap(q Querier) { s.v.Store(querierBox{q: q}) }

// Current returns the Querier new queries are served from.
func (s *Swappable) Current() Querier { return s.v.Load().(querierBox).q }

// CacheStats implements CacheStatser by delegating to the current
// querier; enabled is false when it maintains no cache.
func (s *Swappable) CacheStats() (qcache.Stats, bool) { return Pinned{s.Current()}.CacheStats() }
