package registry

import (
	"context"
	"errors"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"priview/internal/admission"
	"priview/internal/core"
	"priview/internal/qcache"
	"priview/internal/reconstruct"
	"priview/internal/server"
	"priview/internal/snapshot"
	"priview/internal/telemetry"
)

// breakerState is the per-release circuit breaker FSM.
type breakerState int

const (
	// stateClosed: loads proceed normally (with exponential backoff
	// between consecutive failures below the trip threshold).
	stateClosed breakerState = iota
	// stateOpen: every acquire fast-fails with 503 + Retry-After until
	// the cooldown elapses; the shared load semaphore is never touched.
	stateOpen
	// stateHalfOpen: exactly one acquirer becomes the probe and runs a
	// real load; everyone else still fast-fails. Success closes the
	// breaker, failure re-opens it for another full cooldown.
	stateHalfOpen
)

// maxHandoffKeys caps how many hot cache keys survive an eviction for
// warm handoff — enough to restore a working set, bounded so a huge
// cache cannot turn re-admission into an unbounded replay.
const maxHandoffKeys = 1024

// release is one tenant's complete serving state. All isolation state
// is local to this struct: nothing a release does here can reach a
// sibling except through the two deliberately shared, bounded
// resources (the registry's load semaphore and cache byte budget).
type release struct {
	reg      *Registry
	name     string
	src      snapshot.Source
	inflight chan struct{}          // bulkhead permits (weight-scaled); nil = unbounded
	bucket   *admission.TokenBucket // per-tenant rate limit; nil = disabled
	weight   float64                // fairness weight scaling bucket and bulkhead

	// loadedFlag and lastTouch shadow mu-guarded state for the
	// registry's lock-free LRU scan.
	loadedFlag atomic.Bool
	lastTouch  atomic.Int64

	mu         sync.Mutex
	retired    bool
	q          server.Querier // the serving querier; nil while not resident
	cache      *qcache.Cache  // q's cache; nil when caching is disabled or q is nil
	loadedPath string         // snapshot file currently served
	version    string         // source version currently served
	loading    chan struct{}  // non-nil while a load is in flight (singleflight)
	warmMasks  []qcache.Key   // hot keys saved at eviction, replayed on re-admit

	state        breakerState
	consecFails  int
	openedUntil  time.Time     // stateOpen: when the cooldown ends
	probing      bool          // stateHalfOpen: a probe holds the slot
	backoff      time.Duration // current inter-failure backoff
	backoffUntil time.Time
	lastErr      string

	c counters
}

// counters are the per-release observability counters; lock-free
// telemetry handles so the stats path never contends with the serving
// path. They are the release-labeled series of Options.Metrics, so the
// JSON stats and /metrics read one set of numbers.
type counters struct {
	LoadAttempts   *telemetry.Counter
	LoadFailures   *telemetry.Counter
	Reloads        *telemetry.Counter
	ReloadFailures *telemetry.Counter
	Trips          *telemetry.Counter
	BreakerRejects *telemetry.Counter
	BackoffRejects *telemetry.Counter
	HalfOpenProbes *telemetry.Counter
	Shed           *telemetry.Counter
	RateLimited    *telemetry.Counter
	Evictions      *telemetry.Counter
	Readmits       *telemetry.Counter
}

// releaseFamilies is the registry's per-release counter family set,
// registered once per telemetry registry; each release interns its own
// children by name at registration time.
type releaseFamilies struct {
	loadAttempts   *telemetry.CounterVec
	loadFailures   *telemetry.CounterVec
	reloads        *telemetry.CounterVec
	reloadFailures *telemetry.CounterVec
	trips          *telemetry.CounterVec
	breakerRejects *telemetry.CounterVec
	backoffRejects *telemetry.CounterVec
	halfOpenProbes *telemetry.CounterVec
	shed           *telemetry.CounterVec
	rateLimited    *telemetry.CounterVec
	evictions      *telemetry.CounterVec
	readmits       *telemetry.CounterVec
}

func newReleaseFamilies(reg *telemetry.Registry) *releaseFamilies {
	return &releaseFamilies{
		loadAttempts:   reg.CounterVec("priview_release_load_attempts_total", "Release load attempts (first admission and breaker probes).", "release"),
		loadFailures:   reg.CounterVec("priview_release_load_failures_total", "Release loads that failed checksum, audit or I/O.", "release"),
		reloads:        reg.CounterVec("priview_release_reloads_total", "Successful hot reloads through keep-last-good.", "release"),
		reloadFailures: reg.CounterVec("priview_release_reload_failures_total", "Hot reloads that failed and kept the last good synopsis.", "release"),
		trips:          reg.CounterVec("priview_release_breaker_trips_total", "Circuit-breaker openings.", "release"),
		breakerRejects: reg.CounterVec("priview_release_breaker_rejects_total", "Acquires fast-failed by an open or probing breaker.", "release"),
		backoffRejects: reg.CounterVec("priview_release_backoff_rejects_total", "Acquires fast-failed during inter-failure load backoff.", "release"),
		halfOpenProbes: reg.CounterVec("priview_release_half_open_probes_total", "Half-open breaker probes admitted.", "release"),
		shed:           reg.CounterVec("priview_release_shed_total", "Acquires shed by the release's own bulkhead.", "release"),
		rateLimited:    reg.CounterVec("priview_release_rate_limited_total", "Acquires refused by the tenant token bucket.", "release"),
		evictions:      reg.CounterVec("priview_release_evictions_total", "Residency-bound evictions of the release's synopsis.", "release"),
		readmits:       reg.CounterVec("priview_release_readmits_total", "Re-admissions of a previously evicted release.", "release"),
	}
}

// interned returns the release's counter set as children of the
// registry families, cumulative across reloads and evictions.
func (f *releaseFamilies) interned(name string) counters {
	return counters{
		LoadAttempts:   f.loadAttempts.With(name),
		LoadFailures:   f.loadFailures.With(name),
		Reloads:        f.reloads.With(name),
		ReloadFailures: f.reloadFailures.With(name),
		Trips:          f.trips.With(name),
		BreakerRejects: f.breakerRejects.With(name),
		BackoffRejects: f.backoffRejects.With(name),
		HalfOpenProbes: f.halfOpenProbes.With(name),
		Shed:           f.shed.With(name),
		RateLimited:    f.rateLimited.With(name),
		Evictions:      f.evictions.With(name),
		Readmits:       f.readmits.With(name),
	}
}

func newRelease(reg *Registry, name string, src snapshot.Source) *release {
	rl := &release{reg: reg, name: name, src: src, weight: reg.opt.weightFor(name), c: reg.fams.interned(name)}
	// Registered once per release name: the hook follows the current
	// cache through rl, and a retired-then-readded name's stale hook
	// goes quiet (cache nil → ok false) rather than double-counting.
	reg.opt.Metrics.WatchCacheGauges(name, rl.cacheStats)
	if reg.opt.MaxInflight > 0 {
		// Weighted bulkhead carve: a heavier tenant may hold more
		// concurrent queries, but every tenant keeps at least one permit
		// so a tiny weight cannot starve a release outright.
		n := int(float64(reg.opt.MaxInflight) * rl.weight)
		if n < 1 {
			n = 1
		}
		rl.inflight = make(chan struct{}, n)
	}
	if reg.opt.TenantRPS > 0 {
		rl.bucket = admission.NewTokenBucket(reg.opt.TenantRPS*rl.weight, reg.opt.TenantBurst*rl.weight, reg.opt.Now)
	}
	return rl
}

// lease pins one admitted query to the querier that was current at
// acquire time: a reload or eviction mid-query cannot change the
// answer underneath the caller. The embedded server.Pinned holds that
// querier and forwards its optional cache surfaces (the brownout
// cache-only lookup and the cache stats). A batch runs
// under the lease's one bulkhead permit — its internal parallelism is
// bounded by the server's BatchWorkers, not by the tenant's permit
// count. Close returns the permit exactly once.
type lease struct {
	server.Pinned
	rl     *release
	closed atomic.Bool
}

func (l *lease) Close() {
	if l.closed.CompareAndSwap(false, true) && l.rl.inflight != nil {
		<-l.rl.inflight
	}
}

// acquire runs the tenant's admission ladder — rate limit, then
// bulkhead, then resolution — and hands back a lease pinned to the
// querier current at acquire time. The bucket is consulted first so a
// tenant over its rate cannot even contend for bulkhead permits.
func (rl *release) acquire(ctx context.Context) (server.Lease, error) {
	if rl.bucket != nil && !rl.bucket.Allow() {
		rl.c.RateLimited.Add(1)
		ra := rl.bucket.NextIn()
		if ra <= 0 {
			ra = rl.reg.opt.RetryAfter
		}
		return nil, &server.RateLimitedError{RetryAfter: ra}
	}
	if rl.inflight != nil {
		select {
		case rl.inflight <- struct{}{}:
		default:
			rl.c.Shed.Add(1)
			return nil, &server.SaturatedError{RetryAfter: rl.reg.opt.RetryAfter}
		}
	}
	q, err := rl.ensure(ctx)
	if err != nil {
		if rl.inflight != nil {
			<-rl.inflight
		}
		return nil, err
	}
	return &lease{Pinned: server.Pinned{Querier: q}, rl: rl}, nil
}

// ensure returns the release's current querier, driving the breaker
// FSM and the singleflight load. The loop re-evaluates after every
// wait; ctx is checked at the top of each pass.
func (rl *release) ensure(ctx context.Context) (server.Querier, error) {
	for {
		if err := reconstruct.ContextErr(ctx); err != nil {
			return nil, err
		}
		rl.mu.Lock()
		if rl.retired {
			rl.mu.Unlock()
			return nil, server.ErrUnknownRelease
		}
		if q := rl.q; q != nil {
			rl.mu.Unlock()
			rl.lastTouch.Store(rl.reg.touchSeq.Add(1))
			return q, nil
		}
		now := rl.reg.opt.Now()
		if rl.state == stateOpen {
			if now.Before(rl.openedUntil) {
				remaining := rl.openedUntil.Sub(now)
				reason := "circuit breaker open"
				if rl.lastErr != "" {
					reason += ": " + rl.lastErr
				}
				rl.c.BreakerRejects.Add(1)
				rl.mu.Unlock()
				return nil, &server.UnavailableError{Reason: reason, RetryAfter: remaining}
			}
			rl.state = stateHalfOpen
		}
		switch {
		case rl.state == stateHalfOpen:
			if rl.probing || rl.loading != nil {
				rl.c.BreakerRejects.Add(1)
				rl.mu.Unlock()
				return nil, &server.UnavailableError{
					Reason:     "circuit breaker half-open, probe in flight",
					RetryAfter: rl.reg.opt.RetryAfter,
				}
			}
			rl.probing = true
			rl.c.HalfOpenProbes.Add(1)
		case rl.loading != nil:
			// Someone else is loading; wait for their verdict, then
			// re-evaluate from scratch.
			ch := rl.loading
			rl.mu.Unlock()
			select {
			case <-ch:
				continue
			case <-ctx.Done():
				return nil, reconstruct.ContextErr(ctx)
			}
		case now.Before(rl.backoffUntil):
			remaining := rl.backoffUntil.Sub(now)
			reason := "load backoff"
			if rl.lastErr != "" {
				reason += ": " + rl.lastErr
			}
			rl.c.BackoffRejects.Add(1)
			rl.mu.Unlock()
			return nil, &server.UnavailableError{Reason: reason, RetryAfter: remaining}
		}
		ch := make(chan struct{})
		rl.loading = ch
		rl.mu.Unlock()
		return rl.lead(ctx, ch)
	}
}

// lead runs the singleflight load as its leader: one verified load,
// then install-or-strike.
func (rl *release) lead(ctx context.Context, ch chan struct{}) (server.Querier, error) {
	rl.c.LoadAttempts.Add(1)
	res, err := rl.load(ctx)
	if err == nil {
		if q := rl.install(res); q != nil {
			return q, nil
		}
		return nil, server.ErrUnknownRelease
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, reconstruct.ErrCanceled) {
		// The client went away mid-load — not the tenant's fault, so no
		// strike. Just release the singleflight so the next caller
		// leads (a half-open probe slot is returned too).
		rl.mu.Lock()
		rl.probing = false
		rl.loading = nil
		rl.mu.Unlock()
		close(ch)
		return nil, err
	}
	return nil, rl.strike(ch, err)
}

// load is the one verified-load step, shared by first admission and
// hot reload: a shared load slot, the loader, the quarantine log, then
// the audit gate. Whatever it returns without error is safe to serve.
// The loader call and the audit gate are timed as the release.load and
// release.audit stages, whether they pass or fail.
func (rl *release) load(ctx context.Context) (*snapshot.LoadResult, error) {
	reg := rl.reg
	var res *snapshot.LoadResult
	var err error
	// Breaker-open tenants return before this point, so a broken
	// tenant in fast-fail never occupies a shared load slot.
	select {
	case reg.loadSem <- struct{}{}:
		start := time.Now()
		res, err = reg.opt.Loader.Load(ctx, rl.name, rl.src)
		reg.opt.Metrics.ObserveStage("release.load", time.Since(start))
		<-reg.loadSem
	case <-ctx.Done():
		err = reconstruct.ContextErr(ctx)
	}
	if err != nil {
		return nil, err
	}
	for i, q := range res.Quarantined {
		reg.opt.Logger.Printf("registry: %s: quarantined corrupt snapshot %s: %v", rl.name, q, res.Errs[i])
	}
	start := time.Now()
	err = auditGate(res)
	reg.opt.Metrics.ObserveStage("release.audit", time.Since(start))
	if err != nil {
		return nil, err
	}
	return res, nil
}

// install is the one install step, shared by first admission and hot
// reload: it makes a verified load the serving state and ends the
// in-flight load. The synopsis gets a fresh cache (keys carry no
// synopsis identity, so a cache never outlives the synopsis it
// memoizes); the breaker closes; residency is enforced; and a
// background warm replays the hot keys of the cache being replaced, or
// of the one an eviction saved. It returns nil, installing nothing,
// when the release was retired while the load ran.
func (rl *release) install(res *snapshot.LoadResult) server.Querier {
	reg := rl.reg
	var cache *qcache.Cache
	var q server.Querier = res.Synopsis
	if reg.opt.CacheEntries > 0 || reg.opt.CacheBytes > 0 { // a cache unless both bounds are disabled
		cache = qcache.NewShared(reg.opt.CacheEntries, reg.opt.perReleaseBytes(), reg.budget)
		cq := server.NewCachedQuerier(res.Synopsis, cache)
		// Swapping each fresh cache onto the release's interned handles
		// keeps its counters cumulative over the release's lifetime.
		reg.opt.Metrics.InstrumentCache(rl.name, cq)
		q = cq
	}
	rl.mu.Lock()
	ch := rl.loading
	rl.loading = nil
	if rl.retired {
		rl.mu.Unlock()
		close(ch)
		return nil
	}
	verb := "loaded"
	if rl.q != nil {
		verb = "reloaded"
	}
	readmitted := rl.warmMasks != nil
	handoff := rl.warmMasks
	if rl.cache != nil {
		handoff = hotKeys(rl.cache)
		rl.cache.Close()
	}
	rl.warmMasks = nil
	rl.q, rl.cache = q, cache
	rl.loadedPath, rl.version = res.Path, res.Version
	rl.state = stateClosed
	rl.consecFails = 0
	rl.probing = false
	rl.backoff = 0
	rl.backoffUntil = time.Time{}
	rl.lastErr = ""
	rl.mu.Unlock()
	rl.loadedFlag.Store(true)
	rl.lastTouch.Store(reg.touchSeq.Add(1))
	if readmitted {
		rl.c.Readmits.Add(1)
	}
	close(ch)
	reg.opt.Logger.Printf("registry: %s: %s %s (ε=%g)", rl.name, verb, res.Path, res.Synopsis.Epsilon())
	reg.noteLoaded(rl)
	if cq, ok := q.(*server.CachedQuerier); ok {
		rl.warmAsync(cq, handoff)
	}
	return q
}

// hotKeys returns up to maxHandoffKeys of c's hottest keys, the warm
// handoff a replacement cache is seeded from.
func hotKeys(c *qcache.Cache) []qcache.Key {
	keys := c.Keys()
	if len(keys) > maxHandoffKeys {
		keys = keys[:maxHandoffKeys]
	}
	return keys
}

// strike records a load failure: backoff doubles, and at the
// threshold (or on any half-open probe failure) the breaker opens for
// a full cooldown. The returned error carries the Retry-After the
// caller should surface.
func (rl *release) strike(ch chan struct{}, cause error) error {
	reg := rl.reg
	rl.c.LoadFailures.Add(1)
	now := reg.opt.Now()
	rl.mu.Lock()
	rl.lastErr = cause.Error()
	rl.consecFails++
	if rl.backoff == 0 {
		rl.backoff = reg.opt.BackoffBase
	} else {
		rl.backoff *= 2
		if rl.backoff > reg.opt.BackoffMax {
			rl.backoff = reg.opt.BackoffMax
		}
	}
	rl.backoffUntil = now.Add(rl.backoff)
	wasProbe := rl.probing
	rl.probing = false
	tripped := false
	if wasProbe || rl.consecFails >= reg.opt.BreakerThreshold {
		if rl.state != stateOpen {
			tripped = true
		}
		rl.state = stateOpen
		rl.openedUntil = now.Add(reg.opt.BreakerCooldown)
	}
	retryAfter := rl.backoff
	if rl.state == stateOpen {
		retryAfter = reg.opt.BreakerCooldown
	}
	rl.loading = nil
	rl.mu.Unlock()
	close(ch)
	if tripped {
		rl.c.Trips.Add(1)
		reg.opt.Logger.Printf("registry: %s: circuit breaker opened for %v after %d consecutive failures: %v",
			rl.name, reg.opt.BreakerCooldown, rl.consecFailsApprox(), cause)
	}
	if errors.Is(cause, context.DeadlineExceeded) || errors.Is(cause, reconstruct.ErrDeadline) {
		// The caller's deadline expired while loading (the slow-loader
		// failure mode): it counted as a strike above, but the caller
		// gets the truthful 504.
		return cause
	}
	return &server.UnavailableError{Reason: "load failed: " + cause.Error(), RetryAfter: retryAfter}
}

// cacheStats feeds the release's scrape-time cache gauges: the current
// cache's snapshot, following reloads and evictions through rl. ok is
// false while the release holds no cache (cold, evicted or retired).
func (rl *release) cacheStats() (qcache.Stats, bool) {
	rl.mu.Lock()
	c := rl.cache
	rl.mu.Unlock()
	if c == nil {
		return qcache.Stats{}, false
	}
	return c.Stats(), true
}

// consecFailsApprox reads the failure streak for log lines only.
func (rl *release) consecFailsApprox() int {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	return rl.consecFails
}

// evict drops the release's resident synopsis and cache, remembering
// the hottest cache keys so a later re-admission starts warm. Called
// with reg.mu held (reg.mu → rl.mu is the sanctioned order).
func (rl *release) evict() {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	if rl.q == nil || rl.retired {
		return
	}
	if rl.cache != nil {
		rl.warmMasks = hotKeys(rl.cache)
		rl.cache.Close()
	}
	rl.cache = nil
	rl.q = nil
	rl.loadedPath = ""
	rl.loadedFlag.Store(false)
	rl.c.Evictions.Add(1)
}

// retire marks the release gone: resident state is dropped, future
// acquires get ErrUnknownRelease, in-flight leases finish untouched.
func (rl *release) retire() {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	rl.retired = true
	if rl.cache != nil {
		rl.cache.Close()
	}
	rl.cache = nil
	rl.q = nil
	rl.loadedFlag.Store(false)
}

// warmAsync pre-fills cq's cache in the background through its one
// warm loop: first the handoff keys (the queries that were hot when
// this release was last evicted or reloaded), then the configured
// ≤WarmK-way sweep with the synopsis's default estimator (the method
// unadorned queries use); a synopsis without a design has no known
// dimension and skips the sweep. Best-effort — a pass stops at its next
// chunk once cq's cache is closed, that is, once cq is no longer the
// release's current querier.
func (rl *release) warmAsync(cq *server.CachedQuerier, handoff []qcache.Key) {
	reg := rl.reg
	if len(handoff) == 0 && reg.opt.WarmK <= 0 {
		return
	}
	ctx := reg.bg
	go func() {
		reqs := make([]core.BatchRequest, len(handoff))
		for i, k := range handoff {
			reqs[i] = core.BatchRequest{Attrs: k.Mask.Attrs(), Method: core.ReconstructMethod(k.Method)}
		}
		replayed, _, err := cq.Warm(ctx, reqs, 0, nil)
		if replayed > 0 {
			reg.opt.Logger.Printf("registry: %s: warm handoff replayed %d/%d cached queries", rl.name, replayed, len(handoff))
		}
		dg := cq.Design()
		if err != nil || reg.opt.WarmK <= 0 || dg == nil {
			return
		}
		wp := reg.opt.Metrics.WarmProgress(rl.name)
		wp.Begin()
		warmed, skipped, err := cq.Warm(ctx, core.AllKWay(dg.D, reg.opt.WarmK, cq.DefaultMethod()), 0, wp.Update)
		wp.End(warmed, skipped)
		if err != nil {
			reg.opt.Logger.Printf("registry: %s: cache warming stopped after %d marginals (%d skipped): %v", rl.name, warmed, skipped, err)
			return
		}
		reg.opt.Logger.Printf("registry: %s: warmed %d marginals (≤%d-way, %d skipped)", rl.name, warmed, reg.opt.WarmK, skipped)
	}()
}

// maybeReload hot-reloads the release when its source's version
// differs from the one being served, through keep-last-good: the old
// synopsis serves until the new one has passed checksum + audit, and a
// failed reload changes nothing but a counter and the last error. Cold
// releases stay cold (lazy loading is the admission path).
func (rl *release) maybeReload(ctx context.Context) {
	version, err := rl.src.Version()
	if err != nil {
		return
	}
	rl.mu.Lock()
	if rl.q == nil || rl.retired || rl.loading != nil || rl.version == version {
		rl.mu.Unlock()
		return
	}
	ch := make(chan struct{})
	rl.loading = ch
	rl.mu.Unlock()

	res, err := rl.load(ctx)
	if err != nil {
		rl.reg.opt.Logger.Printf("registry: %s: reload failed, keeping last good synopsis: %v", rl.name, err)
		rl.c.ReloadFailures.Add(1)
		rl.mu.Lock()
		rl.lastErr = err.Error()
		rl.loading = nil
		rl.mu.Unlock()
		close(ch)
		return
	}
	if rl.install(res) != nil {
		rl.c.Reloads.Add(1)
	}
}

// ReleaseStats is the observability snapshot served on
// /v1/{release}/stats. Every counter the chaos suite asserts on —
// breaker trips, probes, sheds, evictions — is here.
type ReleaseStats struct {
	Name                string       `json:"name"`
	Loaded              bool         `json:"loaded"`
	Snapshot            string       `json:"snapshot,omitempty"`
	Breaker             string       `json:"breaker"`
	ConsecutiveFailures int          `json:"consecutive_failures"`
	BreakerTrips        uint64       `json:"breaker_trips"`
	BreakerRejects      uint64       `json:"breaker_rejects"`
	BackoffRejects      uint64       `json:"backoff_rejects"`
	HalfOpenProbes      uint64       `json:"half_open_probes"`
	LoadAttempts        uint64       `json:"load_attempts"`
	LoadFailures        uint64       `json:"load_failures"`
	Reloads             uint64       `json:"reloads"`
	ReloadFailures      uint64       `json:"reload_failures"`
	Shed                uint64       `json:"shed"`
	RateLimited         uint64       `json:"rate_limited"`
	RateLimitRPS        float64      `json:"rate_limit_rps,omitempty"`
	Weight              float64      `json:"weight"`
	Evictions           uint64       `json:"evictions"`
	Readmits            uint64       `json:"readmits"`
	LastError           string       `json:"last_error,omitempty"`
	InflightLimit       int          `json:"inflight_limit"`
	Inflight            int          `json:"inflight"`
	Cache               bool         `json:"cache"`
	CacheStats          qcache.Stats `json:"cache_stats"`
}

// stats snapshots the release's state without loading or touching it.
func (rl *release) stats() ReleaseStats {
	now := rl.reg.opt.Now()
	rl.mu.Lock()
	breaker := "closed"
	switch {
	case rl.state == stateOpen && now.Before(rl.openedUntil):
		breaker = "open"
	case rl.state == stateOpen || rl.state == stateHalfOpen:
		// Cooldown elapsed (probe pending) or probe in flight.
		breaker = "half-open"
	}
	s := ReleaseStats{
		Name:                rl.name,
		Loaded:              rl.q != nil,
		Breaker:             breaker,
		ConsecutiveFailures: rl.consecFails,
		LastError:           rl.lastErr,
		Cache:               rl.cache != nil,
	}
	if rl.loadedPath != "" {
		s.Snapshot = filepath.Base(rl.loadedPath)
	}
	if rl.cache != nil {
		s.CacheStats = rl.cache.Stats()
	}
	rl.mu.Unlock()
	s.BreakerTrips = rl.c.Trips.Value()
	s.BreakerRejects = rl.c.BreakerRejects.Value()
	s.BackoffRejects = rl.c.BackoffRejects.Value()
	s.HalfOpenProbes = rl.c.HalfOpenProbes.Value()
	s.LoadAttempts = rl.c.LoadAttempts.Value()
	s.LoadFailures = rl.c.LoadFailures.Value()
	s.Reloads = rl.c.Reloads.Value()
	s.ReloadFailures = rl.c.ReloadFailures.Value()
	s.Shed = rl.c.Shed.Value()
	s.RateLimited = rl.c.RateLimited.Value()
	s.Weight = rl.weight
	if rl.bucket != nil {
		s.RateLimitRPS = rl.reg.opt.TenantRPS * rl.weight
	}
	s.Evictions = rl.c.Evictions.Value()
	s.Readmits = rl.c.Readmits.Value()
	if rl.inflight != nil {
		s.InflightLimit = cap(rl.inflight)
		s.Inflight = len(rl.inflight)
	}
	return s
}
