// Package registry is the one release lifecycle behind priview-serve:
// load, checksum, audit, a fresh query cache, warm, and keep-last-good
// hot reload. It serves many named synopsis releases from one process
// with hard failure isolation between them (New, over a root
// directory), or one fixed release (Single, for -synopsis and -store).
//
// Each subdirectory of the registry root is a release (a tenant): a
// snapshot.Store directory owned by that tenant alone. A release is
// loaded lazily on its first query, through a per-release singleflight
// so a thundering herd runs one load, and every release keeps its own
// query cache. The isolation primitives are:
//
//   - Circuit breaker: after BreakerThreshold consecutive load or
//     audit failures the release fast-fails with 503 + Retry-After for
//     BreakerCooldown, then half-opens and admits exactly one probe.
//     A breaker-open tenant never touches the shared load semaphore,
//     so a corrupt tenant cannot burn the loader slots healthy
//     tenants need.
//   - Bulkhead: each release has its own inflight permit pool and a
//     byte quota carved from the global cache budget; one hot tenant
//     saturates itself (429), not the fleet.
//   - Rate limit + weighted fairness: each release gets a token bucket
//     (TenantRPS×weight), consulted before its bulkhead, and the
//     bulkhead permits are themselves weight-scaled — a greedy tenant
//     runs its own bucket dry while a well-behaved sibling's share is
//     untouched.
//   - LRU residency: at most MaxLoaded synopses stay in memory; cold
//     tenants are evicted (their hot cache keys remembered) and warmed
//     back up from those keys when re-admitted.
//   - Reconciliation: a background rescan registers new release
//     directories, retires vanished ones, and hot-reloads releases
//     whose source's version changed, through the keep-last-good path —
//     a failed reload never takes down a serving tenant.
//
// The package implements server.Resolver; server.NewMulti routes
// /v1/{release}/... through it.
package registry

import (
	"context"
	"fmt"
	"log"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"priview/internal/audit"
	"priview/internal/qcache"
	"priview/internal/server"
	"priview/internal/snapshot"
	"priview/internal/telemetry"
)

// Loader produces a synopsis for one release from its source. The
// default loader reads the release's snapshot.Source (for a store: the
// newest verifiable snapshot, quarantining corrupt ones); the chaos
// suite injects slow and poisoning loaders to prove the breaker.
// Whatever the loader returns is audited by the registry before it
// serves — a loader cannot smuggle an invariant-violating synopsis past
// the gate.
type Loader interface {
	Load(ctx context.Context, release string, src snapshot.Source) (*snapshot.LoadResult, error)
}

// sourceLoader is the default Loader: the release's own source.
type sourceLoader struct{}

func (sourceLoader) Load(ctx context.Context, _ string, src snapshot.Source) (*snapshot.LoadResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return src.Load()
}

// Options configures a Registry. The zero value is usable: every knob
// has a serving-appropriate default, and tests override Now for a
// deterministic clock.
type Options struct {
	// MaxLoaded bounds how many synopses stay resident at once; the
	// least-recently-used release is evicted past it. 0 means the
	// default (8); negative disables eviction.
	MaxLoaded int
	// CacheEntries bounds each release's query cache by entry count.
	// 0 means the default (1024); negative lifts the entry bound. The
	// caches are off only when CacheBytes is negative too.
	CacheEntries int
	// CacheBytes is the GLOBAL byte budget shared by all release
	// caches. Each resident release gets an equal carve
	// (CacheBytes/MaxLoaded) as its local bound, and the shared
	// budget backstops the sum. 0 means the default (64 MiB);
	// negative disables byte accounting.
	CacheBytes int64
	// MaxInflight is the per-release bulkhead: concurrent queries a
	// single release may have in flight before shedding with 429.
	// 0 means the default (32); negative disables the bulkhead.
	MaxInflight int
	// TenantRPS is the per-release token-bucket rate limit in requests
	// per second, scaled by the release's weight; a dry bucket rejects
	// with 429 + Retry-After before the bulkhead is even consulted.
	// ≤ 0 disables rate limiting (the default).
	TenantRPS float64
	// TenantBurst is each bucket's capacity (also weight-scaled);
	// 0 means the default (2×TenantRPS, floored at 1).
	TenantBurst float64
	// Weights assigns per-release fairness weights; absent or
	// non-positive entries mean 1.0. A release's rate limit is
	// TenantRPS×weight and its bulkhead carve is MaxInflight×weight
	// (floored at one permit), so one knob shifts both axes of a
	// tenant's share.
	Weights map[string]float64
	// LoadConcurrency bounds how many release loads (disk read +
	// checksum + audit) run at once across the whole registry.
	// 0 means the default (2).
	LoadConcurrency int
	// BreakerThreshold is how many consecutive load failures trip the
	// release's circuit breaker. 0 means the default (3).
	BreakerThreshold int
	// BreakerCooldown is how long a tripped breaker fast-fails before
	// half-opening for a single probe. 0 means the default (10s).
	BreakerCooldown time.Duration
	// BackoffBase and BackoffMax shape the exponential backoff between
	// failed loads below the breaker threshold. Defaults 250ms / 15s.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// WarmK precomputes all ≤WarmK-way marginals after each successful
	// load (0 disables).
	WarmK int
	// RetryAfter is the hint attached to shed (429) responses.
	// 0 means the default (1s).
	RetryAfter time.Duration
	// Loader overrides how releases are loaded (nil = the release's
	// own snapshot.Source).
	Loader Loader
	// FS is the filesystem the registry and its stores use (nil = the
	// real one); the chaos suite injects fault-carrying filesystems.
	FS snapshot.FS
	// Now is the clock (nil = time.Now); tests inject a fake to drive
	// breaker cooldowns deterministically.
	Now func() time.Time
	// Metrics holds every release's lifecycle counters, cache counters
	// and warm progress as release-labeled series (pass the serving
	// router's Metrics so one GET /metrics covers both). nil gets a
	// fresh private set, so the counters and the JSON stats read them
	// behave the same either way.
	Metrics *server.Metrics
	// Logger receives operational messages (nil = log.Default()).
	Logger *log.Logger
}

// withDefaults resolves the zero-value knobs.
func (o Options) withDefaults() Options {
	if o.MaxLoaded == 0 {
		o.MaxLoaded = 8
	}
	if o.CacheEntries == 0 {
		o.CacheEntries = 1024
	}
	if o.CacheBytes == 0 {
		o.CacheBytes = 64 << 20
	}
	if o.MaxInflight == 0 {
		o.MaxInflight = 32
	}
	if o.TenantRPS > 0 && o.TenantBurst <= 0 {
		o.TenantBurst = 2 * o.TenantRPS
	}
	if o.LoadConcurrency <= 0 {
		o.LoadConcurrency = 2
	}
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = 3
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 10 * time.Second
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 250 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 15 * time.Second
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = time.Second
	}
	if o.Loader == nil {
		o.Loader = sourceLoader{}
	}
	if o.FS == nil {
		o.FS = snapshot.OS{}
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	if o.Logger == nil {
		o.Logger = log.Default()
	}
	if o.Metrics == nil {
		o.Metrics = server.NewMetrics(telemetry.NewRegistry())
	}
	return o
}

// weightFor resolves a release's fairness weight: its Weights entry
// when positive, else 1.
func (o Options) weightFor(name string) float64 {
	if w, ok := o.Weights[name]; ok && w > 0 {
		return w
	}
	return 1
}

// perReleaseBytes is the equal carve of the global cache budget each
// resident release gets as its local byte bound.
func (o Options) perReleaseBytes() int64 {
	if o.CacheBytes <= 0 {
		return 0 // unbounded locally; no budget either
	}
	if o.MaxLoaded <= 0 {
		return o.CacheBytes
	}
	per := o.CacheBytes / int64(o.MaxLoaded)
	if per < 1 {
		per = 1
	}
	return per
}

// Registry maps release names to their serving state and implements
// server.Resolver. One Registry serves one root directory, or one fixed
// release (Single).
type Registry struct {
	root    string // "" for a Single registry: nothing to scan
	opt     Options
	loadSem chan struct{}    // shared load concurrency; breaker-open tenants never enter
	budget  *qcache.Budget   // global cache byte pool; nil when disabled
	fams    *releaseFamilies // in Options.Metrics' registry
	bg      context.Context
	cancel  context.CancelFunc

	touchSeq atomic.Int64 // recency stamps for the LRU eviction scan, taken on every acquire

	mu      sync.Mutex
	rel     map[string]*release
	scanned bool // initial Reconcile completed — the /readyz gate
}

// Lock ordering: Registry.mu strictly before release.mu. Any path
// holding a release's mutex must never take the registry's.

// New opens a registry over root. No releases are scanned or loaded;
// call Reconcile (or let lazy discovery admit them on first query).
func New(root string, opt Options) (*Registry, error) {
	opt = opt.withDefaults()
	if err := opt.FS.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("registry: creating root %s: %w", root, err)
	}
	return newRegistry(root, opt), nil
}

// Single returns a registry serving one fixed release, name, from src —
// the priview-serve -synopsis and -store deployments. It scans no root:
// Reconcile only reloads the release when src's version changes, and
// any other name is unknown. The release has no bulkhead or rate limit,
// and MaxLoaded is 1 so its cache keeps the whole CacheBytes. It loads
// lazily like any release; acquire it once to load it up front.
func Single(name string, src snapshot.Source, opt Options) *Registry {
	opt.MaxLoaded, opt.MaxInflight, opt.TenantRPS = 1, -1, 0
	reg := newRegistry("", opt.withDefaults())
	reg.rel[name] = newRelease(reg, name, src)
	reg.scanned = true
	return reg
}

func newRegistry(root string, opt Options) *Registry {
	reg := &Registry{
		root:    root,
		opt:     opt,
		loadSem: make(chan struct{}, opt.LoadConcurrency),
		rel:     make(map[string]*release),
	}
	if opt.CacheBytes > 0 {
		reg.budget = qcache.NewBudget(opt.CacheBytes)
	}
	reg.fams = newReleaseFamilies(opt.Metrics.Registry)
	reg.bg, reg.cancel = context.WithCancel(context.Background())
	return reg
}

// Close stops the registry's background work (cache warming). Serving
// state is left as-is; leases already handed out keep answering.
func (reg *Registry) Close() { reg.cancel() }

// Budget exposes the shared cache byte pool (nil when byte accounting
// is disabled) for observability.
func (reg *Registry) Budget() *qcache.Budget { return reg.budget }

// validName reports whether name is an acceptable release name: 1–64
// characters of [a-zA-Z0-9._-], not starting with a dot. This is both
// an URL-hygiene rule and a path-traversal guard — a release name is
// joined onto the registry root.
func validName(name string) bool {
	if name == "" || len(name) > 64 || name[0] == '.' {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '.' || c == '_' || c == '-':
		default:
			return false
		}
	}
	return true
}

// Acquire implements server.Resolver: resolve name, take one bulkhead
// permit, lazily load on first hit, and hand back a lease pinned to
// the synopsis current at acquire time.
func (reg *Registry) Acquire(ctx context.Context, name string) (server.Lease, error) {
	rl, err := reg.lookup(name)
	if err != nil {
		return nil, err
	}
	return rl.acquire(ctx)
}

// lookup finds a registered release, falling back (except in a Single
// registry) to lazy discovery: if root/name exists as a directory it is
// registered cold on the spot, so a release dropped into the root
// serves before the next reconcile tick.
func (reg *Registry) lookup(name string) (*release, error) {
	reg.mu.Lock()
	rl, ok := reg.rel[name]
	reg.mu.Unlock()
	if ok {
		return rl, nil
	}
	if reg.root == "" || !validName(name) {
		return nil, server.ErrUnknownRelease
	}
	// Probe the root for a directory with this name. ReadDir (not
	// MkdirAll-through-NewStore first) so probing a typo cannot
	// fabricate a tenant directory.
	if _, err := reg.opt.FS.ReadDir(filepath.Join(reg.root, name)); err != nil {
		return nil, server.ErrUnknownRelease
	}
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if rl, ok := reg.rel[name]; ok {
		return rl, nil
	}
	rl, err := reg.register(name)
	if err != nil {
		return nil, err
	}
	return rl, nil
}

// register creates the cold serving state for a release. Caller holds
// reg.mu.
func (reg *Registry) register(name string) (*release, error) {
	st, err := snapshot.NewStoreFS(reg.opt.FS, filepath.Join(reg.root, name), 0)
	if err != nil {
		return nil, fmt.Errorf("registry: opening release %s: %w", name, err)
	}
	rl := newRelease(reg, name, st)
	reg.rel[name] = rl
	return rl, nil
}

// ReleaseStats implements server.Resolver. It never loads or touches
// the release: stats on a cold, broken or saturated tenant must always
// answer.
func (reg *Registry) ReleaseStats(name string) (any, error) {
	reg.mu.Lock()
	rl, ok := reg.rel[name]
	reg.mu.Unlock()
	if !ok {
		return nil, server.ErrUnknownRelease
	}
	return rl.stats(), nil
}

// Releases implements server.Resolver: the registered names, sorted.
func (reg *Registry) Releases() []string {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	names := make([]string, 0, len(reg.rel))
	for n := range reg.rel {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Ready implements server.Resolver: true once the initial Reconcile
// has completed.
func (reg *Registry) Ready() bool {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	return reg.scanned
}

// Reconcile brings the registry up to date once. A root registry first
// rescans its root: new directories are registered cold, vanished ones
// are retired (in-flight leases finish; new queries get 404). Then
// every loaded release whose source's version changed is hot-reloaded
// through the keep-last-good path. The serving path never blocks on a
// reconcile.
func (reg *Registry) Reconcile(ctx context.Context) error {
	var present map[string]bool // nil for a Single registry: nothing to scan
	if reg.root != "" {
		entries, err := reg.opt.FS.ReadDir(reg.root)
		if err != nil {
			return fmt.Errorf("registry: scanning %s: %w", reg.root, err)
		}
		present = make(map[string]bool)
		for _, e := range entries {
			if e.IsDir() && validName(e.Name()) {
				present[e.Name()] = true
			}
		}
	}
	var live, gone []*release
	reg.mu.Lock()
	for name := range present {
		if _, ok := reg.rel[name]; !ok {
			if _, err := reg.register(name); err != nil {
				reg.opt.Logger.Printf("registry: %v", err)
			}
		}
	}
	for name, rl := range reg.rel {
		if present == nil || present[name] {
			live = append(live, rl)
		} else {
			delete(reg.rel, name)
			gone = append(gone, rl)
		}
	}
	reg.scanned = true
	reg.mu.Unlock()
	for _, rl := range gone {
		rl.retire()
		reg.opt.Logger.Printf("registry: retired release %s (directory removed)", rl.name)
	}
	for _, rl := range live {
		if err := ctx.Err(); err != nil {
			return err
		}
		rl.maybeReload(ctx)
	}
	return nil
}

// Run reconciles on a fixed interval until ctx ends — the background
// companion to SIGHUP-triggered Reconcile calls.
func (reg *Registry) Run(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		return
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			if err := reg.Reconcile(ctx); err != nil && ctx.Err() == nil {
				reg.opt.Logger.Printf("registry: reconcile: %v", err)
			}
		}
	}
}

// noteLoaded enforces the residency bound after justLoaded became
// resident: while more than MaxLoaded synopses are in memory, the
// least recently used one (never the one just admitted) is evicted
// with its hot cache keys saved for warm handoff.
func (reg *Registry) noteLoaded(justLoaded *release) {
	if reg.opt.MaxLoaded <= 0 {
		return
	}
	reg.mu.Lock()
	defer reg.mu.Unlock()
	var loaded []*release
	for _, rl := range reg.rel {
		if rl.loadedFlag.Load() {
			loaded = append(loaded, rl)
		}
	}
	excess := len(loaded) - reg.opt.MaxLoaded
	for round := 0; round < excess; round++ {
		var victim *release
		oldest := int64(1<<63 - 1)
		//lint:hot
		for _, cand := range loaded {
			if cand == justLoaded || !cand.loadedFlag.Load() {
				continue
			}
			if t := cand.lastTouch.Load(); t < oldest {
				oldest, victim = t, cand
			}
		}
		if victim == nil {
			return
		}
		victim.evict()
		reg.opt.Logger.Printf("registry: evicted release %s (residency bound %d)", victim.name, reg.opt.MaxLoaded)
	}
}

// auditGate checks a loaded synopsis against the release invariants.
// It is the one audit of a snapshot.FileSource load; a store already
// audits inside its fallback walk, but the gate applies to every loader
// uniformly so an injected loader (or a future custom one) cannot hand
// the serving path a synopsis that violates the invariants — chaos
// proves this with NaN poison.
func auditGate(res *snapshot.LoadResult) error {
	report := audit.Check(res.Synopsis, audit.Options{})
	if err := report.Err(); err != nil {
		return fmt.Errorf("release audit: %w", err)
	}
	return nil
}
