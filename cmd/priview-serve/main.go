// Command priview-serve serves published PriView synopses over HTTP.
// Because a synopsis is already differentially private, serving
// unlimited marginal queries from it consumes no additional privacy
// budget — this is the deployment story for a data curator: build once
// with cmd/priview, serve forever.
//
//	priview-serve -synopsis synopsis.json -addr :8080
//	priview-serve -store /var/lib/priview/snapshots -addr :8080
//	priview-serve -registry-root /var/lib/priview/releases -addr :8080
//
// Single-tenant endpoints (-synopsis / -store):
//
//	GET /healthz                          liveness probe (503 while draining)
//	GET /readyz                           readiness probe (503 while draining)
//	GET /v1/info                          release metadata
//	GET /v1/marginal?attrs=1,5,9          reconstruct a marginal
//	GET /v1/marginal?attrs=1,5&method=CLN alternative estimator
//	GET /v1/stats                         query-cache and admission counters
//	GET /v1/releases                      the one release, "default"
//	GET /metrics                          Prometheus text exposition (all subsystems)
//
// Both single-tenant modes serve their synopsis through the same router
// as multi-tenant mode, as the release "default".
//
// Multi-tenant mode (-registry-root): every subdirectory of the root
// is a named release (its own snapshot store), served on
//
//	GET /readyz                           readiness (503 until the first scan)
//	GET /v1/releases                      registered release names
//	GET /v1/{release}/info|marginal|stats per-release routes
//	GET /v1/info|marginal|stats           alias for -default-release
//
// Releases load lazily on first query and are failure-isolated from
// each other: a release whose loads keep failing trips a per-release
// circuit breaker (-breaker-failures / -breaker-cooldown) and
// fast-fails with 503 + Retry-After without occupying shared load
// slots; each release sheds its own excess concurrency
// (-tenant-inflight, 429) and draws cache memory from one global
// -cache-bytes budget; at most -max-loaded synopses stay resident
// (LRU-evicted past that, re-warmed from their hot cache keys on
// return). SIGHUP — and every -reconcile-interval — rescans the root:
// new directories serve, removed ones 404, releases with a newer
// snapshot hot-reload through keep-last-good.
//
// Query cache: because a synopsis is immutable, repeated (attrs,
// method) queries are memoized (-cache-entries / -cache-bytes bound
// the cache, per release in registry mode; set both ≤ 0 to disable).
// -warm k precomputes every ≤k-way marginal in the background after
// each load, so the first real queries hit the cache.
//
// Durability: every synopsis is checksum-verified and audited against
// the release invariants before it serves a single query. In store and
// registry modes the newest verifiable snapshot is served; corrupt
// snapshots are quarantined to *.corrupt and loading falls back to an
// older good one. SIGHUP hot-reloads without dropping queries — if a
// reload fails, the last good synopsis keeps serving.
//
// Failure model: -query-timeout bounds each reconstruction (504 on
// expiry); the adaptive admission controller queues bursts and sheds
// sustained excess globally (429 + Retry-After), with -max-inflight as
// its concurrency ceiling and -admission-target-delay as its queue-delay
// target; and SIGINT/SIGTERM drains gracefully —
// /healthz flips to 503 so load balancers stop routing, in-flight
// queries run to completion (up to -drain-timeout), then the listener
// closes.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"priview/internal/admission"
	"priview/internal/audit"
	"priview/internal/core"
	"priview/internal/qcache"
	"priview/internal/registry"
	"priview/internal/server"
	"priview/internal/snapshot"
	"priview/internal/telemetry"
)

func main() {
	synPath := flag.String("synopsis", "", "synopsis file from `priview build` (v1 or v2 snapshot)")
	storeDir := flag.String("store", "", "snapshot store directory (serves the newest verifiable snapshot)")
	registryRoot := flag.String("registry-root", "", "multi-tenant registry root: each subdirectory is a release served on /v1/{release}/…")
	defaultRelease := flag.String("default-release", "", "release the unprefixed /v1/… routes alias in registry mode (empty: named routes only)")
	addr := flag.String("addr", ":8080", "listen address")
	maxK := flag.Int("max-k", 12, "largest marginal size a request may ask for")
	queryTimeout := flag.Duration("query-timeout", 30*time.Second, "per-request reconstruction deadline (0 disables; expiry returns 504)")
	maxInflight := flag.Int("max-inflight", 64, "admission control: concurrency ceiling and queue bound for marginal queries (0 selects the controller defaults)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight queries before closing connections")
	cacheEntries := flag.Int("cache-entries", 4096, "query-cache entry bound, per release in registry mode (≤0 together with -cache-bytes ≤0 disables the cache)")
	cacheBytes := flag.Int64("cache-bytes", 64<<20, "query-cache approximate byte bound — the global budget shared by all releases in registry mode (≤0 together with -cache-entries ≤0 disables the cache)")
	warm := flag.Int("warm", 0, "precompute all marginals of up to this many attributes into the cache after each load (0 disables)")
	maxLoaded := flag.Int("max-loaded", 8, "registry mode: synopses resident in memory at once, LRU-evicted past this (<0 disables eviction)")
	tenantInflight := flag.Int("tenant-inflight", 32, "registry mode: per-release concurrent queries before that release sheds with 429 (<0 disables)")
	breakerFailures := flag.Int("breaker-failures", 3, "registry mode: consecutive load failures that trip a release's circuit breaker")
	breakerCooldown := flag.Duration("breaker-cooldown", 10*time.Second, "registry mode: how long a tripped breaker fast-fails before admitting a probe")
	reconcileInterval := flag.Duration("reconcile-interval", time.Minute, "registry mode: background rescan period (0 disables; SIGHUP always rescans)")
	admissionTarget := flag.Duration("admission-target-delay", 25*time.Millisecond, "admission control: CoDel target queue delay; queries queue up to this sojourn before shedding starts (must be > 0)")
	tenantRPS := flag.Float64("tenant-rps", 0, "registry mode: per-release token-bucket rate limit in requests/second, scaled by -tenant-weights (0 disables)")
	tenantWeights := flag.String("tenant-weights", "", `registry mode: comma-separated name=weight fairness overrides (e.g. "gold=4,best-effort=0.5"); weight scales a release's rate limit and inflight carve`)
	brownout := flag.Duration("brownout", 0, "serve cache hits only to non-priority traffic after this long of sustained overload (0 disables)")
	batchMax := flag.Int("batch-max", 256, "largest query count one POST /v1/marginals batch may carry")
	batchWorkers := flag.Int("batch-workers", 0, "solver goroutines one batch may fan over (0 = GOMAXPROCS)")
	slowQuery := flag.Duration("slow-query", 0, "log a structured per-stage breakdown for any marginal request slower than this (0 disables)")
	flag.Parse()
	modes := 0
	for _, set := range []bool{*synPath != "", *storeDir != "", *registryRoot != ""} {
		if set {
			modes++
		}
	}
	if modes != 1 {
		fmt.Fprintln(os.Stderr, "priview-serve: exactly one of -synopsis, -store or -registry-root is required")
		os.Exit(2)
	}
	if *admissionTarget <= 0 {
		fmt.Fprintln(os.Stderr, "priview-serve: -admission-target-delay must be > 0")
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// One telemetry registry backs /metrics for the whole process: the
	// HTTP layer, admission control, every release's cache and warm
	// pass, and the solver all register their families here.
	tel := telemetry.NewRegistry()
	// Queries queue briefly, CoDel sheds on sustained sojourn, and an
	// AIMD limit tracks the latency gradient below the -max-inflight
	// ceiling.
	opt := server.Options{
		MaxK:         *maxK,
		QueryTimeout: *queryTimeout,
		MaxInflight:  *maxInflight,
		MaxBatch:     *batchMax,
		BatchWorkers: *batchWorkers,
		Admission:    admission.Config{TargetDelay: *admissionTarget},
		Telemetry:    tel,
		SlowQuery:    *slowQuery,
	}
	if *brownout > 0 {
		opt.Brownout = &admission.BrownoutConfig{Enter: *brownout}
	}
	weights, err := parseWeights(*tenantWeights)
	if err != nil {
		log.Fatalf("priview-serve: %v", err)
	}
	var handler *server.Multi
	var onHUP func()
	if *registryRoot != "" {
		reg, err := registry.New(*registryRoot, registry.Options{
			MaxLoaded:        orDisabled(*maxLoaded),
			CacheEntries:     orDisabled(*cacheEntries),
			CacheBytes:       orDisabled64(*cacheBytes),
			MaxInflight:      orDisabled(*tenantInflight),
			BreakerThreshold: *breakerFailures,
			BreakerCooldown:  *breakerCooldown,
			WarmK:            *warm,
			TenantRPS:        *tenantRPS,
			Weights:          weights,
			Metrics:          server.NewMetrics(tel),
		})
		if err != nil {
			log.Fatalf("priview-serve: %v", err)
		}
		defer reg.Close()
		if err := reg.Reconcile(ctx); err != nil {
			log.Fatalf("priview-serve: initial registry scan: %v", err)
		}
		if *reconcileInterval > 0 {
			go reg.Run(ctx, *reconcileInterval)
		}
		handler = server.NewMulti(reg, *defaultRelease, opt)
		onHUP = func() {
			if err := reg.Reconcile(ctx); err != nil {
				log.Printf("priview-serve: registry rescan failed: %v", err)
			}
		}
		log.Printf("serving registry %s (%d releases, default %q) on %s",
			*registryRoot, len(reg.Releases()), *defaultRelease, *addr)
	} else {
		src := &source{path: *synPath, dir: *storeDir}
		syn, from, err := src.load()
		if err != nil {
			log.Fatalf("priview-serve: %v", err)
		}
		cc := cacheConfig{entries: *cacheEntries, bytes: *cacheBytes, warmK: *warm, metrics: server.NewMetrics(tel)}
		swap := server.NewSwappable(cc.wrap(syn))
		handler = server.New(swap, opt)
		if dg := syn.Design(); dg != nil {
			log.Printf("serving synopsis %s (ε=%g, from %s) on %s", dg.Name(), syn.Epsilon(), from, *addr)
		} else {
			log.Printf("serving synopsis (ε=%g, from %s) on %s", syn.Epsilon(), from, *addr)
		}
		cc.warmAsync(ctx, swap.Current())
		onHUP = func() {
			if err := reload(ctx, src, swap, cc); err != nil {
				log.Printf("priview-serve: reload failed, keeping last good synopsis: %v", err)
			}
		}
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
	}
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe() }()

	for {
		select {
		case err := <-done:
			// Listener failed before any signal (e.g. port in use).
			log.Fatalf("priview-serve: %v", err)
		case <-hup:
			onHUP()
		case <-ctx.Done():
			stop() // a second signal kills immediately via the default handler
			log.Printf("signal received, draining for up to %v", *drainTimeout)
			if err := shutdown(srv, handler, *drainTimeout); err != nil {
				log.Printf("priview-serve: drain incomplete: %v", err)
			}
			if err := <-done; err != http.ErrServerClosed {
				log.Fatalf("priview-serve: %v", err)
			}
			log.Printf("drained, exiting")
			return
		}
	}
}

// orDisabled maps the flag convention (≤0 disables) onto the registry
// convention (0 means default, negative disables).
func orDisabled(v int) int {
	if v <= 0 {
		return -1
	}
	return v
}

func orDisabled64(v int64) int64 {
	if v <= 0 {
		return -1
	}
	return v
}

// source is where the served synopsis comes from: a single file or a
// snapshot store directory. Every load is checksum-verified (v2) and
// audited against the release invariants before it is served.
type source struct {
	path string // single-file mode
	dir  string // snapshot-store mode
}

// load returns a verified synopsis and a description of where it came
// from.
func (s *source) load() (*core.Synopsis, string, error) {
	if s.dir != "" {
		st, err := snapshot.NewStore(s.dir, 0)
		if err != nil {
			return nil, "", err
		}
		res, err := st.Load()
		if err != nil {
			return nil, "", err
		}
		for i, q := range res.Quarantined {
			log.Printf("priview-serve: quarantined corrupt snapshot %s: %v", q, res.Errs[i])
		}
		return res.Synopsis, res.Path, nil
	}
	syn, err := loadSynopsis(s.path)
	if err != nil {
		return nil, "", err
	}
	return syn, s.path, nil
}

// reload hot-swaps the served synopsis from the source. On failure the
// previous synopsis keeps serving untouched. The reloaded synopsis gets
// a fresh cache — qcache keys carry no synopsis identity, so reusing
// the old cache would serve the previous release's answers — and is
// re-warmed in the background.
func reload(ctx context.Context, src *source, swap *server.Swappable, cc cacheConfig) error {
	syn, from, err := src.load()
	if err != nil {
		return err
	}
	q := cc.wrap(syn)
	swap.Swap(q)
	log.Printf("priview-serve: reloaded synopsis from %s (ε=%g, total=%g)", from, syn.Epsilon(), syn.Total())
	cc.warmAsync(ctx, q)
	return nil
}

// cacheConfig carries the query-cache flags. With both bounds ≤ 0 the
// cache is disabled and synopses are served bare.
type cacheConfig struct {
	entries int
	bytes   int64
	warmK   int
	metrics *server.Metrics // warm-progress + cache gauge surface (nil in tests)
}

// wrap layers a fresh query cache over a loaded synopsis (or returns it
// bare when the cache is disabled). Each call builds a new cache: one
// cache must never outlive the synopsis it memoizes.
func (cc cacheConfig) wrap(syn *core.Synopsis) server.Querier {
	if cc.entries <= 0 && cc.bytes <= 0 {
		return syn
	}
	cq := server.NewCachedQuerier(syn, qcache.New(cc.entries, cc.bytes))
	if cc.metrics != nil {
		// Reloads build fresh caches; swapping each onto the same
		// interned handles keeps the exported series cumulative.
		cc.metrics.InstrumentCache(server.DefaultRelease, cq)
	}
	return cq
}

// warmAsync precomputes all ≤warmK-way marginals into q's cache in the
// background, logging a summary when done. A no-op unless -warm is set
// and q is cache-backed.
func (cc cacheConfig) warmAsync(ctx context.Context, q server.Querier) {
	cq, ok := q.(*server.CachedQuerier)
	if !ok || cc.warmK <= 0 {
		return
	}
	var wp *server.WarmProgress // nil is inert, so the paths stay merged
	if cc.metrics != nil {
		wp = cc.metrics.WarmProgress(server.DefaultRelease)
	}
	go func() {
		start := time.Now()
		wp.Begin()
		warmed, skipped, err := cq.WarmWithProgress(ctx, cc.warmK, 0, wp.Update)
		wp.End(warmed, skipped)
		if err != nil {
			log.Printf("priview-serve: cache warming stopped after %d marginals (%d skipped): %v", warmed, skipped, err)
			return
		}
		log.Printf("priview-serve: warmed %d marginals (≤%d-way, %d degraded keys skipped) in %v",
			warmed, cc.warmK, skipped, time.Since(start).Round(time.Millisecond))
	}()
}

// parseWeights parses the -tenant-weights "name=weight,..." list.
func parseWeights(s string) (map[string]float64, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	weights := make(map[string]float64)
	for _, part := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("-tenant-weights: %q is not name=weight", part)
		}
		w, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("-tenant-weights: bad weight for %q (want a positive number)", name)
		}
		weights[strings.TrimSpace(name)] = w
	}
	return weights, nil
}

// shutdown drains srv gracefully: the handler's health probe flips to
// 503 so load balancers stop routing new work, then http.Server.Shutdown
// waits up to drain for in-flight requests before closing connections.
func shutdown(srv *http.Server, handler *server.Multi, drain time.Duration) error {
	handler.SetDraining(true)
	ctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	return srv.Shutdown(ctx)
}

// loadSynopsis reads a synopsis published by `priview build` (bare v1
// or checksummed v2), then audits it against the release invariants —
// a synopsis that fails is refused, not served.
func loadSynopsis(path string) (*core.Synopsis, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	syn, err := snapshot.Read(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	report := audit.Check(syn, audit.Options{})
	if err := report.Err(); err != nil {
		return nil, fmt.Errorf("%s failed its release audit: %w", path, err)
	}
	return syn, nil
}
