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
//	GET /v1/stats                         the release's lifecycle and cache counters
//	GET /v1/releases                      the one release, "default", and admission counters
//	GET /metrics                          Prometheus text exposition (all subsystems)
//
// Every mode serves through one router and one release lifecycle
// (internal/registry): both single-tenant modes are a registry holding
// the one release "default", loaded, checksummed and audited before the
// listener opens.
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
// new directories serve, removed ones 404.
//
// Reload: in every mode, SIGHUP and every -reconcile-interval check each
// loaded release's source and hot-reload it, through keep-last-good,
// when its version changed: a store's newest snapshot name, or the
// -synopsis file's size and modification time. An unchanged source is
// not reloaded. Queries never drop — if a reload fails, the last good
// synopsis keeps serving.
//
// Query cache: because a synopsis is immutable, repeated (attrs,
// method) queries are memoized (-cache-entries / -cache-bytes bound
// the cache, per release in registry mode; set both ≤ 0 to disable).
// -warm k precomputes every ≤k-way marginal in the background after
// each load, and each reload first replays the hot keys of the cache it
// replaces, so the first real queries hit the cache.
//
// Durability: every synopsis is checksum-verified and audited against
// the release invariants before it serves a single query. In store and
// registry modes the newest verifiable snapshot is served; corrupt
// snapshots are quarantined to *.corrupt and loading falls back to an
// older good one. A -synopsis file is never renamed.
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
	"errors"
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
	maxLoaded := flag.Int("max-loaded", 8, "registry mode: synopses resident in memory at once, LRU-evicted past this (≤0 disables eviction)")
	tenantInflight := flag.Int("tenant-inflight", 32, "registry mode: per-release concurrent queries before that release sheds with 429 (≤0 disables)")
	breakerFailures := flag.Int("breaker-failures", 3, "registry mode: consecutive load failures that trip a release's circuit breaker")
	breakerCooldown := flag.Duration("breaker-cooldown", 10*time.Second, "registry mode: how long a tripped breaker fast-fails before admitting a probe")
	reconcileInterval := flag.Duration("reconcile-interval", time.Minute, "background rescan period (0 disables; SIGHUP always rescans)")
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
	ropt := registry.Options{
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
	}
	var reg *registry.Registry
	def := *defaultRelease
	if *registryRoot != "" {
		reg, err = registry.New(*registryRoot, ropt)
		if err != nil {
			log.Fatalf("priview-serve: %v", err)
		}
		if err := reg.Reconcile(ctx); err != nil {
			log.Fatalf("priview-serve: initial registry scan: %v", err)
		}
		log.Printf("serving registry %s (%d releases, default %q) on %s",
			*registryRoot, len(reg.Releases()), def, *addr)
	} else {
		reg, err = openSingle(ctx, *synPath, *storeDir, ropt)
		if err != nil {
			log.Fatalf("priview-serve: %v", err)
		}
		def = server.DefaultRelease
		log.Printf("serving %s%s as release %q on %s", *synPath, *storeDir, def, *addr)
	}
	defer reg.Close()
	if *reconcileInterval > 0 {
		go reg.Run(ctx, *reconcileInterval)
	}
	handler := server.NewMulti(reg, def, opt)

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
			if err := reg.Reconcile(ctx); err != nil {
				log.Printf("priview-serve: reconcile failed: %v", err)
			}
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

// openSingle builds the one-release registry behind -synopsis (a file
// source) or -store (a snapshot store) and loads it once, so a missing,
// corrupt or audit-failing synopsis fails startup before the listener
// opens.
func openSingle(ctx context.Context, synPath, storeDir string, opt registry.Options) (*registry.Registry, error) {
	var src snapshot.Source = snapshot.FileSource(synPath)
	if storeDir != "" {
		st, err := snapshot.NewStore(storeDir, 0)
		if err != nil {
			return nil, err
		}
		src = st
	}
	reg := registry.Single(server.DefaultRelease, src, opt)
	_, release, err := reg.Acquire(ctx, server.DefaultRelease)
	if err != nil {
		reg.Close()
		var ue *server.UnavailableError
		if errors.As(err, &ue) {
			err = errors.New(ue.Reason) // startup does not retry, so drop the Retry-After hint
		}
		return nil, err
	}
	release()
	return reg, nil
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
