package server

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	"runtime/debug"
	"sync/atomic"
	"time"

	"priview/internal/admission"
	"priview/internal/reconstruct"
	"priview/internal/telemetry"
)

// Resolution errors — the vocabulary a release registry speaks to the
// multi-tenant router. The router maps them onto HTTP statuses:
//
//	ErrUnknownRelease → 404
//	UnavailableError  → 503 + Retry-After (breaker open, load backoff)
//	SaturatedError    → 429 + Retry-After (per-release bulkhead full)
//	RateLimitedError  → 429 + Retry-After (per-tenant token bucket dry)
var ErrUnknownRelease = errors.New("server: unknown release")

// UnavailableError reports that a release exists but cannot serve right
// now — its circuit breaker is open, its loader is in backoff, or it is
// half-open with a probe already in flight. RetryAfter tells clients
// when trying again might succeed.
type UnavailableError struct {
	Reason     string
	RetryAfter time.Duration
}

func (e *UnavailableError) Error() string {
	return fmt.Sprintf("server: release unavailable: %s (retry after %v)", e.Reason, e.RetryAfter)
}

// SaturatedError reports that the release's own inflight bulkhead is
// full. It is deliberately distinct from global shedding: one hot
// tenant saturates itself, not the fleet.
type SaturatedError struct {
	RetryAfter time.Duration
}

func (e *SaturatedError) Error() string {
	return fmt.Sprintf("server: release at capacity (retry after %v)", e.RetryAfter)
}

// RateLimitedError reports that the tenant's token-bucket rate limit
// refused the request. Like saturation it maps to 429, but it is a
// different condition — saturation is too much concurrency right now,
// rate limiting is too many requests over the refill window — and
// RetryAfter here says when the bucket will hold a token again.
type RateLimitedError struct {
	RetryAfter time.Duration
}

func (e *RateLimitedError) Error() string {
	return fmt.Sprintf("server: release rate limited (retry after %v)", e.RetryAfter)
}

// Resolver is the registry surface the router serves from.
// internal/registry implements it; New supplies a one-release resolver.
type Resolver interface {
	// Acquire resolves name to a loaded release and takes one bulkhead
	// permit, lazily loading the release on first hit. It returns the
	// release's querier current at acquire time, which keeps answering
	// even if the release is reloaded or evicted mid-query, and release,
	// which returns the permit and must be called; calls after the first
	// do nothing. Errors are the resolution vocabulary above.
	Acquire(ctx context.Context, name string) (q Querier, release func(), err error)
	// ReleaseStats returns the release's observability snapshot (an
	// arbitrary JSON-marshalable value) without loading or touching it.
	ReleaseStats(name string) (any, error)
	// Releases lists the currently registered release names, sorted.
	Releases() []string
	// Ready reports whether the registry has completed its initial
	// scan — the /readyz gate.
	Ready() bool
}

// Multi is the HTTP front: named-release routes
// (/v1/{release}/marginal|marginals|info|stats) resolved through a
// Resolver, with the legacy unprefixed routes aliasing a configured
// default release. Every marginal request passes panic recovery, the
// admission controller and the per-request deadline; per-release
// bulkheads, breakers and quotas live behind Acquire.
type Multi struct {
	res      Resolver
	def      string // default release for legacy routes; "" = none
	mux      *http.ServeMux
	opt      Options
	ov       *overload
	tel      *Metrics
	draining atomic.Bool
}

// NewMulti returns a router serving every release res resolves.
// defaultRelease, when non-empty, is the release the legacy unprefixed
// /v1/marginal, /v1/marginals, /v1/info and /v1/stats routes alias.
func NewMulti(res Resolver, defaultRelease string, opt Options) *Multi {
	if opt.MaxK <= 0 {
		opt.MaxK = 12
	}
	if opt.RetryAfter <= 0 {
		opt.RetryAfter = time.Second
	}
	if opt.MaxBatch <= 0 {
		opt.MaxBatch = 256
	}
	if opt.Logger == nil {
		opt.Logger = log.Default()
	}
	reg := opt.Telemetry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	tel := NewMetrics(reg)
	m := &Multi{res: res, def: defaultRelease, mux: http.NewServeMux(), opt: opt, ov: newOverload(opt, tel), tel: tel}
	// /metrics is deliberately uninstrumented: a scrape should not
	// perturb the series it reads.
	m.mux.Handle("/metrics", m.recovered(reg.Handler()))
	m.handle("/healthz", http.HandlerFunc(m.handleHealth))
	m.handle("/readyz", http.HandlerFunc(m.handleReady))
	m.handle("/v1/releases", http.HandlerFunc(m.handleReleases))
	// Admission precedes the armed deadline: a request refused for
	// capacity consumes none of its reconstruction budget. The deadline
	// gate itself runs in the handlers, once the request is parsed.
	for _, rt := range []marginalRoute{marginalGET, marginalsPOST} {
		m.handleRelease(rt.op, m.ov.admitted(m.ov.deadlined(m.acquired(rt.op, m.serveMarginal(rt))), m.tryCacheOnly(rt)))
	}
	m.handleRelease("info", m.acquired("info", m.serveInfo))
	m.handleRelease("stats", http.HandlerFunc(m.handleStats))
	return m
}

// handle mounts h at pattern behind panic recovery — the health probes
// too: a panicking Querier reachable from any route must answer 500,
// not kill the response mid-flight. The per-route instrumentation sits
// outermost so recovered panics count as the 500s they answer, and
// routes are labelled by pattern, so the route label stays a closed
// set — release names never reach it (they label the registry's
// per-release series instead).
func (m *Multi) handle(pattern string, h http.Handler) {
	m.mux.Handle(pattern, m.tel.instrumented(pattern, m.recovered(h)))
}

// handleRelease mounts h on the named-release route /v1/{release}/op
// and on its legacy alias /v1/op.
func (m *Multi) handleRelease(op string, h http.Handler) {
	m.handle("/v1/{release}/"+op, h)
	m.handle("/v1/"+op, h)
}

// ServeHTTP implements http.Handler.
func (m *Multi) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	m.mux.ServeHTTP(w, r)
}

// SetDraining flips the draining state: while draining, /healthz and
// /readyz answer 503 so load balancers take the instance out of
// rotation before Shutdown closes the listener. Safe for concurrent use.
func (m *Multi) SetDraining(v bool) { m.draining.Store(v) }

// releaseName resolves which release a request addresses: the {release}
// path segment, or the configured default for legacy routes. ok is
// false for a legacy route with no default configured.
func (m *Multi) releaseName(r *http.Request) (string, bool) {
	if name := r.PathValue("release"); name != "" {
		return name, true
	}
	return m.def, m.def != ""
}

// acquired resolves the request's release and answers it with serve
// against the acquired querier, releasing the permit when serve
// returns. op names the route in the 404 a legacy route draws without
// a default release.
func (m *Multi) acquired(op string, serve func(http.ResponseWriter, *http.Request, Querier)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name, ok := m.releaseName(r)
		if !ok {
			http.Error(w, "no default release configured; use /v1/{release}/"+op, http.StatusNotFound)
			return
		}
		q, release, err := m.res.Acquire(r.Context(), name)
		if err != nil {
			m.writeResolveError(w, r, err)
			return
		}
		defer release()
		serve(w, r, q)
	})
}

// tryCacheOnly is the brownout hook of route rt: resolve the release
// and answer the request from its memoized cache alone. Resolution
// failures return false — the normal path owns the 404/503/429 mapping,
// and a request that would fail resolution must fail identically in
// and out of brownout.
func (m *Multi) tryCacheOnly(rt marginalRoute) func(http.ResponseWriter, *http.Request) bool {
	return func(w http.ResponseWriter, r *http.Request) bool {
		name, ok := m.releaseName(r)
		if !ok {
			return false
		}
		q, release, err := m.res.Acquire(r.Context(), name)
		if err != nil {
			return false
		}
		defer release()
		return m.ov.serveCacheOnly(w, r, q, rt)
	}
}

// writeResolveError maps a Resolver error onto the HTTP failure model.
func (m *Multi) writeResolveError(w http.ResponseWriter, r *http.Request, err error) {
	var unavailable *UnavailableError
	var saturated *SaturatedError
	var ratelimited *RateLimitedError
	switch {
	case errors.Is(err, ErrUnknownRelease):
		http.Error(w, "unknown release", http.StatusNotFound)
	case errors.As(err, &unavailable):
		w.Header().Set("Retry-After", retryAfterSeconds(unavailable.RetryAfter))
		http.Error(w, "release unavailable: "+unavailable.Reason, http.StatusServiceUnavailable)
	case errors.As(err, &saturated):
		w.Header().Set("Retry-After", retryAfterSeconds(saturated.RetryAfter))
		http.Error(w, "release at capacity, retry later", http.StatusTooManyRequests)
	case errors.As(err, &ratelimited):
		w.Header().Set("Retry-After", retryAfterSeconds(ratelimited.RetryAfter))
		http.Error(w, "release rate limited, retry later", http.StatusTooManyRequests)
	case errors.Is(err, reconstruct.ErrDeadline) || errors.Is(err, context.DeadlineExceeded):
		http.Error(w, "query deadline exceeded", http.StatusGatewayTimeout)
	case errors.Is(err, reconstruct.ErrCanceled) || errors.Is(err, context.Canceled):
		w.WriteHeader(statusClientClosedRequest)
	default:
		m.opt.Logger.Printf("server: resolving release for %s: %v", r.URL.Path, err)
		http.Error(w, "internal error", http.StatusInternalServerError)
	}
}

// handleStats serves the per-release observability snapshot. Unlike
// marginal and info it never loads or touches the release — stats on a
// cold, broken or saturated tenant must always answer, that being the
// whole point of the counters.
func (m *Multi) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	name, ok := m.releaseName(r)
	if !ok {
		http.Error(w, "no default release configured; use /v1/{release}/stats", http.StatusNotFound)
		return
	}
	stats, err := m.res.ReleaseStats(name)
	if err != nil {
		m.writeResolveError(w, r, err)
		return
	}
	writeJSON(w, m.opt.Logger, stats)
}

// releasesResponse lists the registered releases plus the router-wide
// admission snapshot. The admission stats live here rather than on the
// per-release stats route because the controller gates the whole
// router, not one tenant.
type releasesResponse struct {
	Default   string          `json:"default,omitempty"`
	Releases  []string        `json:"releases"`
	Admission admission.Stats `json:"admission"`
}

func (m *Multi) handleReleases(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	names := m.res.Releases()
	if names == nil {
		names = []string{}
	}
	writeJSON(w, m.opt.Logger, releasesResponse{Default: m.def, Releases: names, Admission: m.ov.stats()})
}

// refuseDraining answers a health probe 503 while draining. Like the
// shed path, the refusal carries a backoff hint; without it retrying
// clients hammer an instance that is trying to go away.
func (m *Multi) refuseDraining(w http.ResponseWriter) bool {
	if !m.draining.Load() {
		return false
	}
	w.Header().Set("Retry-After", retryAfterSeconds(m.opt.RetryAfter))
	http.Error(w, "draining", http.StatusServiceUnavailable)
	return true
}

func (m *Multi) handleHealth(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if m.refuseDraining(w) {
		return
	}
	//lint:ignore errdiscard health-probe response; a client that hung up cannot be told about it
	fmt.Fprintln(w, "ok")
}

// handleReady answers 200 only when the resolver has completed its
// initial scan and the instance is not draining — the gate a load
// balancer checks before routing traffic to a fresh replica, distinct
// from the liveness probe (/healthz) that merely proves the process
// responds.
func (m *Multi) handleReady(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if m.refuseDraining(w) {
		return
	}
	if !m.res.Ready() {
		w.Header().Set("Retry-After", retryAfterSeconds(m.opt.RetryAfter))
		http.Error(w, "registry scan incomplete", http.StatusServiceUnavailable)
		return
	}
	//lint:ignore errdiscard health-probe response; a client that hung up cannot be told about it
	fmt.Fprintln(w, "ready")
}

// recovered converts handler panics into 500s with a logged stack.
// Panics are internal failures; without this they would tear down the
// whole connection (net/http's default) or, worse, be mislabeled as
// client errors.
func (m *Multi) recovered(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				m.opt.Logger.Printf("server: panic serving %s: %v\n%s", r.URL.Path, rec, debug.Stack())
				http.Error(w, "internal error", http.StatusInternalServerError)
			}
		}()
		h.ServeHTTP(w, r)
	})
}
