// Package server exposes published PriView synopses over HTTP. Since
// a synopsis is a differentially private object, serving unlimited
// marginal queries from it costs no additional privacy budget (the
// post-processing property) — the server is a pure, stateless query
// engine suitable for public deployment.
//
// There is one router, Multi. NewMulti serves every release a Resolver
// (internal/registry) resolves; New serves one fixed Querier through the
// same router as the release named DefaultRelease.
//
// The serving path has an explicit failure model: per-request deadlines
// (504 on expiry), load shedding (429 + Retry-After when saturated),
// panic recovery (500 with a logged stack), and a draining state that
// flips /healthz and /readyz to 503 so load balancers stop routing to
// an instance that is shutting down.
//
// The adaptive admission controller from internal/admission is the
// only load shedder: a bounded queue absorbs bursts, CoDel-style
// sojourn control sheds from the queue when delay stands above target,
// and an AIMD search adapts the concurrency limit to the latency
// gradient. Requests arriving with less remaining deadline (propagated
// via X-Priview-Deadline-Ms) than their expected service time are
// fast-failed instead of solved. Options.Brownout additionally degrades
// non-priority traffic to cache-hits-only under sustained overload.
package server

import (
	"context"
	"encoding/json"
	"log"
	"net/http"
	"strconv"
	"time"

	"priview/internal/admission"
	"priview/internal/core"
	"priview/internal/covering"
	"priview/internal/marginal"
	"priview/internal/qcache"
	"priview/internal/telemetry"
)

// Querier is the synopsis surface the server serves: core's batch
// API. *core.Synopsis implements it, and so does CachedQuerier; tests
// substitute slow or faulty implementations to exercise the failure
// model without a slow real reconstruction.
type Querier interface {
	// QueryBatch answers every request in one call, honoring ctx
	// cancellation (see core.Synopsis.QueryBatch). A single query is a
	// one-member batch.
	QueryBatch(ctx context.Context, reqs []core.BatchRequest, opt core.BatchOptions) ([]core.BatchResult, error)
	// DefaultMethod is the estimator for requests that name none.
	DefaultMethod() core.ReconstructMethod
	Epsilon() float64
	Total() float64
	Views() []*marginal.Table
	Design() *covering.Design
}

// statusClientClosedRequest is the nginx-convention status for requests
// abandoned by the client; the response is never seen, the code exists
// for access logs and metrics.
const statusClientClosedRequest = 499

// Options configures the failure model around the query path. The zero
// value serves behind the admission controller at its defaults, with no
// per-request deadline and no brownout.
type Options struct {
	// MaxK bounds the marginal size a single request may ask for (≤ 0
	// selects the default of 12).
	MaxK int
	// QueryTimeout is the per-request reconstruction deadline; requests
	// exceeding it fail with 504. ≤ 0 disables the deadline.
	QueryTimeout time.Duration
	// MaxInflight is the admission controller's concurrency ceiling: it
	// fills Admission.MaxLimit and Admission.MaxQueue when those are
	// unset. ≤ 0 keeps the controller's own defaults.
	MaxInflight int
	// RetryAfter is the backoff hint on drain, deadline-gate and
	// brownout refusals, and the base of the controller's
	// queue-depth-scaled hint on 429s unless Admission.RetryAfterBase is
	// set (default 1s, rounded up to whole seconds as the header
	// requires).
	RetryAfter time.Duration
	// MaxBatch bounds the queries one POST /v1/marginals request may
	// carry (≤ 0 selects the default of 256).
	MaxBatch int
	// BatchWorkers bounds the solver goroutines one batch may fan over
	// (core.BatchOptions.Workers); ≤ 0 selects GOMAXPROCS.
	BatchWorkers int
	// Admission configures the adaptive admission controller every
	// marginal request passes — bounded queue, CoDel sojourn control,
	// AIMD concurrency limit. Every zero field selects the controller's
	// default, so the zero value is a working controller.
	Admission admission.Config
	// Brownout, when non-nil, serves non-priority traffic from cache
	// hits only under sustained overload.
	Brownout *admission.BrownoutConfig
	// Telemetry is the metrics registry GET /metrics serves and every
	// subsystem counter registers into. nil gets a fresh private
	// registry, so /metrics always answers; pass a shared registry to
	// fold the server's series into a process-wide scrape surface.
	Telemetry *telemetry.Registry
	// SlowQuery, when > 0, logs a structured slow-query line — with the
	// request's per-stage timings — for any marginal request whose
	// total serving time exceeds it, and counts it in
	// priview_slow_queries_total. ≤ 0 disables the log.
	SlowQuery time.Duration
	// Logger receives panic stacks and response-encoding failures
	// (default log.Default()).
	Logger *log.Logger
}

// DefaultRelease is the name a single-release deployment serves its
// synopsis under: the target of the unprefixed routes, the one entry of
// /v1/releases, and the release label of its cache series.
const DefaultRelease = "default"

// New returns the router for one fixed Querier, served as the release
// DefaultRelease: the harness router tests use to put slow or faulty
// queriers below HTTP. priview-serve serves its -synopsis and -store
// releases through internal/registry instead, which adds loading,
// auditing and hot reload.
func New(q Querier, opt Options) *Multi {
	one := &oneRelease{q: Pinned{q}}
	m := NewMulti(one, DefaultRelease, opt)
	one.admission = m.ov.stats
	if cq, ok := q.(*CachedQuerier); ok {
		m.tel.InstrumentCache(DefaultRelease, cq)
	}
	m.tel.WatchCacheGauges(DefaultRelease, one.q.CacheStats)
	return m
}

// oneRelease is the Resolver behind New: one always-ready release with
// no bulkhead, breaker or quota, so the router's admission controller
// is the only gate in front of it.
type oneRelease struct {
	q         Pinned
	admission func() admission.Stats
}

func (o *oneRelease) Acquire(_ context.Context, name string) (Lease, error) {
	if name != DefaultRelease {
		return nil, ErrUnknownRelease
	}
	return o.q, nil
}

// statsResponse is the one-release /v1/stats body: the query cache's
// counters plus the router's admission snapshot, which in this mode is
// the release's own gate. Cache is false (and the counters zero) when
// the served Querier maintains no cache.
type statsResponse struct {
	Cache bool `json:"cache"`
	qcache.Stats
	Admission admission.Stats `json:"admission"`
}

func (o *oneRelease) ReleaseStats(name string) (any, error) {
	if name != DefaultRelease {
		return nil, ErrUnknownRelease
	}
	resp := statsResponse{Admission: o.admission()}
	resp.Stats, resp.Cache = o.q.CacheStats()
	return resp, nil
}

func (o *oneRelease) Releases() []string { return []string{DefaultRelease} }

func (o *oneRelease) Ready() bool { return true }

// retryAfterSeconds renders a duration as the whole-seconds string the
// Retry-After header requires, rounding up so the hint never undershoots.
func retryAfterSeconds(d time.Duration) string {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// Info describes the served synopsis: the GET /v1/info body.
type Info struct {
	Epsilon float64 `json:"epsilon"`
	Total   float64 `json:"total"`
	D       int     `json:"d"`
	Design  string  `json:"design"`
	Views   int     `json:"views"`
	MaxK    int     `json:"max_k"`
}

// serveInfo answers an info request from the resolved release q.
func (m *Multi) serveInfo(w http.ResponseWriter, r *http.Request, q Querier) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	resp := Info{
		Epsilon: q.Epsilon(),
		Total:   q.Total(),
		Views:   len(q.Views()),
		MaxK:    m.opt.MaxK,
	}
	if dg := q.Design(); dg != nil {
		resp.D = dg.D
		resp.Design = dg.Name()
	}
	writeJSON(w, m.opt.Logger, resp)
}

func writeJSON(w http.ResponseWriter, logger *log.Logger, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// The 200 header and part of the body may already be on the
		// wire, so a late http.Error would interleave an error string
		// into a JSON stream; logging is the only safe action.
		logger.Printf("server: encoding response: %v", err)
	}
}
