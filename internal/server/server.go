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
	"errors"
	"fmt"
	"log"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"priview/internal/admission"
	"priview/internal/core"
	"priview/internal/covering"
	"priview/internal/marginal"
	"priview/internal/qcache"
	"priview/internal/reconstruct"
	"priview/internal/telemetry"
)

// Querier is the synopsis surface the server serves. *core.Synopsis
// implements it; tests substitute slow or faulty implementations to
// exercise the failure model without a slow real reconstruction.
type Querier interface {
	// QueryMethodContext reconstructs the marginal over attrs with the
	// given estimator, honoring ctx cancellation (see core.Synopsis).
	QueryMethodContext(ctx context.Context, attrs []int, method core.ReconstructMethod) (*marginal.Table, error)
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

// infoResponse describes the published synopsis.
type infoResponse struct {
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
	resp := infoResponse{
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

// marginalResponse is a reconstructed marginal table. Degraded marks
// answers produced by the numerical fallback chain (a poisoned view or
// an unstable solver was bypassed); the cells are finite and usable but
// may come from a different estimator than requested.
type marginalResponse struct {
	Attrs    []int     `json:"attrs"`
	Method   string    `json:"method"`
	Total    float64   `json:"total"`
	Cells    []float64 `json:"cells"`
	Degraded bool      `json:"degraded,omitempty"`
}

// serveMarginal validates, reconstructs and answers one marginal query
// against the resolved release q.
func (m *Multi) serveMarginal(w http.ResponseWriter, r *http.Request, q Querier) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	attrs, method, err := parseMarginalQuery(r, q, m.opt.MaxK)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if !m.ov.admitDeadline(w, r, map[core.ReconstructMethod]int{method: 1}, 1) {
		return
	}
	// Input is validated; from here every failure is the server's, not
	// the client's. Panics propagate to the recovery middleware (500).
	// The trace rides the context down through qcache and core, which
	// record their stage timings into it.
	ctx, tr := telemetry.StartTrace(r.Context())
	start := time.Now()
	table, err := q.QueryMethodContext(ctx, attrs, method)
	if err == nil || errors.Is(err, reconstruct.ErrNumerical) {
		// Only completed solves feed the estimate; a timed-out query
		// measures its own truncation, not the method's service time.
		m.observeSolve(method, time.Since(start))
	}
	defer m.tel.finishTrace(tr, m.opt.Logger, m.opt.SlowQuery, r.URL.Path, func() string {
		return fmt.Sprintf("attrs=%v method=%s", attrs, method)
	})
	switch {
	case err == nil && table != nil:
		writeJSON(w, m.opt.Logger, marginalResponse{
			Attrs:  table.Attrs,
			Method: method.String(),
			Total:  table.Total(),
			Cells:  table.Cells,
		})
	case errors.Is(err, reconstruct.ErrNumerical) && table != nil:
		// The numerical fallback chain produced a finite answer; serve
		// it (marked degraded) rather than failing the query.
		m.opt.Logger.Printf("server: query attrs=%v method=%s degraded: %v", attrs, method, err)
		writeJSON(w, m.opt.Logger, marginalResponse{
			Attrs:    table.Attrs,
			Method:   method.String(),
			Total:    table.Total(),
			Cells:    table.Cells,
			Degraded: true,
		})
	case errors.Is(err, reconstruct.ErrDeadline) || errors.Is(err, context.DeadlineExceeded):
		http.Error(w, "query deadline exceeded", http.StatusGatewayTimeout)
	case errors.Is(err, reconstruct.ErrCanceled) || errors.Is(err, context.Canceled):
		// The client went away; the status is for logs only.
		w.WriteHeader(statusClientClosedRequest)
	default:
		m.opt.Logger.Printf("server: query attrs=%v method=%s failed: %v", attrs, method, err)
		http.Error(w, "internal error", http.StatusInternalServerError)
	}
}

// observeSolve feeds one completed solve's per-solve service time to
// the deadline gate's estimate and to the solve-time histograms.
func (m *Multi) observeSolve(method core.ReconstructMethod, d time.Duration) {
	m.ov.svc.Observe(int(method), d)
	m.tel.observeSolve(method, d)
}

// parseMarginalQuery validates a GET marginal request against the
// release q: the attrs list, the MaxK bound, q's attribute range and
// the method. The error text is the 400 body. The brownout path parses
// with it too, so input errors look identical in and out of brownout.
func parseMarginalQuery(r *http.Request, q Querier, maxK int) ([]int, core.ReconstructMethod, error) {
	attrs, err := parseAttrs(r.URL.Query().Get("attrs"))
	if err != nil {
		return nil, 0, err
	}
	if len(attrs) > maxK {
		return nil, 0, fmt.Errorf("at most %d attributes per query", maxK)
	}
	if dg := q.Design(); dg != nil {
		for _, a := range attrs {
			if a < 0 || a >= dg.D {
				return nil, 0, fmt.Errorf("attribute %d out of range (d=%d)", a, dg.D)
			}
		}
	}
	method, ok := parseMethod(r.URL.Query().Get("method"))
	if !ok {
		return nil, 0, errors.New("unknown method (want CME, CLN, LP, CLP or CME-dual)")
	}
	return attrs, method, nil
}

// parseMethod resolves the method query parameter to an estimator. All
// five Fig. 3 estimators implemented by core are accepted; matching is
// case-insensitive and CME-dual is also spellable without the hyphen.
func parseMethod(raw string) (core.ReconstructMethod, bool) {
	switch strings.ToUpper(raw) {
	case "", "CME":
		return core.CME, true
	case "CLN":
		return core.CLN, true
	case "LP":
		return core.LP, true
	case "CLP":
		return core.CLP, true
	case "CMEDUAL", "CME-DUAL":
		return core.CMEDual, true
	}
	return core.CME, false
}

func parseAttrs(raw string) ([]int, error) {
	if raw == "" {
		return nil, fmt.Errorf("attrs parameter is required (comma-separated indices)")
	}
	parts := strings.Split(raw, ",")
	attrs := make([]int, 0, len(parts))
	seen := map[int]bool{}
	for _, p := range parts {
		a, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad attribute %q", p)
		}
		if seen[a] {
			return nil, fmt.Errorf("duplicate attribute %d", a)
		}
		seen[a] = true
		attrs = append(attrs, a)
	}
	sort.Ints(attrs)
	return attrs, nil
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
