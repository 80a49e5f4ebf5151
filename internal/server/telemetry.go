package server

import (
	"log"
	"net/http"
	"time"

	"priview/internal/core"
	"priview/internal/qcache"
	"priview/internal/telemetry"
)

// Metrics owns every telemetry family the serving stack exports on
// GET /metrics and hands out the interned handles the subsystems write
// through. One Metrics per telemetry.Registry; constructing it twice
// over the same registry is safe because family registration is
// idempotent, so the router and the release registry can share one
// scrape surface.
//
// Naming follows the Prometheus conventions DESIGN.md §15 pins down:
// everything is prefixed priview_, counters end in _total, and every
// duration histogram is in seconds and named _seconds. Label
// cardinality is bounded by construction — routes are the fixed mux
// patterns, status is the 1xx..5xx class, method/stage/worker labels
// are small closed sets, and release names are operator-chosen.
type Metrics struct {
	Registry *telemetry.Registry

	httpRequests *telemetry.CounterVec   // {route,status}
	httpLatency  *telemetry.HistogramVec // {route,status}
	solve        *telemetry.HistogramVec // {method}
	stage        *telemetry.HistogramVec // {stage}
	slowQueries  *telemetry.Counter

	cacheHits      *telemetry.CounterVec // {release}
	cacheMisses    *telemetry.CounterVec
	cacheEvictions *telemetry.CounterVec
	cacheCoalesced *telemetry.CounterVec
	cacheEntries   *telemetry.GaugeVec
	cacheBytes     *telemetry.GaugeVec

	warmWarmed     *telemetry.GaugeVec // {release}
	warmSkipped    *telemetry.GaugeVec
	warmInProgress *telemetry.GaugeVec

	admAdmitted *telemetry.Counter
	admQueued   *telemetry.Counter
	admShed     *telemetry.Counter
	admCoDel    *telemetry.Counter
	admSojourn  *telemetry.Histogram
	admLimit    *telemetry.Gauge
	admInflight *telemetry.Gauge
	admQueue    *telemetry.Gauge

	deadlineRejected *telemetry.Counter
	brownoutServed   *telemetry.Counter
	brownoutRejected *telemetry.Counter
	brownoutActive   *telemetry.Gauge
}

// NewMetrics registers (or re-resolves) the serving stack's families on
// reg and returns the handle set. reg must be non-nil.
func NewMetrics(reg *telemetry.Registry) *Metrics {
	m := &Metrics{Registry: reg}
	m.httpRequests = reg.CounterVec("priview_http_requests_total",
		"HTTP requests served, by route pattern and status class.", "route", "status")
	m.httpLatency = reg.HistogramVec("priview_http_request_seconds",
		"HTTP request serving latency, by route pattern and status class.", nil, "route", "status")
	m.solve = reg.HistogramVec("priview_solve_seconds",
		"Completed marginal solve latency, by estimator (batch solves are normalized per solve).", nil, "method")
	m.stage = reg.HistogramVec("priview_stage_seconds",
		"Per-stage latency: request-trace stages (cache.*, core.prepare, reconstruct.*) and release loads (release.*).", nil, "stage")
	m.slowQueries = reg.Counter("priview_slow_queries_total",
		"Requests whose total serving time crossed the -slow-query threshold.")

	m.cacheHits = reg.CounterVec("priview_qcache_hits_total",
		"Query-cache lookups answered from a stored table.", "release")
	m.cacheMisses = reg.CounterVec("priview_qcache_misses_total",
		"Query-cache lookups that ran a solve (became the leader).", "release")
	m.cacheEvictions = reg.CounterVec("priview_qcache_evictions_total",
		"Query-cache entries removed to satisfy the entry or byte bounds.", "release")
	m.cacheCoalesced = reg.CounterVec("priview_qcache_coalesced_total",
		"Query-cache waiters that joined another caller's in-flight solve.", "release")
	m.cacheEntries = reg.GaugeVec("priview_qcache_entries",
		"Current query-cache entry count.", "release")
	m.cacheBytes = reg.GaugeVec("priview_qcache_bytes",
		"Approximate query-cache memory footprint in bytes.", "release")

	m.warmWarmed = reg.GaugeVec("priview_cache_warm_warmed",
		"Marginals cached cleanly by the current or last warm pass.", "release")
	m.warmSkipped = reg.GaugeVec("priview_cache_warm_skipped",
		"Marginals the current or last warm pass computed but could not cache cleanly.", "release")
	m.warmInProgress = reg.GaugeVec("priview_cache_warm_in_progress",
		"1 while a cache warm pass is running, else 0.", "release")

	m.admAdmitted = reg.Counter("priview_admission_admitted_total",
		"Requests admitted by the adaptive admission controller.")
	m.admQueued = reg.Counter("priview_admission_queued_total",
		"Requests that waited in the admission queue before a verdict.")
	m.admShed = reg.Counter("priview_admission_shed_total",
		"Requests shed by the admission controller (queue full or limit search).")
	m.admCoDel = reg.Counter("priview_admission_codel_dropped_total",
		"Queued requests dropped by CoDel sojourn control.")
	m.admSojourn = reg.Histogram("priview_admission_sojourn_seconds",
		"Queue sojourn time of dispatched requests.", nil)
	m.admLimit = reg.Gauge("priview_admission_limit",
		"Fixed admission concurrency limit: the most requests admitted at once.")
	m.admInflight = reg.Gauge("priview_admission_inflight",
		"Requests currently holding an admission slot.")
	m.admQueue = reg.Gauge("priview_admission_queue_depth",
		"Requests currently waiting in the admission queue.")

	m.deadlineRejected = reg.Counter("priview_deadline_rejected_total",
		"Requests fast-failed because their remaining deadline could not cover the expected service time.")
	m.brownoutServed = reg.Counter("priview_brownout_served_total",
		"Requests answered from cache alone while a brownout was active.")
	m.brownoutRejected = reg.Counter("priview_brownout_rejected_total",
		"Requests refused 503 in brownout mode (cache miss).")
	m.brownoutActive = reg.Gauge("priview_brownout_active",
		"1 while the brownout detector holds the server in degraded mode, else 0.")
	return m
}

// statusClasses maps status/100 to the coarse class label the per-route
// series use; index 0 collects anything outside 100..599.
var statusClasses = [6]string{"other", "1xx", "2xx", "3xx", "4xx", "5xx"}

// routeMetrics is one route's pre-interned per-status-class handle set,
// so the per-request accounting is two array indexes — no map lookups
// on the serving path.
type routeMetrics struct {
	requests [6]*telemetry.Counter
	latency  [6]*telemetry.Histogram
}

// route interns the full status-class handle set for one route pattern.
// Called at mux construction, never per request.
func (m *Metrics) route(route string) *routeMetrics {
	rm := &routeMetrics{}
	for i, cls := range statusClasses {
		rm.requests[i] = m.httpRequests.With(route, cls)
		rm.latency[i] = m.httpLatency.With(route, cls)
	}
	return rm
}

// instrumented wraps h to count and time every request under the
// route's per-status-class series. It sits outermost — outside panic
// recovery — so recovered 500s are counted as 500s.
func (m *Metrics) instrumented(route string, h http.Handler) http.Handler {
	rm := m.route(route)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := statusWriter{ResponseWriter: w}
		h.ServeHTTP(&sw, r)
		cls := sw.class()
		rm.requests[cls].Inc()
		rm.latency[cls].ObserveDuration(time.Since(start))
	})
}

// statusWriter records the first status code written; a handler that
// writes a body without an explicit WriteHeader gets net/http's
// implicit 200.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

// class resolves the recorded status to a statusClasses index. A
// handler that wrote nothing at all still answers 200 (net/http writes
// the implicit header at request end).
func (w *statusWriter) class() int {
	s := w.status
	if s == 0 {
		s = http.StatusOK
	}
	if s < 100 || s > 599 {
		return 0
	}
	return s / 100
}

// CacheCounters returns the release's interned cache counter handles,
// for the cache of each of its generations: every reload builds a
// fresh cache, and counting into the same handles keeps the exported
// series cumulative over the release's lifetime.
func (m *Metrics) CacheCounters(release string) qcache.Counters {
	return qcache.Counters{
		Hits:      m.cacheHits.With(release),
		Misses:    m.cacheMisses.With(release),
		Evictions: m.cacheEvictions.With(release),
		Coalesced: m.cacheCoalesced.With(release),
	}
}

// WatchCacheGauges refreshes the release's entry/byte gauges at scrape
// time from stats. Register once per release — scrape hooks are never
// removed, so a per-reload registration would accumulate; stats must
// follow the release's current cache itself (a method value, not a
// closure over one cache generation).
func (m *Metrics) WatchCacheGauges(release string, stats func() (qcache.Stats, bool)) {
	entries := m.cacheEntries.With(release)
	bytes := m.cacheBytes.With(release)
	m.Registry.OnScrape(func() {
		st, ok := stats()
		if !ok {
			return
		}
		entries.Set(float64(st.Entries))
		bytes.Set(float64(st.Bytes))
	})
}

// WarmProgress interns the release's warm-pass gauge handles.
func (m *Metrics) WarmProgress(release string) *WarmProgress {
	return &WarmProgress{
		warmed:     m.warmWarmed.With(release),
		skipped:    m.warmSkipped.With(release),
		inProgress: m.warmInProgress.With(release),
	}
}

// WarmProgress exports one release's cache-warm progress: running
// warmed/skipped totals plus an in-progress flag, updated after every
// warm chunk so operators can watch a long pass move instead of
// learning its outcome from a log line at the end.
type WarmProgress struct {
	warmed, skipped, inProgress *telemetry.Gauge
}

// Begin marks a warm pass started and zeroes the running totals.
func (p *WarmProgress) Begin() {
	p.inProgress.Set(1)
	p.warmed.Set(0)
	p.skipped.Set(0)
}

// Update publishes the running totals; shaped to be used directly as
// CachedQuerier.Warm's progress function.
func (p *WarmProgress) Update(warmed, skipped int) {
	p.warmed.Set(float64(warmed))
	p.skipped.Set(float64(skipped))
}

// End publishes the final totals and clears the in-progress flag.
func (p *WarmProgress) End(warmed, skipped int) {
	p.Update(warmed, skipped)
	p.inProgress.Set(0)
}

// observeSolve records one completed solve (or completed degraded
// solve) under its estimator. Mirrors the service-time EWMA's
// semantics: timed-out queries measure their own truncation and are
// not observed.
func (m *Metrics) observeSolve(method core.ReconstructMethod, d time.Duration) {
	m.solve.With(method.String()).ObserveDuration(d)
}

// ObserveStage records one run of a stage that no request trace
// covers, such as a release load's release.load and release.audit
// steps, under priview_stage_seconds.
func (m *Metrics) ObserveStage(stage string, d time.Duration) {
	m.stage.With(stage).ObserveDuration(d)
}

// finishTrace folds tr's recorded stages into the stage histograms and,
// when the total serving time crosses the slow threshold, counts the
// request and emits the structured slow-query line. desc is resolved
// lazily so the common fast path never formats it.
func (m *Metrics) finishTrace(tr *telemetry.Trace, logger *log.Logger, slow time.Duration, route string, desc func() string) {
	if tr == nil {
		return
	}
	for _, st := range tr.Stages() {
		m.stage.With(st.Name).ObserveDuration(st.Dur)
	}
	total := tr.Elapsed()
	if slow > 0 && total >= slow && logger != nil {
		m.slowQueries.Inc()
		logger.Printf("server: slow-query route=%s %s total=%v threshold=%v stages=[%s]",
			route, desc(), total.Round(time.Microsecond), slow, tr.Summary())
	}
}
