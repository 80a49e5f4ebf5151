package server

import (
	"bytes"
	"context"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"priview/internal/core"
	"priview/internal/qcache"
	"priview/internal/telemetry"
)

// releasesGolden is the /v1/releases body of a router serving the one
// release DefaultRelease at default Options, before any traffic:
// deployed tooling scrapes its admission block, so field names and
// order are pinned, as the zero state of every counter.
const releasesGolden = "{\"default\":\"default\",\"releases\":[\"default\"]," +
	"\"admission\":{\"limit\":16,\"inflight\":0,\"queue_depth\":0,\"admitted\":0,\"queued\":0,\"shed\":0," +
	"\"codel_dropped\":0,\"deadline_rejected\":0,\"brownout_served\":0,\"brownout_rejected\":0," +
	"\"brownout_active\":false}}\n"

func TestReleasesJSONGolden(t *testing.T) {
	s, _ := testServer(t)
	if got := get(t, s, "/v1/releases").Body.String(); got != releasesGolden {
		t.Errorf("/v1/releases changed:\n got  %q\n want %q", got, releasesGolden)
	}
}

// scrape GETs h's /metrics and round-trips the body through the strict
// parser, so every use also re-checks the exposition invariants.
func scrape(t *testing.T, h http.Handler) map[string]*telemetry.ParsedFamily {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d: %s", rec.Code, rec.Body.String())
	}
	fams, err := telemetry.ParseText(rec.Body)
	if err != nil {
		t.Fatalf("ParseText(/metrics): %v", err)
	}
	return fams
}

// sampleValue fails the test unless family/sample/labels exists,
// returning its value.
func sampleValue(t *testing.T, fams map[string]*telemetry.ParsedFamily, family, sample string, labels map[string]string) float64 {
	t.Helper()
	f := fams[family]
	if f == nil {
		t.Fatalf("family %s missing from /metrics", family)
	}
	s := f.Sample(sample, labels)
	if s == nil {
		t.Fatalf("sample %s%v missing from family %s", sample, labels, family)
	}
	return s.Value
}

// TestMetricsEndpoint drives real traffic through the full middleware
// stack and asserts every subsystem's series lands on one scrape
// surface: per-route HTTP accounting, cache counters and gauges,
// admission counters and gauges, solve and stage histograms, and the
// slow-query path. Both marginal routes run the miss-then-hit pair, and
// each must record the cache.fill and cache.hit stages.
func TestMetricsEndpoint(t *testing.T) {
	routes := []struct {
		name, route string
		query       func(*testing.T, *Multi) *httptest.ResponseRecorder
	}{
		{"GET", "/v1/marginal", func(t *testing.T, s *Multi) *httptest.ResponseRecorder {
			return get(t, s, "/v1/marginal?attrs=0,4,8")
		}},
		{"POST", "/v1/marginals", func(t *testing.T, s *Multi) *httptest.ResponseRecorder {
			return postMarginals(t, s, "/v1/marginals", map[string]interface{}{
				"queries": []map[string]interface{}{{"attrs": []int{0, 4, 8}}},
			})
		}},
	}
	for _, rt := range routes {
		t.Run(rt.name, func(t *testing.T) {
			_, counting, _ := cachedTestSetup(t)
			tel := telemetry.NewRegistry()
			cq := NewCachedQuerier(counting, qcache.NewShared(1024, 16<<20, nil, NewMetrics(tel).CacheCounters(DefaultRelease)))
			var logBuf bytes.Buffer
			s := serveOne(cq, Options{
				Telemetry: tel,
				SlowQuery: time.Nanosecond, // everything is slow: exercises the counter + log line
				Logger:    log.New(&logBuf, "", 0),
			})
			s.tel.WatchCacheGauges(DefaultRelease, func() (qcache.Stats, bool) { return cq.cache.Stats(), true })

			for i := 0; i < 2; i++ { // one miss, one hit
				if rec := rt.query(t, s); rec.Code != http.StatusOK {
					t.Fatalf("marginal status = %d: %s", rec.Code, rec.Body.String())
				}
			}
			if rec := get(t, s, "/v1/stats"); rec.Code != http.StatusOK {
				t.Fatalf("stats status = %d", rec.Code)
			}

			fams := scrape(t, s)
			checks := []struct {
				family, sample string
				labels         map[string]string
				min            float64
			}{
				{"priview_http_requests_total", "priview_http_requests_total", map[string]string{"route": rt.route, "status": "2xx"}, 2},
				{"priview_http_requests_total", "priview_http_requests_total", map[string]string{"route": "/v1/stats", "status": "2xx"}, 1},
				{"priview_http_request_seconds", "priview_http_request_seconds_count", map[string]string{"route": rt.route, "status": "2xx"}, 2},
				{"priview_qcache_hits_total", "priview_qcache_hits_total", map[string]string{"release": "default"}, 1},
				{"priview_qcache_misses_total", "priview_qcache_misses_total", map[string]string{"release": "default"}, 1},
				{"priview_qcache_entries", "priview_qcache_entries", map[string]string{"release": "default"}, 1},
				{"priview_solve_seconds", "priview_solve_seconds_count", map[string]string{"method": "CME"}, 1},
				{"priview_stage_seconds", "priview_stage_seconds_count", map[string]string{"stage": "reconstruct.cme"}, 1},
				{"priview_stage_seconds", "priview_stage_seconds_count", map[string]string{"stage": "cache.fill"}, 1},
				{"priview_stage_seconds", "priview_stage_seconds_count", map[string]string{"stage": "cache.hit"}, 1},
				{"priview_admission_admitted_total", "priview_admission_admitted_total", nil, 2},
				{"priview_admission_limit", "priview_admission_limit", nil, 1},
				{"priview_slow_queries_total", "priview_slow_queries_total", nil, 2},
			}
			for _, c := range checks {
				if v := sampleValue(t, fams, c.family, c.sample, c.labels); v < c.min {
					t.Errorf("%s%v = %v, want ≥ %v", c.sample, c.labels, v, c.min)
				}
			}
			if !strings.Contains(logBuf.String(), "slow-query route="+rt.route+" ") {
				t.Errorf("slow-query log line missing; log = %q", logBuf.String())
			}
			if !strings.Contains(logBuf.String(), "stages=[") {
				t.Errorf("slow-query line has no stage breakdown; log = %q", logBuf.String())
			}
		})
	}
}

// TestMetricsSharedRegistry pins the idempotence NewMetrics documents:
// two hubs over one registry resolve to the same underlying series, so
// priview-serve can hand the registry layer a hub without
// double-registering the families the router already owns.
func TestMetricsSharedRegistry(t *testing.T) {
	reg := telemetry.NewRegistry()
	m1, m2 := NewMetrics(reg), NewMetrics(reg)
	m1.slowQueries.Inc()
	m2.slowQueries.Inc()
	fams := scrape(t, reg.Handler())
	if v := sampleValue(t, fams, "priview_slow_queries_total", "priview_slow_queries_total", nil); v != 2 {
		t.Errorf("shared counter = %v, want 2 (registration not idempotent)", v)
	}
}

// TestWarmProgressGauges runs a real warm pass through the progress
// hooks and checks the gauges land where the pass's own return values
// say they should, with the in-progress flag cleared.
func TestWarmProgressGauges(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := NewMetrics(reg)
	cq, _, _ := cachedTestSetup(t)

	wp := m.WarmProgress("default")
	wp.Begin()
	if v := sampleValue(t, scrape(t, reg.Handler()), "priview_cache_warm_in_progress", "priview_cache_warm_in_progress", map[string]string{"release": "default"}); v != 1 {
		t.Errorf("in_progress mid-pass = %v, want 1", v)
	}
	warmed, skipped, err := cq.Warm(context.Background(), core.AllKWay(9, 2, cq.DefaultMethod()), 2, wp.Update)
	if err != nil {
		t.Fatal(err)
	}
	wp.End(warmed, skipped)

	fams := scrape(t, reg.Handler())
	if v := sampleValue(t, fams, "priview_cache_warm_warmed", "priview_cache_warm_warmed", map[string]string{"release": "default"}); v != float64(warmed) {
		t.Errorf("warm_warmed = %v, want %d", v, warmed)
	}
	if v := sampleValue(t, fams, "priview_cache_warm_skipped", "priview_cache_warm_skipped", map[string]string{"release": "default"}); v != float64(skipped) {
		t.Errorf("warm_skipped = %v, want %d", v, skipped)
	}
	if v := sampleValue(t, fams, "priview_cache_warm_in_progress", "priview_cache_warm_in_progress", map[string]string{"release": "default"}); v != 0 {
		t.Errorf("in_progress after End = %v, want 0", v)
	}
	if warmed == 0 {
		t.Error("warm pass cached nothing; gauge assertions are vacuous")
	}
}

// TestMultiMetricsEndpoint confirms the multi-tenant router mounts the
// same scrape surface (the resolver is nil-traffic here; route-level
// families must still expose and parse).
func TestMultiMetricsEndpoint(t *testing.T) {
	m := NewMulti(&fakeResolver{ready: true}, "", Options{})
	fams := scrape(t, m)
	for _, fam := range []string{
		"priview_http_requests_total",
		"priview_qcache_hits_total",
		"priview_solve_seconds",
		"priview_admission_admitted_total",
	} {
		if fams[fam] == nil {
			t.Errorf("family %s missing from multi-tenant /metrics", fam)
		}
	}
}
