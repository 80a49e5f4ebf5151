package main

import (
	"math"
	"strings"
	"testing"
)

func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func TestVerdicts(t *testing.T) {
	// Ten runs with a 2% interquartile spread around 100.
	base := []float64{99, 99.5, 100, 100.5, 101, 99, 99.5, 100, 100.5, 101}
	wide := []float64{80, 90, 100, 110, 120, 80, 90, 100, 110, 120}
	for _, tc := range []struct {
		name         string
		base, change []float64
		higherBetter bool
		want         string
	}{
		{"same runs", base, base, false, "unchanged"},
		{"5% slower, within the 10% bound", base, scaled(base, 1.05), false, "unchanged"},
		{"15% slower", base, scaled(base, 1.15), false, "regressed"},
		{"15% faster", base, scaled(base, 0.85), false, "improved"},
		{"15% less throughput", base, scaled(base, 0.85), true, "regressed"},
		{"15% more throughput", base, scaled(base, 1.15), true, "improved"},
		{"spread wider than the bound", wide, scaled(wide, 1.05), false, "unresolved"},
		{"spread wider than the bound, every run better", wide, scaled(wide, 0.5), false, "improved"},
	} {
		if got := verdict(tc.base, tc.change, 0.1, tc.higherBetter); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

// Two scrapes of a server that answered 10 single queries between them:
// 4 cache hits and 6 solves.
const scrapeBefore = `# HELP priview_http_request_seconds HTTP request serving latency, by route pattern and status class.
# TYPE priview_http_request_seconds histogram
priview_http_request_seconds_bucket{route="/v1/marginal",status="2xx",le="+Inf"} 2
priview_http_request_seconds_sum{route="/v1/marginal",status="2xx"} 0.004
priview_http_request_seconds_count{route="/v1/marginal",status="2xx"} 2
# HELP priview_solve_seconds Completed marginal solve latency.
# TYPE priview_solve_seconds histogram
priview_solve_seconds_bucket{method="CME",le="+Inf"} 1
priview_solve_seconds_sum{method="CME"} 0.003
priview_solve_seconds_count{method="CME"} 1
# HELP priview_stage_seconds Per-stage serving latency.
# TYPE priview_stage_seconds histogram
priview_stage_seconds_bucket{stage="cache.hit",le="+Inf"} 1
priview_stage_seconds_sum{stage="cache.hit"} 0.000001
priview_stage_seconds_count{stage="cache.hit"} 1
# HELP priview_qcache_hits_total Query-cache lookups answered from a stored table.
# TYPE priview_qcache_hits_total counter
priview_qcache_hits_total{release="default"} 1
# HELP priview_qcache_misses_total Query-cache lookups that ran a solve.
# TYPE priview_qcache_misses_total counter
priview_qcache_misses_total{release="default"} 1
`

const scrapeAfter = `# HELP priview_http_request_seconds HTTP request serving latency, by route pattern and status class.
# TYPE priview_http_request_seconds histogram
priview_http_request_seconds_bucket{route="/v1/marginal",status="2xx",le="+Inf"} 12
priview_http_request_seconds_sum{route="/v1/marginal",status="2xx"} 0.024
priview_http_request_seconds_count{route="/v1/marginal",status="2xx"} 12
# HELP priview_solve_seconds Completed marginal solve latency.
# TYPE priview_solve_seconds histogram
priview_solve_seconds_bucket{method="CME",le="+Inf"} 7
priview_solve_seconds_sum{method="CME"} 0.015
priview_solve_seconds_count{method="CME"} 7
# HELP priview_stage_seconds Per-stage serving latency.
# TYPE priview_stage_seconds histogram
priview_stage_seconds_bucket{stage="cache.hit",le="+Inf"} 5
priview_stage_seconds_sum{stage="cache.hit"} 0.000009
priview_stage_seconds_count{stage="cache.hit"} 5
# HELP priview_qcache_hits_total Query-cache lookups answered from a stored table.
# TYPE priview_qcache_hits_total counter
priview_qcache_hits_total{release="default"} 5
# HELP priview_qcache_misses_total Query-cache lookups that ran a solve.
# TYPE priview_qcache_misses_total counter
priview_qcache_misses_total{release="default"} 7
`

func TestMetricsDiffOnCannedScrape(t *testing.T) {
	before, err := parseScrape(strings.NewReader(scrapeBefore))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseScrape(strings.NewReader(scrapeAfter))
	if err != nil {
		t.Fatal(err)
	}
	tot := &serveTotals{route: "/v1/marginal"}
	tot.observe(before, after, 0)
	v := tot.values()
	for name, want := range map[string]float64{
		"server.handler_mean_ms": 2,   // 20 ms over 10 requests
		"server.self_mean_ms":    0.8, // (20 − 12 ms of solving) / 10
		"qcache.hits":            4,
		"qcache.misses":          6,
		"qcache.lookups":         10,
		"qcache.hit_ratio":       0.4,
		"qcache.hit_mean_us":     2,
		"core.batch_busy_ratio":  0, // no batch route
	} {
		if math.Abs(v[name]-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, v[name], want)
		}
	}
}
