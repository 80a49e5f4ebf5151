package telemetry

import (
	"math"
	"strings"
	"testing"
)

// TestExpositionGolden pins the exact rendered text: HELP/TYPE headers,
// label escaping, cumulative histogram buckets with +Inf, _sum/_count,
// and deterministic ordering (families by name, children by label
// tuple). Any formatting drift shows up as a diff here before it shows
// up in a Prometheus scrape.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("priview_qcache_hits_total", "Cache lookups answered from a stored table.", "release")
	v.With("beta").Add(2)
	v.With("alpha").Add(9) // rendered before beta: children sort by label value
	r.Gauge("priview_admission_limit", "Fixed admission concurrency limit.").Set(16)
	r.Counter("priview_a_first_total", "Sorts first.").Add(1)
	esc := r.CounterVec("priview_escape_total", "Help with \\ backslash\nand newline.", "path")
	esc.With("a\\b\"c\nd").Inc()
	h := r.Histogram("priview_solve_seconds", "Solve latency.", []float64{0.01, 0.1, 1})
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(0.05)
	h.Observe(42)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	const want = `# HELP priview_a_first_total Sorts first.
# TYPE priview_a_first_total counter
priview_a_first_total 1
# HELP priview_admission_limit Fixed admission concurrency limit.
# TYPE priview_admission_limit gauge
priview_admission_limit 16
# HELP priview_escape_total Help with \\ backslash\nand newline.
# TYPE priview_escape_total counter
priview_escape_total{path="a\\b\"c\nd"} 1
# HELP priview_qcache_hits_total Cache lookups answered from a stored table.
# TYPE priview_qcache_hits_total counter
priview_qcache_hits_total{release="alpha"} 9
priview_qcache_hits_total{release="beta"} 2
# HELP priview_solve_seconds Solve latency.
# TYPE priview_solve_seconds histogram
priview_solve_seconds_bucket{le="0.01"} 1
priview_solve_seconds_bucket{le="0.1"} 3
priview_solve_seconds_bucket{le="1"} 3
priview_solve_seconds_bucket{le="+Inf"} 4
priview_solve_seconds_sum 42.105
priview_solve_seconds_count 4
`
	if got := sb.String(); got != want {
		t.Fatalf("exposition drifted.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestParseRejects exercises the parser's strictness — these are the
// malformations the chaos-lane round-trip is promising to catch.
func TestParseRejects(t *testing.T) {
	cases := map[string]string{
		"sample without family": "orphan_total 1\n",
		"TYPE without HELP":     "# TYPE x counter\nx 1\n",
		"unknown TYPE":          "# HELP x h\n# TYPE x ring\nx 1\n",
		"duplicate sample":      "# HELP x h\n# TYPE x counter\nx 1\nx 2\n",
		"missing value":         "# HELP x h\n# TYPE x counter\nx\n",
		"bad escape":            "# HELP x h\n# TYPE x counter\nx{l=\"a\\q\"} 1\n",
		"unterminated label":    "# HELP x h\n# TYPE x counter\nx{l=\"a} 1\n",
		"non-cumulative buckets": "# HELP h h\n# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n",
		"no +Inf bucket": "# HELP h h\n# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
		"count mismatch": "# HELP h h\n# TYPE h histogram\n" +
			"h_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 4\n",
	}
	for name, in := range cases {
		if _, err := ParseText(strings.NewReader(in)); err == nil {
			t.Errorf("%s: parser accepted malformed input:\n%s", name, in)
		}
	}
}

// TestParseAcceptsOwnOutput is the minimal contract: an empty registry
// and a NaN gauge still render to parseable text.
func TestParseAcceptsEdgeValues(t *testing.T) {
	r := NewRegistry()
	r.Gauge("pv_inf", "inf").Set(math.Inf(1))
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "pv_inf +Inf\n") {
		t.Fatalf("infinity rendering: %q", sb.String())
	}
	if _, err := ParseText(strings.NewReader(sb.String())); err != nil {
		t.Fatalf("own output rejected: %v", err)
	}
}
