package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"priview/internal/core"
	"priview/internal/marginal"
)

func TestClientRoundTrip(t *testing.T) {
	s, syn := testServer(t)
	ts := httptest.NewServer(s)
	defer ts.Close()
	c := NewClient(ts.URL, nil, RetryPolicy{})
	ctx := context.Background()

	info, err := c.InfoContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if info.D != 9 || info.Design != "C2(6,3)" {
		t.Errorf("info = %+v", info)
	}

	got, err := c.MarginalsContext(ctx, []core.BatchRequest{{Attrs: []int{0, 4, 8}}})
	if err != nil {
		t.Fatal(err)
	}
	want := syn.Query([]int{0, 4, 8})
	if got[0].Err != nil || !marginal.Equal(got[0].Table, want, 1e-9) {
		t.Errorf("client marginal differs from direct query (err %v)", got[0].Err)
	}

	if _, err := c.MarginalsContext(ctx, []core.BatchRequest{{Attrs: []int{0, 5}, Method: core.CLN}}); err != nil {
		t.Errorf("CLN via client: %v", err)
	}
}

func TestClientErrorSurface(t *testing.T) {
	s, _ := testServer(t)
	ts := httptest.NewServer(s)
	defer ts.Close()
	c := NewClient(ts.URL+"/", nil, RetryPolicy{}) // trailing slash handled
	ctx := context.Background()

	if _, err := c.MarginalsContext(ctx, []core.BatchRequest{{Attrs: []int{0, 99}}}); err == nil {
		t.Error("out-of-range attribute did not error")
	}
	// CME-dual is an in-process ablation; the server refuses it.
	if _, err := c.MarginalsContext(ctx, []core.BatchRequest{{Attrs: []int{0}, Method: core.CMEDual}}); err == nil {
		t.Error("unserved method did not error")
	}
}

func TestClientAgainstDeadServer(t *testing.T) {
	c := NewClient("http://127.0.0.1:1", nil, RetryPolicy{}) // nothing listens on port 1
	if _, err := c.InfoContext(context.Background()); err == nil {
		t.Error("expected connection error")
	}
}

func TestNilClientGetsDefaultTimeout(t *testing.T) {
	c := NewClient("http://example.invalid", nil, RetryPolicy{})
	if c.hc.Timeout != DefaultClientTimeout {
		t.Errorf("nil-client default timeout = %v, want %v (http.DefaultClient would hang forever)", c.hc.Timeout, DefaultClientTimeout)
	}
	custom := &http.Client{Timeout: time.Second}
	if got := NewClient("http://example.invalid", custom, RetryPolicy{}); got.hc != custom {
		t.Error("explicit client replaced")
	}
}

func TestRetryableStatus(t *testing.T) {
	for code, want := range map[int]bool{
		http.StatusOK:                  false,
		http.StatusBadRequest:          false,
		http.StatusNotFound:            false,
		http.StatusTooManyRequests:     true,
		http.StatusInternalServerError: true,
		http.StatusBadGateway:          true,
		http.StatusServiceUnavailable:  true,
		http.StatusGatewayTimeout:      true,
	} {
		if got := retryableStatus(code); got != want {
			t.Errorf("retryableStatus(%d) = %v, want %v", code, got, want)
		}
	}
}

func TestParseRetryAfter(t *testing.T) {
	now := time.Date(2015, 10, 21, 7, 28, 0, 0, time.UTC)
	for raw, want := range map[string]time.Duration{
		"":      0,
		"2":     2 * time.Second,
		" 10 ":  10 * time.Second,
		"-1":    0,
		"soon":  0,
		"86400": retryAfterCap, // delay-seconds clamped to the cap
		// HTTP-date form, measured against now.
		"Wed, 21 Oct 2015 07:28:05 GMT": 5 * time.Second,
		"Wed, 21 Oct 2015 07:27:00 GMT": 0,             // already past
		"Thu, 22 Oct 2015 07:28:00 GMT": retryAfterCap, // clamped
		"Wed, 99 Oct 2015 07:28:00 GMT": 0,             // malformed date
	} {
		if got := parseRetryAfter(raw, now); got != want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", raw, got, want)
		}
	}
}

func TestBackoffGrowsAndHonorsHint(t *testing.T) {
	c := NewClient("http://example.invalid", nil, RetryPolicy{
		BaseDelay: 100 * time.Millisecond,
		MaxDelay:  time.Second,
		Seed:      3,
	})
	// No hint: jittered exponential within [base/2^1 .. max).
	for attempt := 1; attempt <= 6; attempt++ {
		d := c.backoff(attempt, 0)
		full := 100 * time.Millisecond << uint(attempt-1)
		if full > time.Second {
			full = time.Second
		}
		if d < full/2 || d >= full+time.Millisecond {
			t.Errorf("attempt %d: backoff %v outside [%v, %v)", attempt, d, full/2, full)
		}
	}
	// A server hint overrides the computed backoff...
	if d := c.backoff(1, 3*time.Second); d != 3*time.Second {
		t.Errorf("hinted backoff = %v, want 3s", d)
	}
	// ...but absurd hints are capped.
	if d := c.backoff(1, time.Hour); d != retryAfterCap {
		t.Errorf("capped hinted backoff = %v, want %v", d, retryAfterCap)
	}
}

func TestJitterDeterministicPerSeed(t *testing.T) {
	seq := func(seed uint64) []time.Duration {
		c := NewClient("http://example.invalid", nil, RetryPolicy{Seed: seed})
		out := make([]time.Duration, 8)
		for i := range out {
			out[i] = c.backoff(2, 0)
		}
		return out
	}
	a, b := seq(5), seq(5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at draw %d: %v vs %v", i, a[i], b[i])
		}
	}
}
