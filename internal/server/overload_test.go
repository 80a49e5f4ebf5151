// Overload-control tests: the admission path, the deadline
// gate fed by propagated client budgets, brownout degradation, and the
// client-side halves (deadline header, backoff fast-fail, retry
// budget). Internal package so the tests can reach the controller and
// brownout state directly instead of sleeping and hoping.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"priview/internal/admission"
	"priview/internal/core"
	"priview/internal/qcache"
)

func discardLogger() *log.Logger { return log.New(io.Discard, "", 0) }

func TestRetryAfterSecondsRoundsUp(t *testing.T) {
	for d, want := range map[time.Duration]string{
		-time.Second:            "1",
		0:                       "1",
		time.Nanosecond:         "1", // sub-second must round up, never "0"
		time.Millisecond:        "1",
		500 * time.Millisecond:  "1",
		time.Second:             "1",
		1001 * time.Millisecond: "2",
		1500 * time.Millisecond: "2",
		2 * time.Second:         "2",
		2500 * time.Millisecond: "3",
	} {
		if got := retryAfterSeconds(d); got != want {
			t.Errorf("retryAfterSeconds(%v) = %q, want %q", d, got, want)
		}
	}
}

func TestParseDeadlineMs(t *testing.T) {
	for raw, want := range map[string]time.Duration{
		"":             0, // absent → run under the server's own timeout
		"abc":          0,
		"-5":           0,
		"0":            0,
		"1.5":          0,
		"250":          250 * time.Millisecond,
		" 250 ":        250 * time.Millisecond,
		"999999999999": maxPropagatedDeadline, // hostile header capped
	} {
		d, ok := parseDeadlineMs(raw)
		if want == 0 {
			if ok {
				t.Errorf("parseDeadlineMs(%q) = %v, ok; want rejected", raw, d)
			}
			continue
		}
		if !ok || d != want {
			t.Errorf("parseDeadlineMs(%q) = %v, %v; want %v, true", raw, d, ok, want)
		}
	}
}

// holdQuerier passes queries through until hold is set, then parks each
// one (signaling arrived) until release closes — deterministic occupancy
// of admission slots.
type holdQuerier struct {
	Querier
	hold    atomic.Bool
	arrived chan struct{} // buffered; one signal per parked query
	release chan struct{}
}

func (h *holdQuerier) QueryBatch(ctx context.Context, reqs []core.BatchRequest, opt core.BatchOptions) ([]core.BatchResult, error) {
	if h.hold.Load() {
		select {
		case h.arrived <- struct{}{}:
		default:
		}
		select {
		case <-h.release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return h.Querier.QueryBatch(ctx, reqs, opt)
}

// releasesAdmission reads the router's admission snapshot from
// /v1/releases.
func releasesAdmission(t *testing.T, s *Multi) admission.Stats {
	t.Helper()
	var resp releasesResponse
	if err := json.Unmarshal(get(t, s, "/v1/releases").Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp.Admission
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestAdaptiveAdmissionQueuesThenSheds: with the controller at limit 1
// and a queue of 1, the first request holds the slot, the second waits
// in the queue, and the third is shed with 429 + Retry-After. Once the
// slot frees, the queued request is admitted.
func TestAdaptiveAdmissionQueuesThenSheds(t *testing.T) {
	_, base := testServer(t)
	hq := &holdQuerier{Querier: base, arrived: make(chan struct{}, 16), release: make(chan struct{})}
	hq.hold.Store(true)
	s := serveOne(hq, Options{
		Logger:    discardLogger(),
		Admission: admission.Config{Limit: 1, MaxQueue: 1},
	})
	ts := httptest.NewServer(s)
	defer ts.Close()

	codes := make(chan int, 2)
	bgGet := func(path string) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			codes <- -1
			return
		}
		//lint:ignore errdiscard test teardown of a drained body
		resp.Body.Close()
		codes <- resp.StatusCode
	}
	go bgGet("/v1/marginal?attrs=0,1")
	select {
	case <-hq.arrived:
	case <-time.After(10 * time.Second):
		t.Fatal("first request never reached the querier")
	}
	go bgGet("/v1/marginal?attrs=1,2")
	waitUntil(t, "second request queued", func() bool { return s.ov.ctrl.Stats().QueueDepth == 1 })

	resp, err := http.Get(ts.URL + "/v1/marginal?attrs=2,3")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("queue-full request: status %d, want 429; body %q", resp.StatusCode, body)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Errorf("Retry-After = %q, want a positive integer", resp.Header.Get("Retry-After"))
	}
	if !strings.Contains(string(body), "overloaded") {
		t.Errorf("shed body = %q", body)
	}

	hq.hold.Store(false)
	close(hq.release)
	for i := 0; i < 2; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Errorf("held/queued request %d: status %d, want 200", i, code)
		}
	}
	st := s.ov.ctrl.Stats()
	if st.Admitted != 2 || st.Shed != 1 {
		t.Errorf("controller stats = %+v, want 2 admitted, 1 shed", st)
	}
}

// TestDeadlineGateFastFails504: once the service-time EWMA knows a
// method's cost, a request whose propagated budget cannot cover it is
// rejected 504 + Retry-After without consuming a solver slot; a request
// with ample budget still runs.
func TestDeadlineGateFastFails504(t *testing.T) {
	_, syn := testServer(t)
	s := serveOne(syn, Options{QueryTimeout: 5 * time.Second, Logger: discardLogger()})
	s.ov.svc.Observe(int(core.CME), 200*time.Millisecond)

	req := httptest.NewRequest(http.MethodGet, "/v1/marginal?attrs=0,1", nil)
	req.Header.Set(DeadlineHeader, "50")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("doomed request: status %d, want 504; body %q", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("504 fast-fail carries no Retry-After")
	}
	if !strings.Contains(rec.Body.String(), "below expected") {
		t.Errorf("fast-fail body = %q", rec.Body.String())
	}

	req = httptest.NewRequest(http.MethodGet, "/v1/marginal?attrs=0,1", nil)
	req.Header.Set(DeadlineHeader, "10000")
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("well-budgeted request: status %d; body %q", rec.Code, rec.Body.String())
	}

	// The deadline gate's rejection is counted on the router's admission
	// block, which /v1/releases serves.
	if a := releasesAdmission(t, s); a.DeadlineRejected != 1 {
		t.Errorf("admission = %+v, want deadline_rejected=1", a)
	}
}

// TestDeadlineHeaderArmsBudget: with no server-side QueryTimeout at
// all, the propagated header alone bounds the request.
func TestDeadlineHeaderArmsBudget(t *testing.T) {
	_, base := testServer(t)
	hq := &holdQuerier{Querier: base, arrived: make(chan struct{}, 1), release: make(chan struct{})}
	hq.hold.Store(true)
	defer close(hq.release)
	s := serveOne(hq, Options{Logger: discardLogger()})

	start := time.Now()
	req := httptest.NewRequest(http.MethodGet, "/v1/marginal?attrs=0,1", nil)
	req.Header.Set(DeadlineHeader, "50")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504; body %q", rec.Code, rec.Body.String())
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("header deadline fired after %v; budget not armed", elapsed)
	}
}

// TestBrownoutServesCacheHitsOnly: under sustained overload the server
// answers cached queries, refuses uncached non-priority queries with
// 503, and routes priority traffic through normal admission.
func TestBrownoutServesCacheHitsOnly(t *testing.T) {
	_, base := testServer(t)
	hq := &holdQuerier{Querier: base, arrived: make(chan struct{}, 16), release: make(chan struct{})}
	cached := NewCachedQuerier(hq, qcache.New(128, 0))
	s := serveOne(cached, Options{
		Logger:    discardLogger(),
		Admission: admission.Config{Limit: 1, MaxQueue: 1},
		Brownout:  &admission.BrownoutConfig{Enter: time.Millisecond, Exit: time.Hour},
	})

	// Warm one key through the normal path before the storm.
	if rec := get(t, s, "/v1/marginal?attrs=0,1"); rec.Code != http.StatusOK {
		t.Fatalf("warmup: status %d; body %q", rec.Code, rec.Body.String())
	}
	hq.hold.Store(true)

	// Occupy the slot and the queue.
	done := make(chan int, 2)
	bgServe := func(path string) {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		done <- rec.Code
	}
	go bgServe("/v1/marginal?attrs=1,2")
	select {
	case <-hq.arrived:
	case <-time.After(10 * time.Second):
		t.Fatal("slot-holding request never reached the querier")
	}
	go bgServe("/v1/marginal?attrs=2,3")
	waitUntil(t, "queue occupied", func() bool { return s.ov.ctrl.Stats().QueueDepth == 1 })

	// Each rejected arrival feeds the brownout detector one overloaded
	// sample; after Enter of sustained signal it engages.
	deadline := time.Now().Add(10 * time.Second)
	for !s.ov.brown.Active() {
		if time.Now().After(deadline) {
			t.Fatal("brownout never engaged")
		}
		if rec := get(t, s, "/v1/marginal?attrs=3,4"); rec.Code != http.StatusTooManyRequests &&
			rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("storm request: status %d; body %q", rec.Code, rec.Body.String())
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Cached key: served even though every slot is taken.
	if rec := get(t, s, "/v1/marginal?attrs=0,1"); rec.Code != http.StatusOK {
		t.Errorf("cached query during brownout: status %d; body %q", rec.Code, rec.Body.String())
	}
	// Uncached key: refused with the brownout 503.
	rec := get(t, s, "/v1/marginal?attrs=4,5")
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "brownout") {
		t.Errorf("uncached query during brownout: status %d; body %q", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("brownout 503 carries no Retry-After")
	}
	// Out-of-range attributes are input errors, not cache misses: they
	// fall through to normal admission — here a full queue, so 429 —
	// exactly as outside brownout, never to the brownout 503.
	for _, path := range []string{"/v1/marginal?attrs=-1,2", "/v1/marginal?attrs=0,9"} {
		if rec := get(t, s, path); rec.Code != http.StatusTooManyRequests {
			t.Errorf("%s during brownout: status %d, want 429 (normal path); body %q", path, rec.Code, rec.Body.String())
		}
	}
	// Priority traffic skips degradation and takes its chances with
	// admission — here, a full queue, so 429 rather than a cache answer.
	req := httptest.NewRequest(http.MethodGet, "/v1/marginal?attrs=0,1", nil)
	req.Header.Set(PriorityHeader, PriorityHigh)
	prioRec := httptest.NewRecorder()
	s.ServeHTTP(prioRec, req)
	if prioRec.Code != http.StatusTooManyRequests {
		t.Errorf("priority query: status %d, want 429 (normal admission); body %q", prioRec.Code, prioRec.Body.String())
	}

	if a := releasesAdmission(t, s); a.BrownoutServed < 1 || a.BrownoutRejected < 1 || !a.BrownoutActive {
		t.Errorf("admission = %+v, want brownout served/rejected counters and active", a)
	}

	hq.hold.Store(false)
	close(hq.release)
	for i := 0; i < 2; i++ {
		if code := <-done; code != http.StatusOK {
			t.Errorf("held/queued request %d: status %d, want 200", i, code)
		}
	}
}

// TestClientBackoffFastFailsBeforeDeadline: a computed backoff longer
// than the remaining context budget fails immediately (wrapping
// context.DeadlineExceeded) instead of sleeping through the budget.
func TestClientBackoffFastFailsBeforeDeadline(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer ts.Close()
	c := NewClient(ts.URL, nil, RetryPolicy{
		MaxAttempts: 5,
		BaseDelay:   5 * time.Second,
		MaxDelay:    10 * time.Second,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.InfoContext(ctx)
	if err == nil {
		t.Fatal("expected error")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("error %v does not wrap context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("fast-fail took %v; client slept through the deadline", elapsed)
	}
	if n := hits.Load(); n != 1 {
		t.Errorf("server saw %d attempts, want 1 (backoff should never have been slept)", n)
	}
}

// TestClientRetryBudgetExhausts: with no successes funding the budget,
// retries stop when the initial burst runs out — bounded amplification
// during an outage.
func TestClientRetryBudgetExhausts(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	c := NewClient(ts.URL, nil, RetryPolicy{
		MaxAttempts: 10,
		BaseDelay:   time.Millisecond,
		MaxDelay:    2 * time.Millisecond,
		RetryBudget: 0.1,
		RetryBurst:  1,
	})
	ctx := context.Background()
	if _, err := c.InfoContext(ctx); !errors.Is(err, ErrRetryBudget) {
		t.Fatalf("first call error = %v, want ErrRetryBudget", err)
	}
	if n := hits.Load(); n != 2 {
		t.Errorf("server saw %d attempts after first call, want 2 (1 try + 1 budgeted retry)", n)
	}
	if _, err := c.InfoContext(ctx); !errors.Is(err, ErrRetryBudget) {
		t.Fatalf("second call error = %v, want ErrRetryBudget", err)
	}
	if n := hits.Load(); n != 3 {
		t.Errorf("server saw %d attempts total, want 3 (budget empty → no retry)", n)
	}
}

// TestClientPropagatesDeadlineAndPriority: every attempt carries the
// remaining context budget and the configured traffic class.
func TestClientPropagatesDeadlineAndPriority(t *testing.T) {
	var deadlineMs, priority atomic.Value
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		deadlineMs.Store(r.Header.Get(DeadlineHeader))
		priority.Store(r.Header.Get(PriorityHeader))
		w.Header().Set("Content-Type", "application/json")
		//lint:ignore errdiscard test handler response
		w.Write([]byte(`{"results":[{"attrs":[0],"method":"CME","total":1,"cells":[0.5,0.5]}]}`))
	}))
	defer ts.Close()

	c := NewClient(ts.URL, nil, RetryPolicy{})
	reqs := []core.BatchRequest{{Attrs: []int{0}}}
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	if _, err := c.MarginalsContext(ctx, reqs); err != nil {
		t.Fatal(err)
	}
	ms, err := strconv.Atoi(deadlineMs.Load().(string))
	if err != nil || ms <= 0 || ms > 500 {
		t.Errorf("propagated deadline = %q, want integer in (0, 500]", deadlineMs.Load())
	}
	if priority.Load().(string) != "" {
		t.Errorf("unexpected priority header %q", priority.Load())
	}

	// No deadline on the context → no header; priority set → sent.
	c.SetPriority(PriorityHigh)
	if _, err := c.MarginalsContext(context.Background(), reqs); err != nil {
		t.Fatal(err)
	}
	if got := deadlineMs.Load().(string); got != "" {
		t.Errorf("deadline header without a context deadline = %q, want empty", got)
	}
	if got := priority.Load().(string); got != PriorityHigh {
		t.Errorf("priority header = %q, want %q", got, PriorityHigh)
	}
}
