// Resilience tests: the failure model of the serving path, driven by
// the fault-injection harness in internal/chaos. External test package
// so it can import chaos (which itself imports server for the Querier
// interface).
package server_test

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"priview/internal/admission"
	"priview/internal/chaos"
	"priview/internal/core"
	"priview/internal/covering"
	"priview/internal/dataset/synth"
	"priview/internal/marginal"
	"priview/internal/noise"
	"priview/internal/server"
)

func buildSynopsis(t *testing.T) *core.Synopsis {
	t.Helper()
	data := synth.MSNBC(2000, 5)
	dg := covering.Groups(9, 6)
	return core.BuildSynopsis(data, core.Config{Epsilon: 1, Design: dg}, noise.NewStream(17))
}

// quietLogger keeps expected panic stacks and query failures out of the
// test output.
func quietLogger() *log.Logger { return log.New(io.Discard, "", 0) }

// serve serves syn as priview-serve -synopsis does (chaos.ServeSynopsis:
// a snapshot file loaded and audited once through registry.Single, no
// query cache); wrap, when non-nil, builds the served querier from the
// loaded synopsis.
func serve(t *testing.T, syn *core.Synopsis, wrap func(server.Querier) server.Querier, opt server.Options) *server.Multi {
	t.Helper()
	s, err := chaos.ServeSynopsis(t.TempDir(), syn, wrap, opt)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestQueryTimeoutReturns504: a synopsis slower than the per-request
// deadline must surface as 504, within the deadline's order of
// magnitude — not after the solver's full iteration budget.
func TestQueryTimeoutReturns504(t *testing.T) {
	slow := func(q server.Querier) server.Querier { return &chaos.SlowSynopsis{Querier: q, Delay: 10 * time.Second} }
	s := serve(t, buildSynopsis(t), slow, server.Options{
		QueryTimeout: 30 * time.Millisecond,
		Logger:       quietLogger(),
	})
	start := time.Now()
	req := httptest.NewRequest(http.MethodGet, "/v1/marginal?attrs=0,4,8", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504; body %q", rec.Code, rec.Body.String())
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("timeout fired after %v; deadline not enforced", elapsed)
	}
}

// parkedQuerier closes arrived when the first query reaches it, then
// parks every query until release is closed — a deterministic way to
// hold server capacity occupied.
type parkedQuerier struct {
	server.Querier
	arrived chan struct{}
	release chan struct{}
	once    sync.Once
}

func (p *parkedQuerier) QueryBatch(ctx context.Context, reqs []core.BatchRequest, opt core.BatchOptions) ([]core.BatchResult, error) {
	p.once.Do(func() { close(p.arrived) })
	select {
	case <-p.release:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return p.Querier.QueryBatch(ctx, reqs, opt)
}

// TestLoadSheddingReturns429: with an admission limit of 1 and a queue
// of 1, a request parked inside the handler and a second one waiting in
// the queue, the next request is shed immediately with 429 and a
// Retry-After hint; once the parked request completes, capacity frees
// up.
func TestLoadSheddingReturns429(t *testing.T) {
	parked := &parkedQuerier{arrived: make(chan struct{}), release: make(chan struct{})}
	park := func(q server.Querier) server.Querier { parked.Querier = q; return parked }
	s := serve(t, buildSynopsis(t), park, server.Options{
		Admission: admission.Config{Limit: 1, MaxQueue: 1},
		Logger:    quietLogger(),
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
	case <-parked.arrived:
		// Capacity 1 is now provably consumed.
	case <-time.After(10 * time.Second):
		t.Fatal("first request never reached the synopsis")
	}
	go bgGet("/v1/marginal?attrs=1,2")
	waitForQueueDepth(t, ts.URL, 1)

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
		t.Fatalf("saturated request: status %d, want 429; body %q", resp.StatusCode, body)
	}
	// The 1s base scales with queue depth: one waiter per slot doubles it.
	if got := resp.Header.Get("Retry-After"); got != "2" {
		t.Errorf("Retry-After = %q, want \"2\"", got)
	}
	if !strings.Contains(string(body), "overloaded") {
		t.Errorf("shed body = %q", body)
	}

	close(parked.release)
	for i := 0; i < 2; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Errorf("parked/queued request %d: status %d", i, code)
		}
	}
	// Capacity released: a fresh request is admitted again.
	resp2, err := http.Get(ts.URL + "/v1/marginal?attrs=4,5")
	if err != nil {
		t.Fatal(err)
	}
	if err := resp2.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("post-shed request: status %d", resp2.StatusCode)
	}
}

// waitForQueueDepth polls the router's admission snapshot on
// /v1/releases until the admission queue holds depth waiters.
func waitForQueueDepth(t *testing.T, base string, depth int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/releases")
		if err != nil {
			t.Fatal(err)
		}
		var stats struct {
			Admission struct {
				QueueDepth int `json:"queue_depth"`
			} `json:"admission"`
		}
		err = json.NewDecoder(resp.Body).Decode(&stats)
		if cerr := resp.Body.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatal(err)
		}
		if stats.Admission.QueueDepth == depth {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("admission queue never reached depth %d", depth)
}

// panicQuerier simulates an internal failure inside reconstruction.
type panicQuerier struct{ server.Querier }

func (panicQuerier) QueryBatch(context.Context, []core.BatchRequest, core.BatchOptions) ([]core.BatchResult, error) {
	panic("core: synthetic reconstruction failure")
}

// TestPanicReturns500: internal panics are server bugs and must report
// as 500, never as the 400 "query failed" the old handler produced.
func TestPanicReturns500(t *testing.T) {
	boom := func(q server.Querier) server.Querier { return panicQuerier{q} }
	s := serve(t, buildSynopsis(t), boom, server.Options{Logger: quietLogger()})
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/marginal?attrs=0,1", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panic surfaced as %d, want 500; body %q", rec.Code, rec.Body.String())
	}
	if strings.Contains(rec.Body.String(), "query failed") {
		t.Error("panic mislabeled with the old 400-path message")
	}
}

// TestValidationStays400: the 400 path is reserved for input errors and
// must be unaffected by the failure-model middleware.
func TestValidationStays400(t *testing.T) {
	s := serve(t, buildSynopsis(t), nil, server.Options{
		QueryTimeout: time.Second,
		Admission:    admission.Config{Limit: 4, MaxQueue: 4},
		Logger:       quietLogger(),
	})
	for _, path := range []string{
		"/v1/marginal",
		"/v1/marginal?attrs=0,x",
		"/v1/marginal?attrs=0,99",
		"/v1/marginal?attrs=0&method=nope",
	} {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", path, rec.Code)
		}
	}
}

// TestHealthzDraining: the liveness probe flips to 503 while draining
// and back once draining is cleared.
func TestHealthzDraining(t *testing.T) {
	s := serve(t, buildSynopsis(t), nil, server.Options{})
	probe := func() int {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
		return rec.Code
	}
	if code := probe(); code != http.StatusOK {
		t.Fatalf("healthy probe = %d", code)
	}
	s.SetDraining(true)
	if code := probe(); code != http.StatusServiceUnavailable {
		t.Fatalf("draining probe = %d, want 503", code)
	}
	s.SetDraining(false)
	if code := probe(); code != http.StatusOK {
		t.Fatalf("recovered probe = %d", code)
	}
}

// TestClientRecoversFromInjectedFaults is the retry acceptance test:
// with the chaos transport failing roughly a third of requests at the
// connection level, the retrying client still completes every query,
// and the transport's counters prove faults were actually injected.
func TestClientRecoversFromInjectedFaults(t *testing.T) {
	s := serve(t, buildSynopsis(t), nil, server.Options{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	tr := chaos.NewTransport(99)
	tr.Base = ts.Client().Transport
	tr.ErrProb = 0.35
	c := server.NewClient(ts.URL, &http.Client{Transport: tr}, server.RetryPolicy{
		MaxAttempts: 6,
		BaseDelay:   time.Millisecond,
		Seed:        7,
	})
	reqs := []core.BatchRequest{{Attrs: []int{0, 4, 8}}}
	for i := 0; i < 20; i++ {
		if _, err := c.MarginalsContext(context.Background(), reqs); err != nil {
			t.Fatalf("query %d not recovered: %v", i, err)
		}
	}
	counts := tr.Counts()
	if counts.Errors == 0 {
		t.Error("chaos transport injected nothing; test proves nothing")
	}
	if counts.Forwards < 20 {
		t.Errorf("only %d requests reached the server for 20 queries", counts.Forwards)
	}
}

// TestClientRecoversFromInjectedStatuses: transient 503s with a
// Retry-After hint are retried and eventually succeed.
func TestClientRecoversFromInjectedStatuses(t *testing.T) {
	var mu sync.Mutex
	failures := 2
	s := serve(t, buildSynopsis(t), nil, server.Options{})
	flaky := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		shouldFail := failures > 0
		if shouldFail {
			failures--
		}
		mu.Unlock()
		if shouldFail {
			w.Header().Set("Retry-After", "0")
			http.Error(w, "transient", http.StatusServiceUnavailable)
			return
		}
		s.ServeHTTP(w, r)
	})
	ts := httptest.NewServer(flaky)
	defer ts.Close()

	c := server.NewClient(ts.URL, nil, server.RetryPolicy{
		MaxAttempts: 4,
		BaseDelay:   time.Millisecond,
	})
	if _, err := c.InfoContext(context.Background()); err != nil {
		t.Fatalf("client did not recover from 2 transient 503s: %v", err)
	}
}

// TestClientDoesNotRetryPermanentErrors: a 400 reflects the request
// itself; retrying would waste capacity and hide the bug.
func TestClientDoesNotRetryPermanentErrors(t *testing.T) {
	var mu sync.Mutex
	hits := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		mu.Lock()
		hits++
		mu.Unlock()
		http.Error(w, "bad attrs", http.StatusBadRequest)
	}))
	defer ts.Close()
	c := server.NewClient(ts.URL, nil, server.RetryPolicy{
		MaxAttempts: 5,
		BaseDelay:   time.Millisecond,
	})
	if _, err := c.MarginalsContext(context.Background(), []core.BatchRequest{{Attrs: []int{0}}}); err == nil {
		t.Fatal("400 did not surface as an error")
	}
	mu.Lock()
	defer mu.Unlock()
	if hits != 1 {
		t.Errorf("client retried a permanent 400: %d attempts", hits)
	}
}

// TestClientContextBoundsRetries: the caller's deadline caps the whole
// retry loop, backoff sleeps included.
func TestClientContextBoundsRetries(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "always down", http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	c := server.NewClient(ts.URL, nil, server.RetryPolicy{
		MaxAttempts: 1000,
		BaseDelay:   50 * time.Millisecond,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.InfoContext(ctx)
	if err == nil {
		t.Fatal("expected failure against an always-down server")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want context.DeadlineExceeded in chain", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("retry loop ignored ctx: ran %v", elapsed)
	}
}

// TestEndToEndResilience is the acceptance scenario in one piece: a
// slow synopsis behind a deadline-armed server surfaces 504 to a
// chaos-afflicted retrying client — which classifies it as retryable,
// keeps trying, and succeeds as soon as the synopsis speeds up.
func TestEndToEndResilience(t *testing.T) {
	syn := buildSynopsis(t)
	var mu sync.Mutex
	slowRequests := 2
	flip := func(q server.Querier) server.Querier {
		return &flipQuerier{fast: q, slow: &chaos.SlowSynopsis{Querier: q, Delay: 10 * time.Second}, slowLeft: &slowRequests, mu: &mu}
	}
	gate := serve(t, syn, flip, server.Options{QueryTimeout: 25 * time.Millisecond, Logger: quietLogger()})
	ts := httptest.NewServer(gate)
	defer ts.Close()

	c := server.NewClient(ts.URL, nil, server.RetryPolicy{
		MaxAttempts: 5,
		BaseDelay:   time.Millisecond,
	})
	got, err := c.MarginalsContext(context.Background(), []core.BatchRequest{{Attrs: []int{0, 4, 8}}})
	if err != nil {
		t.Fatalf("client did not ride out 2 deadline-exceeded queries: %v", err)
	}
	want := syn.Query([]int{0, 4, 8})
	if !marginal.Equal(got[0].Table, want, 1e-9) {
		t.Error("recovered answer differs from direct query")
	}
}

// flipQuerier serves the first N queries from the slow synopsis, the
// rest from the fast one.
type flipQuerier struct {
	fast, slow server.Querier
	slowLeft   *int
	mu         *sync.Mutex
}

func (f *flipQuerier) QueryBatch(ctx context.Context, reqs []core.BatchRequest, opt core.BatchOptions) ([]core.BatchResult, error) {
	f.mu.Lock()
	useSlow := *f.slowLeft > 0
	if useSlow {
		*f.slowLeft--
	}
	f.mu.Unlock()
	if useSlow {
		return f.slow.QueryBatch(ctx, reqs, opt)
	}
	return f.fast.QueryBatch(ctx, reqs, opt)
}
func (f *flipQuerier) DefaultMethod() core.ReconstructMethod { return f.fast.DefaultMethod() }
func (f *flipQuerier) Epsilon() float64                      { return f.fast.Epsilon() }
func (f *flipQuerier) Total() float64                        { return f.fast.Total() }
func (f *flipQuerier) Views() []*marginal.Table              { return f.fast.Views() }
func (f *flipQuerier) Design() *covering.Design              { return f.fast.Design() }
