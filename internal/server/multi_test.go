package server

import (
	"context"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"priview/internal/admission"
	"priview/internal/core"
)

// fakeResolver resolves a fixed map of releases, optionally failing
// some with a configured error. It counts the acquires that succeed and
// the calls to their release funcs, so tests can check that every
// acquire is released exactly once.
type fakeResolver struct {
	queriers           map[string]Querier
	errs               map[string]error
	ready              bool
	acquired, released atomic.Int64
}

func (f *fakeResolver) Acquire(ctx context.Context, name string) (Querier, func(), error) {
	if err, ok := f.errs[name]; ok {
		return nil, nil, err
	}
	q, ok := f.queriers[name]
	if !ok {
		return nil, nil, ErrUnknownRelease
	}
	f.acquired.Add(1)
	return q, func() { f.released.Add(1) }, nil
}

func (f *fakeResolver) ReleaseStats(name string) (any, error) {
	if _, ok := f.queriers[name]; ok {
		return map[string]string{"name": name}, nil
	}
	if _, ok := f.errs[name]; ok {
		return map[string]string{"name": name}, nil
	}
	return nil, ErrUnknownRelease
}

func (f *fakeResolver) Releases() []string {
	var names []string
	for n := range f.queriers {
		names = append(names, n)
	}
	return names
}

func (f *fakeResolver) Ready() bool { return f.ready }

// serveOne routes q as the one release DefaultRelease, the target of
// the unprefixed routes: the router half of what priview-serve's
// single modes serve through registry.Single.
func serveOne(q Querier, opt Options) *Multi {
	return NewMulti(&fakeResolver{queriers: map[string]Querier{DefaultRelease: q}, ready: true}, DefaultRelease, opt)
}

func newMultiFixture(t *testing.T) (*Multi, *fakeResolver) {
	t.Helper()
	_, _, syn := cachedTestSetup(t)
	res := &fakeResolver{
		queriers: map[string]Querier{"adult-eps1": syn},
		errs:     map[string]error{},
		ready:    true,
	}
	m := NewMulti(res, "adult-eps1", Options{MaxK: 6, Logger: log.New(io.Discard, "", 0)})
	return m, res
}

func multiGet(t *testing.T, m *Multi, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	m.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

func TestMultiRoutesNamedAndLegacy(t *testing.T) {
	m, res := newMultiFixture(t)
	for _, path := range []string{
		"/v1/adult-eps1/marginal?attrs=0,1",
		"/v1/marginal?attrs=0,1", // legacy alias → default release
		"/v1/adult-eps1/info",
		"/v1/info",
		"/v1/adult-eps1/stats",
		"/v1/stats",
	} {
		if rec := multiGet(t, m, path); rec.Code != http.StatusOK {
			t.Errorf("GET %s = %d, want 200: %s", path, rec.Code, rec.Body)
		}
	}
	// Every marginal/info acquire must have been paired with a release.
	if acq, rel := res.acquired.Load(), res.released.Load(); acq != 4 || rel != 4 {
		t.Errorf("%d acquires, %d releases; want 4 of each (stats never acquires)", acq, rel)
	}
}

func TestMultiUnknownRelease(t *testing.T) {
	m, _ := newMultiFixture(t)
	for _, path := range []string{
		"/v1/nonesuch/marginal?attrs=0,1",
		"/v1/nonesuch/info",
		"/v1/nonesuch/stats",
	} {
		if rec := multiGet(t, m, path); rec.Code != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, rec.Code)
		}
	}
}

func TestMultiNoDefaultRelease(t *testing.T) {
	_, _, syn := cachedTestSetup(t)
	res := &fakeResolver{
		queriers: map[string]Querier{"a": syn},
		ready:    true,
	}
	m := NewMulti(res, "", Options{MaxK: 6, Logger: log.New(io.Discard, "", 0)})
	if rec := multiGet(t, m, "/v1/marginal?attrs=0,1"); rec.Code != http.StatusNotFound {
		t.Errorf("legacy route without default = %d, want 404", rec.Code)
	}
	if rec := multiGet(t, m, "/v1/a/marginal?attrs=0,1"); rec.Code != http.StatusOK {
		t.Errorf("named route = %d, want 200", rec.Code)
	}
}

func TestMultiResolutionErrorMapping(t *testing.T) {
	m, res := newMultiFixture(t)
	res.errs["tripped"] = &UnavailableError{Reason: "circuit breaker open", RetryAfter: 7 * time.Second}
	res.errs["hot"] = &SaturatedError{RetryAfter: 2 * time.Second}

	rec := multiGet(t, m, "/v1/tripped/marginal?attrs=0,1")
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("breaker-open release = %d, want 503", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "7" {
		t.Errorf("breaker-open Retry-After = %q, want \"7\"", got)
	}
	if !strings.Contains(rec.Body.String(), "circuit breaker open") {
		t.Errorf("503 body %q does not carry the reason", rec.Body.String())
	}

	rec = multiGet(t, m, "/v1/hot/marginal?attrs=0,1")
	if rec.Code != http.StatusTooManyRequests {
		t.Errorf("saturated release = %d, want 429", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "2" {
		t.Errorf("saturated Retry-After = %q, want \"2\"", got)
	}
}

func TestMultiReadyz(t *testing.T) {
	m, res := newMultiFixture(t)
	if rec := multiGet(t, m, "/readyz"); rec.Code != http.StatusOK {
		t.Errorf("readyz with scanned registry = %d, want 200", rec.Code)
	}
	res.ready = false
	rec := multiGet(t, m, "/readyz")
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("readyz before initial scan = %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("readyz 503 carries no Retry-After")
	}
	res.ready = true
	m.SetDraining(true)
	rec = multiGet(t, m, "/readyz")
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("readyz while draining = %d, want 503", rec.Code)
	}
	// Liveness stays distinct: healthz also refuses while draining, with
	// the same backoff hint.
	rec = multiGet(t, m, "/healthz")
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
		t.Errorf("healthz while draining = %d (Retry-After %q), want 503 with hint",
			rec.Code, rec.Header().Get("Retry-After"))
	}
}

func TestMultiReleasesEndpoint(t *testing.T) {
	m, _ := newMultiFixture(t)
	rec := multiGet(t, m, "/v1/releases")
	if rec.Code != http.StatusOK {
		t.Fatalf("releases = %d, want 200", rec.Code)
	}
	body := rec.Body.String()
	if !strings.Contains(body, "adult-eps1") || !strings.Contains(body, `"default"`) {
		t.Errorf("releases body %q missing release list or default", body)
	}
}

// TestMultiGlobalShedding proves the router's admission controller is
// the backstop above per-release bulkheads: with a limit of 1 and a
// queue of 1, the second concurrent request waits in the queue and the
// third sheds with 429 + Retry-After. Both admitted requests then
// complete.
func TestMultiGlobalShedding(t *testing.T) {
	_, _, syn := cachedTestSetup(t)
	gate := make(chan struct{})
	res := &fakeResolver{queriers: map[string]Querier{"a": &gatedQuerier{Querier: syn, gate: gate}}, ready: true}
	m := NewMulti(res, "", Options{MaxK: 6, Admission: admission.Config{Limit: 1, MaxQueue: 1}, Logger: log.New(io.Discard, "", 0)})
	ts := httptest.NewServer(m)
	defer ts.Close()

	errc := make(chan error, 2)
	bgGet := func(path string) {
		resp, err := http.Get(ts.URL + path)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("%s = %d, want 200", path, resp.StatusCode)
			}
		}
		errc <- err
	}
	go bgGet("/v1/a/marginal?attrs=0,1")
	// Wait until the first request is parked inside the querier, holding
	// the only slot; the second then occupies the only queue place.
	gate <- struct{}{}
	go bgGet("/v1/a/marginal?attrs=1,2")
	waitUntil(t, "second request queued", func() bool { return m.ov.ctrl.Stats().QueueDepth == 1 })
	resp, err := http.Get(ts.URL + "/v1/a/marginal?attrs=2,3")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("third concurrent request = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed response carries no Retry-After")
	}
	gate <- struct{}{} // release the parked request
	gate <- struct{}{} // the queued one is admitted and parks in turn
	gate <- struct{}{}
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil {
			t.Error(err)
		}
	}
}

// gatedQuerier parks each query between two receives from gate: the
// first send proves the request is inside (holding its inflight slot),
// the second releases it.
type gatedQuerier struct {
	Querier
	gate chan struct{}
}

func (g *gatedQuerier) QueryBatch(ctx context.Context, reqs []core.BatchRequest, opt core.BatchOptions) ([]core.BatchResult, error) {
	<-g.gate
	<-g.gate
	return g.Querier.QueryBatch(ctx, reqs, opt)
}

// panickingQuerier fails every query with a panic, as a bug inside
// reconstruction would.
type panickingQuerier struct{ Querier }

func (panickingQuerier) QueryBatch(context.Context, []core.BatchRequest, core.BatchOptions) ([]core.BatchResult, error) {
	panic("core: synthetic reconstruction failure")
}

// TestAcquireReleasedExactlyOnce: every router path that acquires a
// release returns its permit exactly once, whether it answers, rejects
// the request after acquiring, or recovers a panic below it.
func TestAcquireReleasedExactlyOnce(t *testing.T) {
	m, res := newMultiFixture(t)
	res.queriers["boom"] = panickingQuerier{res.queriers["adult-eps1"]}
	// The deadline gate rejects a request whose propagated budget is
	// below the solve estimate.
	m.ov.svc.Observe(int(core.CME), time.Hour)
	batch := `{"queries":[{"attrs":[0,1]},{"attrs":[3]}]}`
	for _, c := range []struct {
		name, method, path, body string
		deadlineMs               string
		want                     int
	}{
		{"GET", http.MethodGet, "/v1/adult-eps1/marginal?attrs=0,1", "", "", http.StatusOK},
		{"POST batch", http.MethodPost, "/v1/adult-eps1/marginals", batch, "", http.StatusOK},
		{"info", http.MethodGet, "/v1/adult-eps1/info", "", "", http.StatusOK},
		{"bad attrs", http.MethodGet, "/v1/adult-eps1/marginal?attrs=banana", "", "", http.StatusBadRequest},
		{"wrong method", http.MethodPost, "/v1/adult-eps1/info", "", "", http.StatusMethodNotAllowed},
		{"deadline gate", http.MethodGet, "/v1/adult-eps1/marginal?attrs=2,3", "", "50", http.StatusGatewayTimeout},
		{"panic", http.MethodGet, "/v1/boom/marginal?attrs=0,1", "", "", http.StatusInternalServerError},
	} {
		before := res.acquired.Load()
		req := httptest.NewRequest(c.method, c.path, strings.NewReader(c.body))
		if c.deadlineMs != "" {
			req.Header.Set(DeadlineHeader, c.deadlineMs)
		}
		rec := httptest.NewRecorder()
		m.ServeHTTP(rec, req)
		if rec.Code != c.want {
			t.Errorf("%s: status %d, want %d; body %q", c.name, rec.Code, c.want, rec.Body)
		}
		if acq := res.acquired.Load(); acq != before+1 {
			t.Errorf("%s: %d acquires, want 1", c.name, acq-before)
		}
		if acq, rel := res.acquired.Load(), res.released.Load(); acq != rel {
			t.Errorf("%s: %d acquires but %d releases", c.name, acq, rel)
		}
	}
}
