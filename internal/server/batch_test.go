package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"priview/internal/admission"
	"priview/internal/core"
	"priview/internal/covering"
	"priview/internal/dataset/synth"
	"priview/internal/marginal"
	"priview/internal/noise"
	"priview/internal/qcache"
	"priview/internal/reconstruct"
)

func postMarginals(t *testing.T, h http.Handler, path string, body interface{}) *httptest.ResponseRecorder {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(raw))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

type wireBatchResponse struct {
	Results []struct {
		Attrs    []int     `json:"attrs"`
		Method   string    `json:"method"`
		Total    float64   `json:"total"`
		Cells    []float64 `json:"cells"`
		Degraded bool      `json:"degraded"`
	} `json:"results"`
}

type wireBatchError struct {
	Error  string `json:"error"`
	Errors []struct {
		Index int    `json:"index"`
		Error string `json:"error"`
	} `json:"errors"`
}

// TestMarginalsBatchMatchesSingles verifies POST /v1/marginals answers
// every query identically to the single-query GET route, in request
// order.
func TestMarginalsBatchMatchesSingles(t *testing.T) {
	s, syn := testServer(t)
	body := map[string]interface{}{
		"queries": []map[string]interface{}{
			{"attrs": []int{0, 1}},
			{"attrs": []int{4}, "method": "CLN"},
			{"attrs": []int{2, 5, 8}},
		},
	}
	rec := postMarginals(t, s, "/v1/marginals", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var resp wireBatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("got %d results", len(resp.Results))
	}
	wantMethods := []core.ReconstructMethod{core.CME, core.CLN, core.CME}
	for i, res := range resp.Results {
		want, err := syn.QueryMethodContext(context.Background(), res.Attrs, wantMethods[i])
		if err != nil {
			t.Fatal(err)
		}
		got := marginal.New(res.Attrs)
		copy(got.Cells, res.Cells)
		if !marginal.Equal(got, want, 0) {
			t.Errorf("result %d (%v): batch answer differs from single query", i, res.Attrs)
		}
		if res.Degraded {
			t.Errorf("result %d unexpectedly degraded", i)
		}
	}
}

// TestMarginalsPerIndexErrors verifies an invalid batch draws one 400
// with a structured per-index error body instead of a bare first-error
// 400 — and that nothing about the valid members leaks into it.
func TestMarginalsPerIndexErrors(t *testing.T) {
	s, _ := testServer(t)
	body := map[string]interface{}{
		"queries": []map[string]interface{}{
			{"attrs": []int{0, 1}},                                     // valid
			{"attrs": []int{2, 2}},                                     // duplicate
			{"attrs": []int{}},                                         // empty
			{"attrs": []int{3}, "method": "SIMPLEX9"},                  // unknown method
			{"attrs": []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}}, // over MaxK
		},
	}
	rec := postMarginals(t, s, "/v1/marginals", body)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var resp wireBatchError
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("400 body is not the structured batch error: %v: %s", err, rec.Body.String())
	}
	if len(resp.Errors) != 4 {
		t.Fatalf("got %d item errors, want 4: %+v", len(resp.Errors), resp)
	}
	wantIdx := []int{1, 2, 3, 4}
	for i, item := range resp.Errors {
		if item.Index != wantIdx[i] {
			t.Errorf("item %d: index %d, want %d", i, item.Index, wantIdx[i])
		}
		if item.Error == "" {
			t.Errorf("item %d: empty error message", i)
		}
	}
}

// TestMarginalsInputGates covers the request-shape 4xx paths.
func TestMarginalsInputGates(t *testing.T) {
	s, _ := testServer(t)
	// Wrong verb.
	req := httptest.NewRequest(http.MethodGet, "/v1/marginals", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET: status = %d", rec.Code)
	}
	// Empty batch.
	if rec := postMarginals(t, s, "/v1/marginals", map[string]interface{}{"queries": []int{}}); rec.Code != http.StatusBadRequest {
		t.Errorf("empty: status = %d", rec.Code)
	}
	// Malformed JSON.
	req = httptest.NewRequest(http.MethodPost, "/v1/marginals", bytes.NewReader([]byte("{")))
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("malformed: status = %d", rec.Code)
	}
	// Oversized batch.
	over := make([]map[string]interface{}, 0, 300)
	for i := 0; i < 300; i++ {
		over = append(over, map[string]interface{}{"attrs": []int{0}})
	}
	if rec := postMarginals(t, s, "/v1/marginals", map[string]interface{}{"queries": over}); rec.Code != http.StatusBadRequest {
		t.Errorf("oversized: status = %d", rec.Code)
	}
}

// TestMarginalsDefaultMethodFromSynopsis verifies an unadorned batch,
// and an unadorned GET, use the synopsis's configured default
// estimator, not hardcoded CME.
func TestMarginalsDefaultMethodFromSynopsis(t *testing.T) {
	data := synth.MSNBC(3000, 21)
	dg := covering.Groups(9, 6)
	syn := core.BuildSynopsis(data, core.Config{Epsilon: 1, Design: dg, Method: core.CLN}, noise.NewStream(22))
	s := New(syn, Options{})
	rec := postMarginals(t, s, "/v1/marginals", map[string]interface{}{
		"queries": []map[string]interface{}{{"attrs": []int{0, 4}}},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var resp wireBatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Results[0].Method != "CLN" {
		t.Errorf("method = %q, want the synopsis default CLN", resp.Results[0].Method)
	}
	rec = get(t, s, "/v1/marginal?attrs=0,4")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET status = %d: %s", rec.Code, rec.Body.String())
	}
	var single marginalResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &single); err != nil {
		t.Fatal(err)
	}
	if single.Method != "CLN" {
		t.Errorf("GET method = %q, want the synopsis default CLN", single.Method)
	}
}

// TestMarginalsDeadlineGateCountsDistinctSolves: the batch deadline
// gate sizes a batch by its deduplicated solves. 64 copies of one query
// are one solve, so a budget covering one solve's estimate admits the
// batch even though 64 solves over its 2 workers would not fit; a
// budget below that one solve is still refused.
func TestMarginalsDeadlineGateCountsDistinctSolves(t *testing.T) {
	_, syn := testServer(t)
	s := New(syn, Options{BatchWorkers: 2, Logger: discardLogger()})
	s.ov.svc.Observe(int(core.CME), 100*time.Millisecond)
	queries := make([]map[string]interface{}, 64)
	for i := range queries {
		queries[i] = map[string]interface{}{"attrs": []int{0, 4}}
	}
	raw, err := json.Marshal(map[string]interface{}{"queries": queries})
	if err != nil {
		t.Fatal(err)
	}
	post := func(budgetMs string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/v1/marginals", bytes.NewReader(raw))
		req.Header.Set(DeadlineHeader, budgetMs)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		return rec
	}
	if rec := post("1000"); rec.Code != http.StatusOK {
		t.Fatalf("64 identical queries with a one-solve budget: status %d, want 200; body %q", rec.Code, rec.Body.String())
	}
	rec := post("10")
	if rec.Code != http.StatusGatewayTimeout || !strings.Contains(rec.Body.String(), "below expected") {
		t.Errorf("budget below one solve: status %d, want the 504 fast-fail; body %q", rec.Code, rec.Body.String())
	}
}

// TestMultiMarginalsRoutes verifies the batch route works through the
// multi-tenant router on both the named and legacy paths.
func TestMultiMarginalsRoutes(t *testing.T) {
	m, _, lease := newMultiFixture(t)
	body := map[string]interface{}{
		"queries": []map[string]interface{}{{"attrs": []int{0, 1}}, {"attrs": []int{3}}},
	}
	for _, path := range []string{"/v1/adult-eps1/marginals", "/v1/marginals"} {
		rec := postMarginals(t, m, path, body)
		if rec.Code != http.StatusOK {
			t.Errorf("POST %s = %d: %s", path, rec.Code, rec.Body)
			continue
		}
		var resp wireBatchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.Results) != 2 {
			t.Errorf("POST %s: %d results", path, len(resp.Results))
		}
	}
	if got := lease.closed.Load(); got != 2 {
		t.Errorf("lease closed %d times, want 2", got)
	}
}

// TestCachedQuerierQueryBatch verifies the batch path through the
// cache: one inner batch for the cold misses, zero for the warm repeat,
// and coalescing with the single-query protocol on the same keys.
func TestCachedQuerierQueryBatch(t *testing.T) {
	cq, counting, syn := cachedTestSetup(t)
	ctx := context.Background()
	reqs := []core.BatchRequest{
		{Attrs: []int{0, 4}, Method: core.CME},
		{Attrs: []int{1}, Method: core.CME},
		{Attrs: []int{4, 0}, Method: core.CME}, // duplicate of the first
	}
	res, err := cq.QueryBatch(ctx, reqs, core.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := syn.QueryMethodContext(ctx, []int{0, 4}, core.CME)
	if err != nil {
		t.Fatal(err)
	}
	if !marginal.Equal(res[0].Table, want, 0) || !marginal.Equal(res[2].Table, want, 0) {
		t.Error("batch-through-cache answers diverge from direct query")
	}
	// countingQuerier counts the members of each inner batch: the miss
	// set holds exactly one member per distinct key, the in-batch
	// duplicate deduplicated by the cache.
	if n := counting.calls.Load(); n != 2 {
		t.Errorf("%d queries reached the inner querier, want 2 (distinct keys)", n)
	}
	// Warm repeat: everything hits.
	misses := cq.cache.Stats().Misses
	if _, err := cq.QueryBatch(ctx, reqs, core.BatchOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := cq.cache.Stats().Misses; got != misses {
		t.Errorf("warm repeat added misses: %d -> %d", misses, got)
	}
	// The single-query path must hit the entries the batch populated.
	if _, err := queryOne(ctx, cq, []int{1}, core.CME); err != nil {
		t.Fatal(err)
	}
	if got := cq.cache.Stats().Misses; got != misses {
		t.Errorf("single after batch missed: %d -> %d", misses, got)
	}
	if n := counting.calls.Load(); n != 2 {
		t.Errorf("%d inner queries after warm traffic, want still 2", n)
	}
}

// TestCachedQuerierQueryBatchUnkeyableBypasses verifies a batch with an
// unkeyable member bypasses the cache wholesale, preserving the inner
// error indices.
func TestCachedQuerierQueryBatchUnkeyableBypasses(t *testing.T) {
	_, _, syn := cachedTestSetup(t)
	cq := NewCachedQuerier(syn, qcache.New(64, 1<<20))
	reqs := []core.BatchRequest{
		{Attrs: []int{0}, Method: core.CME},
		{Attrs: []int{70}, Method: core.CME}, // not maskable
	}
	_, err := cq.QueryBatch(context.Background(), reqs, core.BatchOptions{})
	var be *core.BatchError
	if !errors.As(err, &be) {
		t.Fatalf("want *core.BatchError, got %v", err)
	}
	if len(be.Items) != 1 || be.Items[0].Index != 1 {
		t.Errorf("items = %+v, want one error at index 1", be.Items)
	}
	if got := cq.cache.Stats().Misses; got != 0 {
		t.Errorf("bypassing batch touched the cache: %d misses", got)
	}
}

// TestWarmUsesConfiguredDefaultMethod is the warm-path bugfix test: a
// synopsis configured with a CLN default must warm CLN keys — the keys
// its unadorned queries actually hit — not hardcoded CME ones.
func TestWarmUsesConfiguredDefaultMethod(t *testing.T) {
	data := synth.MSNBC(3000, 23)
	dg := covering.Groups(9, 6)
	syn := core.BuildSynopsis(data, core.Config{Epsilon: 1, Design: dg, Method: core.CLN}, noise.NewStream(24))
	cq := NewCachedQuerier(syn, qcache.New(1024, 16<<20))
	warmed, skipped, err := warmKWay(context.Background(), cq, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	wantKeys := 9 + 36 // C(9,1) + C(9,2)
	if warmed+skipped != wantKeys {
		t.Fatalf("warmed %d + skipped %d, want %d keys total", warmed, skipped, wantKeys)
	}
	if _, hit := cq.QueryCached([]int{0, 5}, core.CLN); !hit {
		t.Error("CLN key cold after warming a CLN-default synopsis")
	}
	if _, hit := cq.QueryCached([]int{0, 5}, core.CME); hit {
		t.Error("warm pass filled CME keys the default query path never reads")
	}
}

// TestMarginalsStressMixedTraffic drives concurrent batch and single
// traffic through the Multi router and a shared qcache under -race:
// the answers must stay consistent and nothing may deadlock or race.
func TestMarginalsStressMixedTraffic(t *testing.T) {
	data := synth.MSNBC(3000, 25)
	dg := covering.Groups(9, 6)
	syn := core.BuildSynopsis(data, core.Config{Epsilon: 1, Design: dg}, noise.NewStream(26))
	cq := NewCachedQuerier(syn, qcache.New(256, 16<<20))
	lease := &fakeLease{Querier: cq}
	res := &fakeResolver{leases: map[string]*fakeLease{"rel": lease}, ready: true}
	// The admission limit is pinned above the worker count, so every
	// request is admitted and the answers alone are under test.
	m := NewMulti(res, "rel", Options{
		MaxK:      6,
		Logger:    log.New(io.Discard, "", 0),
		Admission: admission.Config{MinLimit: 16, MaxLimit: 16},
	})

	want, err := syn.QueryMethodContext(context.Background(), []int{0, 3}, core.CME)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if (w+i)%2 == 0 {
					rec := httptest.NewRecorder()
					m.ServeHTTP(rec, httptest.NewRequest(http.MethodGet,
						"/v1/rel/marginal?attrs=0,3&method=CME", nil))
					if rec.Code != http.StatusOK {
						t.Errorf("worker %d: single = %d: %s", w, rec.Code, rec.Body)
						return
					}
					continue
				}
				raw, _ := json.Marshal(map[string]interface{}{
					"queries": []map[string]interface{}{
						{"attrs": []int{0, 3}},
						{"attrs": []int{(w + i) % 9}},
					},
				})
				req := httptest.NewRequest(http.MethodPost, "/v1/rel/marginals", bytes.NewReader(raw))
				rec := httptest.NewRecorder()
				m.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					t.Errorf("worker %d: batch = %d: %s", w, rec.Code, rec.Body)
					return
				}
				var resp wireBatchResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				got := marginal.New(resp.Results[0].Attrs)
				copy(got.Cells, resp.Results[0].Cells)
				if !marginal.Equal(got, want, 0) {
					t.Errorf("worker %d: shared key diverged under mixed traffic", w)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestBrownoutServesCachedBatchesOnly: during an active brownout the
// batch route is served only when every member is a cache hit; one cold
// member refuses the whole batch with the brownout 503, and malformed
// input falls back to the normal path instead of being masked.
func TestBrownoutServesCachedBatchesOnly(t *testing.T) {
	_, base := testServer(t)
	hq := &holdQuerier{Querier: base, arrived: make(chan struct{}, 16), release: make(chan struct{})}
	cached := NewCachedQuerier(hq, qcache.New(128, 0))
	s := New(cached, Options{
		RetryAfter: time.Second,
		Logger:     discardLogger(),
		Admission:  admission.Config{InitialLimit: 1, MinLimit: 1, MaxLimit: 1, MaxQueue: 1},
		Brownout:   &admission.BrownoutConfig{Enter: time.Millisecond, Exit: time.Hour},
	})

	// Warm two keys through the normal path before the storm.
	for _, p := range []string{"/v1/marginal?attrs=0,1", "/v1/marginal?attrs=1,2"} {
		if rec := get(t, s, p); rec.Code != http.StatusOK {
			t.Fatalf("warmup %s: status %d; body %q", p, rec.Code, rec.Body.String())
		}
	}
	hq.hold.Store(true)

	// Occupy the slot and the queue, then storm until brownout engages.
	done := make(chan int, 2)
	bgServe := func(path string) {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		done <- rec.Code
	}
	go bgServe("/v1/marginal?attrs=2,3")
	select {
	case <-hq.arrived:
	case <-time.After(10 * time.Second):
		t.Fatal("slot-holding request never reached the querier")
	}
	go bgServe("/v1/marginal?attrs=3,4")
	waitUntil(t, "queue occupied", func() bool { return s.ov.ctrl.Stats().QueueDepth == 1 })
	deadline := time.Now().Add(10 * time.Second)
	for !s.ov.brown.Active() {
		if time.Now().After(deadline) {
			t.Fatal("brownout never engaged")
		}
		if rec := get(t, s, "/v1/marginal?attrs=4,5"); rec.Code != http.StatusTooManyRequests &&
			rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("storm request: status %d; body %q", rec.Code, rec.Body.String())
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Every member cached: the whole batch is answered from the cache
	// even though every admission slot is taken.
	allHit := map[string]interface{}{"queries": []map[string]interface{}{
		{"attrs": []int{0, 1}}, {"attrs": []int{1, 2}},
	}}
	if rec := postMarginals(t, s, "/v1/marginals", allHit); rec.Code != http.StatusOK {
		t.Errorf("cached batch during brownout: status %d; body %q", rec.Code, rec.Body.String())
	} else {
		var resp wireBatchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || len(resp.Results) != 2 {
			t.Errorf("cached batch body: err=%v, %d results", err, len(resp.Results))
		}
	}
	// One cold member would cost a solve: the whole batch is refused.
	coldOne := map[string]interface{}{"queries": []map[string]interface{}{
		{"attrs": []int{0, 1}}, {"attrs": []int{5, 6}},
	}}
	rec := postMarginals(t, s, "/v1/marginals", coldOne)
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "brownout") {
		t.Errorf("cold batch during brownout: status %d; body %q", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("brownout 503 carries no Retry-After")
	}
	// An invalid batch is not the brownout path's to answer: it falls
	// through to normal admission, which here sheds against a full queue.
	badReq := map[string]interface{}{"queries": []map[string]interface{}{{"attrs": []int{2, 2}}}}
	if rec := postMarginals(t, s, "/v1/marginals", badReq); rec.Code != http.StatusTooManyRequests {
		t.Errorf("invalid batch during brownout: status %d, want 429 (normal path); body %q", rec.Code, rec.Body.String())
	}
	if served := s.ov.brownoutServed.Value(); served == 0 {
		t.Error("brownoutServed counter never ticked for the cached batch")
	}

	hq.hold.Store(false)
	close(hq.release)
	for i := 0; i < 2; i++ {
		if code := <-done; code != http.StatusOK {
			t.Errorf("held/queued request %d: status %d, want 200", i, code)
		}
	}
}

// TestClientMarginalsRoundTrip exercises Client.MarginalsContext
// against a live server: order-preserving answers, a degraded answer
// carried as an Err matching reconstruct.ErrNumerical, and a
// non-retryable structured 400.
func TestClientMarginalsRoundTrip(t *testing.T) {
	_, syn := testServer(t)
	// Queries touching attribute 0 come back degraded.
	s := New(&partiallyDegradedQuerier{Querier: syn, badAttr: 0}, Options{Logger: discardLogger()})
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		s.ServeHTTP(w, r)
	}))
	defer ts.Close()
	c := NewClient(ts.URL, nil, RetryPolicy{})
	ctx := context.Background()
	results, err := c.MarginalsContext(ctx, []core.BatchRequest{
		{Attrs: []int{1, 2}},
		{Attrs: []int{5}, Method: core.CLN},
		{Attrs: []int{0, 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
	for i, want := range []*marginal.Table{syn.Query([]int{1, 2}), syn.QueryMethod([]int{5}, core.CLN)} {
		if results[i].Err != nil || !marginal.Equal(results[i].Table, want, 0) {
			t.Errorf("result %d diverges from direct query (err %v)", i, results[i].Err)
		}
	}
	if deg := results[2]; !errors.Is(deg.Err, reconstruct.ErrNumerical) ||
		!marginal.Equal(deg.Table, degradedResult([]int{0, 3}).Table, 0) {
		t.Errorf("degraded result = %v (err %v), want the served table and ErrNumerical", deg.Table, deg.Err)
	}
	// A 400 must not be retried and must carry the per-index body.
	_, err = c.MarginalsContext(ctx, []core.BatchRequest{{Attrs: []int{2, 2}}})
	if err == nil {
		t.Fatal("invalid batch succeeded")
	}
	if !strings.Contains(err.Error(), `"index":0`) {
		t.Errorf("400 error %q lacks the per-index body", err)
	}
	if n := hits.Load(); n != 2 {
		t.Errorf("server saw %d requests for 2 calls; the 400 was retried", n)
	}
}
