package server

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"priview/internal/admission"
	"priview/internal/core"
	"priview/internal/covering"
	"priview/internal/dataset/synth"
	"priview/internal/marginal"
	"priview/internal/noise"
	"priview/internal/qcache"
	"priview/internal/reconstruct"
)

// countingQuerier wraps a Querier counting how many queries reach it:
// every member of every batch.
type countingQuerier struct {
	Querier
	calls atomic.Int64
}

func (c *countingQuerier) QueryBatch(ctx context.Context, reqs []core.BatchRequest, opt core.BatchOptions) ([]core.BatchResult, error) {
	c.calls.Add(int64(len(reqs)))
	return c.Querier.QueryBatch(ctx, reqs, opt)
}

// queryOne answers one query through q's batch surface, as a GET
// reaches it: a one-member batch.
func queryOne(ctx context.Context, q Querier, attrs []int, method core.ReconstructMethod) (*marginal.Table, error) {
	res, err := q.QueryBatch(ctx, []core.BatchRequest{{Attrs: attrs, Method: method}}, core.BatchOptions{})
	if err != nil {
		return nil, err
	}
	return res[0].Table, res[0].Err
}

// warmKWay warms every ≤k-way marginal of cq's design with its default
// estimator: the sweep the registry runs.
func warmKWay(ctx context.Context, cq *CachedQuerier, k, workers int) (warmed, skipped int, err error) {
	return cq.Warm(ctx, core.AllKWay(cq.Design().D, k, cq.DefaultMethod()), workers, nil)
}

func cachedTestSetup(t *testing.T) (*CachedQuerier, *countingQuerier, *core.Synopsis) {
	t.Helper()
	data := synth.MSNBC(3000, 5)
	dg := covering.Groups(9, 6)
	syn := core.BuildSynopsis(data, core.Config{Epsilon: 1, Design: dg}, noise.NewStream(6))
	counting := &countingQuerier{Querier: syn}
	return NewCachedQuerier(counting, qcache.New(1024, 16<<20)), counting, syn
}

func TestCachedQuerierMemoizes(t *testing.T) {
	cq, counting, syn := cachedTestSetup(t)
	ctx := context.Background()
	attrs := []int{0, 4, 8}
	first, err := queryOne(ctx, cq, attrs, core.CME)
	if err != nil {
		t.Fatal(err)
	}
	first.Cells[0] = math.NaN() // caller mutation must not poison the cache
	second, err := queryOne(ctx, cq, attrs, core.CME)
	if err != nil {
		t.Fatal(err)
	}
	want := syn.Query(attrs)
	if !marginal.Equal(second, want, 1e-12) {
		t.Errorf("cached answer diverges from direct query")
	}
	if n := counting.calls.Load(); n != 1 {
		t.Errorf("%d inner queries, want 1 (memoized)", n)
	}
	// A different estimator is a different key: the solve runs again.
	if _, err := queryOne(ctx, cq, attrs, core.CLN); err != nil {
		t.Fatal(err)
	}
	if n := counting.calls.Load(); n != 2 {
		t.Errorf("%d inner queries after CLN, want 2", n)
	}
	if st := cq.cache.Stats(); st.Hits != 1 || st.Misses != 2 {
		t.Errorf("stats = %+v, want 1 hit, 2 misses", st)
	}
}

func TestCachedQuerierAgreesWithDirectForAllMethods(t *testing.T) {
	cq, _, syn := cachedTestSetup(t)
	ctx := context.Background()
	attrs := []int{0, 3, 7}
	for _, m := range []core.ReconstructMethod{core.CME, core.CLN, core.LP, core.CLP} {
		// Twice: the first populates, the second must hit and agree.
		for round := 0; round < 2; round++ {
			got, err := queryOne(ctx, cq, attrs, m)
			if err != nil {
				t.Fatalf("%s round %d: %v", m, round, err)
			}
			want, err := syn.QueryMethodContext(ctx, attrs, m)
			if err != nil {
				t.Fatalf("%s direct: %v", m, err)
			}
			if !marginal.Equal(got, want, 1e-9) {
				t.Errorf("%s round %d: cached answer diverges", m, round)
			}
		}
	}
}

// erringQuerier returns a degraded answer (table + ErrNumerical) for
// every query.
type erringQuerier struct {
	Querier
	calls atomic.Int64
}

func (e *erringQuerier) QueryBatch(_ context.Context, reqs []core.BatchRequest, _ core.BatchOptions) ([]core.BatchResult, error) {
	e.calls.Add(int64(len(reqs)))
	out := make([]core.BatchResult, len(reqs))
	for i, r := range reqs {
		out[i] = degradedResult(r.Attrs)
	}
	return out, nil
}

// degradedResult is the fallback chain's answer for attrs: a usable
// table plus ErrNumerical.
func degradedResult(attrs []int) core.BatchResult {
	return core.BatchResult{Table: marginal.Uniform(attrs, 100), Err: &reconstruct.NumericalError{
		Solver: "maxent", Iter: 1, Quantity: "residual", Value: math.NaN(),
	}}
}

func TestCachedQuerierDoesNotCacheDegraded(t *testing.T) {
	_, _, syn := cachedTestSetup(t)
	degrading := &erringQuerier{Querier: syn}
	cq := NewCachedQuerier(degrading, qcache.New(1024, 16<<20))
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		got, err := queryOne(ctx, cq, []int{0, 1}, core.CME)
		if !errors.Is(err, reconstruct.ErrNumerical) {
			t.Fatalf("err = %v, want ErrNumerical passthrough", err)
		}
		if got == nil {
			t.Fatal("degraded answer not served")
		}
	}
	if n := degrading.calls.Load(); n != 3 {
		t.Errorf("%d inner queries, want 3 (degraded answers never cached)", n)
	}
}

func TestCachedQuerierBypassesUnkeyableQueries(t *testing.T) {
	_, counting, _ := cachedTestSetup(t)
	cq := NewCachedQuerier(counting, qcache.New(1024, 16<<20))
	// Duplicate attrs cannot be keyed; the query must reach the inner
	// querier untouched, where core's validation rejects it.
	_, err := queryOne(context.Background(), cq, []int{3, 3}, core.CME)
	var be *core.BatchError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want the inner *core.BatchError", err)
	}
	if n := counting.calls.Load(); n != 1 {
		t.Errorf("%d queries reached the inner querier, want 1", n)
	}
	if st := cq.cache.Stats(); st.Misses != 0 || st.Entries != 0 {
		t.Errorf("bypassing query touched the cache: %+v", st)
	}
}

func TestWarmFillsCache(t *testing.T) {
	cq, counting, _ := cachedTestSetup(t)
	ctx := context.Background()
	warmed, skipped, err := warmKWay(ctx, cq, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	// d=9: C(9,1) + C(9,2) = 9 + 36 = 45 marginals.
	if warmed != 45 || skipped != 0 {
		t.Errorf("warmed = (%d, %d skipped), want (45, 0)", warmed, skipped)
	}
	if st := cq.cache.Stats(); st.Entries != 45 {
		t.Errorf("entries = %d, want 45", st.Entries)
	}
	before := counting.calls.Load()
	// Every ≤2-way query must now hit.
	if _, err := queryOne(ctx, cq, []int{2, 7}, core.CME); err != nil {
		t.Fatal(err)
	}
	if counting.calls.Load() != before {
		t.Error("warmed query still reached the solver")
	}
}

// partiallyDegradedQuerier degrades exactly the queries touching one
// poisoned attribute and answers the rest cleanly — the "one bad view"
// scenario Warm must survive.
type partiallyDegradedQuerier struct {
	Querier
	badAttr int
}

func (p *partiallyDegradedQuerier) QueryBatch(ctx context.Context, reqs []core.BatchRequest, opt core.BatchOptions) ([]core.BatchResult, error) {
	res, err := p.Querier.QueryBatch(ctx, reqs, opt)
	if err != nil {
		return nil, err
	}
	for i, r := range reqs {
		if slices.Contains(r.Attrs, p.badAttr) {
			res[i] = degradedResult(r.Attrs)
		}
	}
	return res, nil
}

// TestWarmSkipsDegradedKeys proves one poisoned view cannot leave the
// cache cold: degraded keys are counted and skipped, every clean key is
// still warmed, and the pass reports no error.
func TestWarmSkipsDegradedKeys(t *testing.T) {
	_, counting, _ := cachedTestSetup(t)
	cq := NewCachedQuerier(&partiallyDegradedQuerier{Querier: counting, badAttr: 0}, qcache.New(1024, 16<<20))
	warmed, skipped, err := warmKWay(context.Background(), cq, 2, 4)
	if err != nil {
		t.Fatalf("Warm: %v", err)
	}
	// d=9, attribute 0 poisoned: 1 + 8 = 9 keys touch it; 45 - 9 = 36
	// warm cleanly.
	if warmed != 36 || skipped != 9 {
		t.Errorf("Warm = (%d warmed, %d skipped), want (36, 9)", warmed, skipped)
	}
	if st := cq.cache.Stats(); st.Entries != 36 {
		t.Errorf("entries = %d, want 36 (all clean keys cached)", st.Entries)
	}
}

func TestWarmCanceledStopsEarly(t *testing.T) {
	cq, _, _ := cachedTestSetup(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	warmed, _, err := warmKWay(ctx, cq, 3, 2)
	if !errors.Is(err, reconstruct.ErrCanceled) {
		t.Errorf("err = %v, want ErrCanceled", err)
	}
	if warmed != 0 {
		t.Errorf("warmed = %d with a dead context", warmed)
	}
}

// TestWarmWithoutDesign: Warm consults no design — it warms exactly the
// requests it is given — so a querier without one warms them too. The
// design only sizes the ≤k sweep, which the registry skips without one.
func TestWarmWithoutDesign(t *testing.T) {
	_, counting, _ := cachedTestSetup(t)
	cq := NewCachedQuerier(designlessQuerier{counting}, qcache.New(64, 0))
	warmed, skipped, err := cq.Warm(context.Background(), core.AllKWay(9, 2, core.CME), 2, nil)
	if err != nil || warmed != 45 || skipped != 0 {
		t.Errorf("Warm without design = (%d, %d, %v), want (45, 0, nil)", warmed, skipped, err)
	}
}

// TestWarmStopsOnceCacheClosed: a warm pass runs no further chunk once
// its cache is closed — the querier is no longer its release's current
// one — and stores nothing from the chunk that was running.
func TestWarmStopsOnceCacheClosed(t *testing.T) {
	cq, counting, _ := cachedTestSetup(t)
	reqs := core.AllKWay(9, 5, core.CME) // 381 requests: two chunks
	chunks := 0
	warmed, skipped, err := cq.Warm(context.Background(), reqs, 2, func(int, int) {
		chunks++
		cq.cache.Close()
	})
	if !errors.Is(err, errCacheClosed) {
		t.Errorf("err = %v, want errCacheClosed", err)
	}
	if chunks != 1 || warmed+skipped != warmChunk {
		t.Errorf("%d chunks, %d warmed + %d skipped; want one chunk of %d", chunks, warmed, skipped, warmChunk)
	}
	if n := counting.calls.Load(); n != warmChunk {
		t.Errorf("%d queries reached the solver, want %d (no second chunk)", n, warmChunk)
	}
	if st := cq.cache.Stats(); st.Entries != 0 {
		t.Errorf("closed cache holds %d entries, want 0", st.Entries)
	}
}

type designlessQuerier struct{ Querier }

func (designlessQuerier) Design() *covering.Design { return nil }

// DefaultMethod answers without the inner querier, which FuzzParseAttrs
// leaves nil.
func (designlessQuerier) DefaultMethod() core.ReconstructMethod { return core.CME }

// TestStatsEndpoint: GET /v1/stats answers with the resolver's stats
// for the release, verbatim, without acquiring it; any other method is
// refused.
func TestStatsEndpoint(t *testing.T) {
	cq, _, _ := cachedTestSetup(t)
	res := &fakeResolver{queriers: map[string]Querier{DefaultRelease: cq}, ready: true}
	s := NewMulti(res, DefaultRelease, Options{})
	rec := get(t, s, "/v1/stats")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if got, want := rec.Body.String(), "{\"name\":\"default\"}\n"; got != want {
		t.Errorf("/v1/stats = %q, want the resolver's stats %q", got, want)
	}
	if n := res.acquired.Load(); n != 0 {
		t.Errorf("/v1/stats acquired the release %d times, want 0", n)
	}

	req := httptest.NewRequest(http.MethodPost, "/v1/stats", nil)
	recPost := httptest.NewRecorder()
	s.ServeHTTP(recPost, req)
	if recPost.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/stats = %d", recPost.Code)
	}
}

// TestCachedServerRaceStress is the server-level race gate for the
// cache: concurrent identical and distinct queries through the full
// middleware stack, exercising hits, misses and singleflight
// coalescing at once. Under -race this proves the documented
// concurrency claim end to end.
func TestCachedServerRaceStress(t *testing.T) {
	cq, counting, syn := cachedTestSetup(t)
	// The admission limit is pinned above the worker count, so every
	// request is admitted and the test checks the cache alone.
	s := serveOne(cq, Options{Admission: admission.Config{Limit: 16}})
	attrSets := []string{"0,4,8", "1,5", "0,4,8", "2,6,7", "0,4,8", "3"}
	methods := []string{"CME", "CLN", "CLP", "LP"}
	const workers = 12
	const perWorker = 10
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				path := "/v1/marginal?attrs=" + attrSets[(w+i)%len(attrSets)] +
					"&method=" + methods[i%len(methods)]
				rec := get(t, s, path)
				if rec.Code != http.StatusOK {
					t.Errorf("%s: status %d: %s", path, rec.Code, rec.Body.String())
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := cq.cache.Stats()
	if got := st.Hits + st.Misses + st.Coalesced; got != workers*perWorker {
		t.Errorf("hits+misses+coalesced = %d, want %d (stats %+v)", got, workers*perWorker, st)
	}
	// Distinct (attrs, method) pairs bound the solves that may run.
	distinct := int64(len(methods) * 4) // 4 distinct attr sets
	if n := counting.calls.Load(); n > distinct {
		t.Errorf("%d solves for %d distinct keys: singleflight failed to coalesce", n, distinct)
	}
	// Spot-check one answer against the synopsis directly.
	rec := get(t, s, "/v1/marginal?attrs=0,4,8&method=CLN")
	var resp struct {
		Cells []float64 `json:"cells"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	want := syn.QueryMethod([]int{0, 4, 8}, core.CLN)
	for i := range want.Cells {
		if math.Abs(want.Cells[i]-resp.Cells[i]) > 1e-9 {
			t.Fatalf("cached answer diverged at cell %d", i)
		}
	}
}
