package chaos

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"priview/internal/admission"
	"priview/internal/core"
	"priview/internal/reconstruct"
	"priview/internal/registry"
	"priview/internal/server"
	"priview/internal/snapshot"
)

// varSlow is a querier whose per-query delay can be changed mid-test
// (atomically, so phase transitions are race-free under -race) — the
// stand-in for a solver tier getting slower under the same traffic. A
// batch of n queries waits n × the delay, as n one-at-a-time solves
// would.
type varSlow struct {
	server.Querier
	delay atomic.Int64 // nanoseconds
}

func (s *varSlow) SetDelay(d time.Duration) { s.delay.Store(int64(d)) }

func (s *varSlow) QueryBatch(ctx context.Context, reqs []core.BatchRequest, opt core.BatchOptions) ([]core.BatchResult, error) {
	if d := time.Duration(s.delay.Load()); d > 0 {
		timer := time.NewTimer(d * time.Duration(len(reqs)))
		defer timer.Stop()
		select {
		case <-timer.C:
		case <-ctx.Done():
			return nil, reconstruct.ContextErr(ctx)
		}
	}
	return s.Querier.QueryBatch(ctx, reqs, opt)
}

// loadRec is one request's outcome in a load stream.
type loadRec struct {
	code int // 0 = transport error
	d    time.Duration
}

// loadStream hammers url-rooted marginal routes with workers concurrent
// query loops until halted, recording every outcome.
type loadStream struct {
	stop chan struct{}
	wg   sync.WaitGroup

	mu   sync.Mutex
	recs []loadRec
}

// startLoad launches workers query loops against base+path (a marginal
// route missing its attrs value). pace, when positive, spaces each
// worker's requests — the well-behaved-client knob.
func startLoad(base, path string, workers int, pace time.Duration) *loadStream {
	ls := &loadStream{stop: make(chan struct{})}
	for w := 0; w < workers; w++ {
		ls.wg.Add(1)
		go func(w int) {
			defer ls.wg.Done()
			client := &http.Client{Timeout: 10 * time.Second}
			for i := 0; ; i++ {
				select {
				case <-ls.stop:
					return
				default:
				}
				a := (w + i) % 9
				b := (a + 1 + i%7) % 9
				if b == a {
					b = (a + 1) % 9
				}
				start := time.Now()
				resp, err := client.Get(base + fmt.Sprintf("%s?attrs=%d,%d", path, a, b))
				rec := loadRec{d: time.Since(start)}
				if err == nil {
					//lint:ignore errdiscard draining a test response body
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					rec.code = resp.StatusCode
				}
				ls.mu.Lock()
				ls.recs = append(ls.recs, rec)
				ls.mu.Unlock()
				if pace > 0 {
					select {
					case <-ls.stop:
						return
					case <-time.After(pace):
					}
				}
			}
		}(w)
	}
	return ls
}

func (ls *loadStream) halt() []loadRec {
	close(ls.stop)
	ls.wg.Wait()
	ls.mu.Lock()
	defer ls.mu.Unlock()
	return ls.recs
}

// phaseReport is one storm phase's latency partition — what CI uploads
// as the chaos-overload artifact.
type phaseReport struct {
	Name       string         `json:"name"`
	Seconds    float64        `json:"seconds"`
	Requests   int            `json:"requests"`
	Codes      map[string]int `json:"codes"`
	GoodputRPS float64        `json:"goodput_rps"`
	OKP50Ms    float64        `json:"ok_p50_ms"`
	OKP99Ms    float64        `json:"ok_p99_ms"`
	ShedP99Ms  float64        `json:"shed_p99_ms"`
}

func summarize(name string, elapsed time.Duration, recs []loadRec) phaseReport {
	r := phaseReport{Name: name, Seconds: elapsed.Seconds(), Requests: len(recs), Codes: map[string]int{}}
	var ok, shed []time.Duration
	for _, rec := range recs {
		r.Codes[fmt.Sprint(rec.code)]++
		switch rec.code {
		case http.StatusOK:
			ok = append(ok, rec.d)
		case http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			shed = append(shed, rec.d)
		}
	}
	if elapsed > 0 {
		r.GoodputRPS = float64(len(ok)) / elapsed.Seconds()
	}
	r.OKP50Ms = float64(percentile(ok, 50)) / float64(time.Millisecond)
	r.OKP99Ms = float64(percentile(ok, 99)) / float64(time.Millisecond)
	r.ShedP99Ms = float64(percentile(shed, 99)) / float64(time.Millisecond)
	return r
}

func percentile(ds []time.Duration, p int) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[len(sorted)*p/100]
}

// writeOverloadReport persists the phase partitions when the CI artifact
// path is configured via PRIVIEW_OVERLOAD_REPORT.
func writeOverloadReport(t *testing.T, phases []phaseReport) {
	t.Helper()
	path := os.Getenv("PRIVIEW_OVERLOAD_REPORT")
	if path == "" {
		return
	}
	blob, err := json.MarshalIndent(struct {
		Phases []phaseReport `json:"phases"`
	}{phases}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		t.Errorf("writing overload report: %v", err)
	}
	t.Logf("wrote overload report to %s", path)
}

// run drives a measured load phase: workers stream for d, then the
// stream halts and the phase is summarized.
func runPhase(name, base, path string, workers int, pace, d time.Duration) phaseReport {
	ls := startLoad(base, path, workers, pace)
	time.Sleep(d)
	recs := ls.halt()
	return summarize(name, d, recs)
}

// TestOverloadStorm is the headline overload proof on a single-tenant
// server with adaptive admission over a deliberately slow solver:
//
//   - baseline: under-capacity traffic establishes goodput and p99;
//   - storm: 4× the concurrency ceiling offered — goodput must hold
//     ≥70% of baseline, and the excess must be shed with fast 429s,
//     not absorbed as queueing;
//   - slow solver: the solver gets 4× slower under storm traffic —
//     admitted-request p99 must stay within 2× the slow solver's own
//     uncontended baseline, i.e. the queue cannot become the latency.
//
// The per-phase latency partitions are written as a JSON report when
// PRIVIEW_OVERLOAD_REPORT is set (the CI artifact).
func TestOverloadStorm(t *testing.T) {
	const baseDelay = 5 * time.Millisecond
	vs := &varSlow{Querier: durabilitySyn(3)}
	vs.SetDelay(baseDelay)
	srv := server.New(vs, server.Options{
		MaxK:         9,
		QueryTimeout: 2 * time.Second,
		Logger:       log.New(io.Discard, "", 0),
		Admission: admission.Config{
			TargetDelay:  10 * time.Millisecond,
			Interval:     50 * time.Millisecond,
			MaxQueue:     32,
			InitialLimit: 8,
			MinLimit:     2,
			MaxLimit:     8,
		},
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Baseline: 6 workers against a concurrency-8 server — under
	// capacity, nothing queues for long.
	base := runPhase("baseline", ts.URL, "/v1/marginal", 6, 0, 700*time.Millisecond)
	t.Logf("baseline: %d requests, goodput %.0f rps, ok p99 %.1fms", base.Requests, base.GoodputRPS, base.OKP99Ms)
	if base.GoodputRPS == 0 {
		t.Fatal("baseline produced no successful requests")
	}

	// Storm: 32 closed-loop workers against a concurrency-8 server keep
	// about three service times (~15ms) queued, above the 10ms target
	// delay, so CoDel must shed. Goodput must not collapse — shedding is
	// the mechanism that protects it.
	storm := runPhase("storm", ts.URL, "/v1/marginal", 32, 0, time.Second)
	t.Logf("storm: %d requests, codes %v, goodput %.0f rps (floor %.0f)", storm.Requests, storm.Codes, storm.GoodputRPS, 0.7*base.GoodputRPS)
	if storm.GoodputRPS < 0.7*base.GoodputRPS {
		t.Errorf("storm goodput %.0f rps below 70%% of baseline %.0f rps", storm.GoodputRPS, base.GoodputRPS)
	}
	if storm.Codes[fmt.Sprint(http.StatusTooManyRequests)] == 0 {
		t.Error("the storm phase returned no 429 — it never exceeded capacity")
	}

	// Slow solver, uncontended: what the slower tier costs by itself.
	vs.SetDelay(4 * baseDelay)
	slowBase := runPhase("slow-baseline", ts.URL, "/v1/marginal", 2, 0, 600*time.Millisecond)
	if slowBase.OKP99Ms == 0 {
		t.Fatal("slow baseline produced no successful requests")
	}

	// Slow solver under storm: let the AIMD limit and CoDel adapt off
	// the record, then measure. Admitted requests must not inherit the
	// queue as latency.
	settle := startLoad(ts.URL, "/v1/marginal", 16, 0)
	time.Sleep(200 * time.Millisecond)
	// Mid-storm scrape: 16 workers are hammering the admission path
	// while the exposition renders; the strict parse re-checks the
	// histogram and label invariants under that concurrency.
	fams := scrapeMetrics(t, ts.URL)
	if v := mustSample(t, fams, "priview_admission_admitted_total",
		"priview_admission_admitted_total", nil); v == 0 {
		t.Error("admission_admitted_total = 0 on /metrics mid-storm")
	}
	if v := mustSample(t, fams, "priview_admission_shed_total", "priview_admission_shed_total", nil) +
		mustSample(t, fams, "priview_admission_codel_dropped_total", "priview_admission_codel_dropped_total", nil); v == 0 {
		t.Error("a 2× storm shed nothing on /metrics — admission series not wired")
	}
	mustSample(t, fams, "priview_http_requests_total",
		"priview_http_requests_total", map[string]string{"route": "/v1/marginal", "status": "2xx"})
	mustSample(t, fams, "priview_solve_seconds",
		"priview_solve_seconds_count", map[string]string{"method": "CME"})
	time.Sleep(200 * time.Millisecond)
	settle.halt()
	slowStorm := runPhase("slow-storm", ts.URL, "/v1/marginal", 16, 0, time.Second)
	p99Limit := 2 * slowBase.OKP99Ms
	if floor := slowBase.OKP99Ms + 75; p99Limit < floor {
		p99Limit = floor // deflake floor for sub-40ms baselines on busy CI
	}
	t.Logf("slow storm: %d requests, codes %v, ok p99 %.1fms (slow baseline %.1fms, limit %.1fms)",
		slowStorm.Requests, slowStorm.Codes, slowStorm.OKP99Ms, slowBase.OKP99Ms, p99Limit)
	if slowStorm.OKP99Ms > p99Limit {
		t.Errorf("slow-storm admitted p99 %.1fms exceeded %.1fms", slowStorm.OKP99Ms, p99Limit)
	}
	if slowStorm.Codes[fmt.Sprint(http.StatusOK)] == 0 {
		t.Error("slow storm starved every request — no goodput at all")
	}

	// The observability contract: /v1/stats must expose the admission
	// counters the phases above exercised.
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Admission *admission.Stats `json:"admission"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Admission == nil {
		t.Fatal("/v1/stats has no admission block with adaptive admission enabled")
	}
	if stats.Admission.Admitted == 0 {
		t.Error("admission stats counted nothing admitted")
	}
	if stats.Admission.Shed+stats.Admission.CoDelDropped == 0 {
		t.Error("a 2× storm shed nothing — admission control never engaged")
	}

	writeOverloadReport(t, []phaseReport{base, storm, slowBase, slowStorm})
}

// startBatchLoad launches workers posting small batched-marginal
// requests against base+"/v1/marginals" until halted, recording every
// outcome in the same loadRec stream the single-query loops use.
func startBatchLoad(base string, workers int) *loadStream {
	ls := &loadStream{stop: make(chan struct{})}
	for w := 0; w < workers; w++ {
		ls.wg.Add(1)
		go func(w int) {
			defer ls.wg.Done()
			client := &http.Client{Timeout: 10 * time.Second}
			for i := 0; ; i++ {
				select {
				case <-ls.stop:
					return
				default:
				}
				a := (w + i) % 9
				b := (a + 1 + i%7) % 9
				if b == a {
					b = (a + 1) % 9
				}
				body := fmt.Sprintf(`{"queries":[{"attrs":[%d,%d]},{"attrs":[%d]}]}`, a, b, (a+b)%9)
				start := time.Now()
				resp, err := client.Post(base+"/v1/marginals", "application/json", strings.NewReader(body))
				rec := loadRec{d: time.Since(start)}
				if err == nil {
					//lint:ignore errdiscard draining a test response body
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					rec.code = resp.StatusCode
				}
				ls.mu.Lock()
				ls.recs = append(ls.recs, rec)
				ls.mu.Unlock()
			}
		}(w)
	}
	return ls
}

// TestBatchOverloadStorm drives the batched marginal route through the
// full admission stack alongside single-query traffic. The batch route
// must participate in overload control exactly like the single route:
// a mixed ~2× storm sheds with fast 429s rather than 500s or queue
// collapse, neither protocol starves the other, and batches that are
// answered are answered completely.
func TestBatchOverloadStorm(t *testing.T) {
	const delay = 5 * time.Millisecond
	vs := &varSlow{Querier: durabilitySyn(7)}
	vs.SetDelay(delay)
	srv := server.New(vs, server.Options{
		MaxK:         9,
		QueryTimeout: 2 * time.Second,
		Logger:       log.New(io.Discard, "", 0),
		Admission: admission.Config{
			TargetDelay:  10 * time.Millisecond,
			Interval:     50 * time.Millisecond,
			MaxQueue:     8,
			InitialLimit: 8,
			MinLimit:     2,
			MaxLimit:     8,
		},
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Probe: an answered batch is complete, in request order, with the
	// right cell counts — under no load first, so a storm-phase failure
	// below is attributable to overload handling, not the route itself.
	resp, err := http.Post(ts.URL+"/v1/marginals", "application/json",
		strings.NewReader(`{"queries":[{"attrs":[0,1]},{"attrs":[2]},{"attrs":[1,0]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	var probe struct {
		Results []struct {
			Attrs []int     `json:"attrs"`
			Cells []float64 `json:"cells"`
		} `json:"results"`
	}
	code := resp.StatusCode
	err = json.NewDecoder(resp.Body).Decode(&probe)
	resp.Body.Close()
	if code != http.StatusOK || err != nil {
		t.Fatalf("probe batch: status %d, decode err %v", code, err)
	}
	if len(probe.Results) != 3 || len(probe.Results[0].Cells) != 4 || len(probe.Results[1].Cells) != 2 {
		t.Fatalf("probe batch shape: %+v", probe.Results)
	}

	// Batch-only baseline establishes that the route carries goodput.
	bls := startBatchLoad(ts.URL, 4)
	time.Sleep(700 * time.Millisecond)
	base := summarize("batch-baseline", 700*time.Millisecond, bls.halt())
	t.Logf("batch baseline: %d requests, codes %v, goodput %.0f rps", base.Requests, base.Codes, base.GoodputRPS)
	if base.GoodputRPS == 0 {
		t.Fatal("batch baseline produced no successful requests")
	}

	// Mixed storm: singles and batches compete for the same slots, with
	// far more streams in flight than the limit plus queue can hold.
	singles := startLoad(ts.URL, "/v1/marginal", 16, 0)
	batches := startBatchLoad(ts.URL, 16)
	time.Sleep(time.Second)
	srecs := singles.halt()
	brecs := batches.halt()
	sPhase := summarize("storm-singles", time.Second, srecs)
	bPhase := summarize("storm-batches", time.Second, brecs)
	t.Logf("mixed storm: singles %v, batches %v", sPhase.Codes, bPhase.Codes)

	okKey := fmt.Sprint(http.StatusOK)
	shedCount := func(codes map[string]int) int {
		return codes[fmt.Sprint(http.StatusTooManyRequests)] +
			codes[fmt.Sprint(http.StatusServiceUnavailable)] +
			codes[fmt.Sprint(http.StatusGatewayTimeout)]
	}
	if bPhase.Codes[okKey] == 0 {
		t.Error("batch route starved during mixed storm — no batch was served")
	}
	if sPhase.Codes[okKey] == 0 {
		t.Error("single route starved during mixed storm — no single query was served")
	}
	if shedCount(sPhase.Codes)+shedCount(bPhase.Codes) == 0 {
		t.Error("an over-capacity mixed storm shed nothing — admission control never engaged on the batch route")
	}
	for _, codes := range []map[string]int{sPhase.Codes, bPhase.Codes} {
		if n := codes[fmt.Sprint(http.StatusInternalServerError)]; n > 0 {
			t.Errorf("storm produced %d 500s — overload must shed, not fail", n)
		}
	}

	// The admission counters must attribute the storm.
	statsResp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer statsResp.Body.Close()
	var stats struct {
		Admission *admission.Stats `json:"admission"`
	}
	if err := json.NewDecoder(statsResp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Admission == nil || stats.Admission.Admitted == 0 {
		t.Fatalf("admission stats missing or empty: %+v", stats.Admission)
	}
	// The phase partitions are logged rather than written to the CI
	// artifact path: TestOverloadStorm owns PRIVIEW_OVERLOAD_REPORT.
}

// TestRetryAmplificationBounded proves the client-side retry budget
// bounds amplification during a full outage: with RetryBudget 0.1 and
// a burst of 1, 100 requests against a hard-down server may cost at
// most 110 wire attempts (measured: ~101), where the unbudgeted client
// would cost MaxAttempts×100.
func TestRetryAmplificationBounded(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	c := server.NewClient(ts.URL, nil, server.RetryPolicy{
		MaxAttempts: 4,
		BaseDelay:   time.Millisecond,
		MaxDelay:    2 * time.Millisecond,
		RetryBudget: 0.1,
		RetryBurst:  1,
	})
	const n = 100
	budgetErrs := 0
	for i := 0; i < n; i++ {
		_, err := c.MarginalsContext(context.Background(), []core.BatchRequest{{Attrs: []int{0, 1}}})
		if err == nil {
			t.Fatal("outage request succeeded")
		}
		if errors.Is(err, server.ErrRetryBudget) {
			budgetErrs++
		}
	}
	amplification := float64(hits.Load()) / float64(n)
	t.Logf("%d requests cost %d attempts: amplification %.3f (budget denied %d)", n, hits.Load(), amplification, budgetErrs)
	if amplification > 1.1 {
		t.Errorf("retry amplification %.3f exceeds 1.1 with a 0.1 retry budget", amplification)
	}
	if budgetErrs == 0 {
		t.Error("the exhausted budget never surfaced as ErrRetryBudget")
	}
}

// TestGreedyTenantFairness floods one release through the full Multi
// stack while a well-behaved tenant queries its own release within
// quota. The greedy tenant must degrade to its token-bucket rate (429s
// with Retry-After), and the polite tenant must see a 0% error rate —
// per-tenant buckets, not shared luck, are the fairness mechanism.
func TestGreedyTenantFairness(t *testing.T) {
	root := t.TempDir()
	for i, name := range []string{"greedy", "polite"} {
		st, err := snapshot.NewStore(filepath.Join(root, name), 3)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Save(durabilitySyn(int64(i + 1))); err != nil {
			t.Fatal(err)
		}
	}
	reg, err := registry.New(root, registry.Options{
		TenantRPS:    50,
		TenantBurst:  25,
		MaxInflight:  64,
		CacheEntries: 512,
		CacheBytes:   1 << 20,
		Logger:       log.New(io.Discard, "", 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	m := server.NewMulti(reg, "", server.Options{
		MaxK:         9,
		QueryTimeout: 2 * time.Second,
		Logger:       log.New(io.Discard, "", 0),
		// Adaptive admission is on, sized so the router itself never
		// becomes the bottleneck — fairness must come from the buckets.
		Admission: admission.Config{InitialLimit: 32, MinLimit: 16, MaxLimit: 64, MaxQueue: 64},
	})
	ts := httptest.NewServer(m)
	defer ts.Close()

	// Warm both releases so neither stream pays the cold load.
	for _, name := range []string{"greedy", "polite"} {
		resp, err := http.Get(ts.URL + "/v1/" + name + "/marginal?attrs=0,1")
		if err != nil {
			t.Fatal(err)
		}
		//lint:ignore errdiscard draining a test response body
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s warmup = %d, want 200", name, resp.StatusCode)
		}
	}

	greedy := startLoad(ts.URL, "/v1/greedy/marginal", 8, 0)
	polite := startLoad(ts.URL, "/v1/polite/marginal", 1, 50*time.Millisecond) // ~20 rps, well under 50
	time.Sleep(time.Second)
	greedyRecs := greedy.halt()
	politeRecs := polite.halt()

	var politeBad, greedyLimited int
	for _, rec := range politeRecs {
		if rec.code != http.StatusOK {
			politeBad++
		}
	}
	for _, rec := range greedyRecs {
		if rec.code == http.StatusTooManyRequests {
			greedyLimited++
		}
	}
	t.Logf("greedy: %d requests (%d rate limited); polite: %d requests (%d errors)",
		len(greedyRecs), greedyLimited, len(politeRecs), politeBad)
	if politeBad > 0 {
		t.Errorf("polite tenant saw %d non-200 responses while greedy flooded", politeBad)
	}
	if greedyLimited == 0 {
		t.Error("greedy tenant was never rate limited")
	}

	// The per-release stats surface must attribute the limiting.
	for name, want := range map[string]bool{"greedy": true, "polite": false} {
		resp, err := http.Get(ts.URL + "/v1/" + name + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		var s registry.ReleaseStats
		err = json.NewDecoder(resp.Body).Decode(&s)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if limited := s.RateLimited > 0; limited != want {
			t.Errorf("%s rate_limited = %d, want >0 == %v", name, s.RateLimited, want)
		}
	}
}
