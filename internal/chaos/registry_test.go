package chaos

import (
	"encoding/json"
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
	"testing"
	"time"

	"priview/internal/admission"
	"priview/internal/registry"
	"priview/internal/server"
	"priview/internal/snapshot"
	"priview/internal/telemetry"
)

// registryChaosFixture is the multi-tenant isolation rig: two real
// tenants on disk behind a registry and the full Multi middleware
// stack, with a TenantLoader pinning every injected fault to alpha.
type registryChaosFixture struct {
	root   string
	loader *TenantLoader
	reg    *registry.Registry
	ts     *httptest.Server
}

func newRegistryChaosFixture(t *testing.T) *registryChaosFixture {
	t.Helper()
	root := t.TempDir()
	for i, name := range []string{"alpha", "beta"} {
		st, err := snapshot.NewStore(filepath.Join(root, name), 3)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Save(durabilitySyn(int64(i + 1))); err != nil {
			t.Fatal(err)
		}
	}
	loader := &TenantLoader{Target: "alpha"}
	// One shared telemetry registry, as priview-serve wires it: the
	// mid-storm scrape must see the release families and the HTTP
	// families on the same surface.
	tel := telemetry.NewRegistry()
	reg, err := registry.New(root, registry.Options{
		Loader:           loader,
		BreakerThreshold: 3,
		BreakerCooldown:  200 * time.Millisecond,
		BackoffBase:      10 * time.Millisecond,
		BackoffMax:       50 * time.Millisecond,
		MaxInflight:      64,
		CacheEntries:     512,
		CacheBytes:       1 << 20,
		Logger:           log.New(io.Discard, "", 0),
		Metrics:          server.NewMetrics(tel),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(reg.Close)
	m := server.NewMulti(reg, "beta", server.Options{
		MaxK:         9,
		QueryTimeout: time.Second,
		Logger:       log.New(io.Discard, "", 0),
		Telemetry:    tel,
		// The admission limit is pinned above the test's concurrency, so
		// the router itself never queues or sheds — isolation must come
		// from the registry.
		Admission: admission.Config{Limit: 32},
	})
	ts := httptest.NewServer(m)
	t.Cleanup(ts.Close)
	return &registryChaosFixture{root: root, loader: loader, reg: reg, ts: ts}
}

// get fetches a path and returns the status code.
func (fx *registryChaosFixture) get(t *testing.T, path string) int {
	t.Helper()
	resp, err := http.Get(fx.ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	//lint:ignore errdiscard draining a test response body
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// alphaStats decodes /v1/alpha/stats — the isolation proof reads the
// same observability surface operators do.
func (fx *registryChaosFixture) alphaStats(t *testing.T) registry.ReleaseStats {
	t.Helper()
	resp, err := http.Get(fx.ts.URL + "/v1/alpha/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats = %d, want 200 (stats must answer even for a broken tenant)", resp.StatusCode)
	}
	var s registry.ReleaseStats
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		t.Fatal(err)
	}
	return s
}

// rewriteAlphaSnapshots overwrites every one of alpha's snapshot files
// through write — a fault applied at rest, to the whole history, so the
// store's fallback walk finds no good file behind the newest.
func (fx *registryChaosFixture) rewriteAlphaSnapshots(t *testing.T, write func(path string) error) {
	t.Helper()
	dir := filepath.Join(fx.root, "alpha")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	rewritten := 0
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "snapshot-") && strings.HasSuffix(e.Name(), ".json") {
			if err := write(filepath.Join(dir, e.Name())); err != nil {
				t.Fatal(err)
			}
			rewritten++
		}
	}
	if rewritten == 0 {
		t.Fatal("no alpha snapshots found to rewrite")
	}
}

// repairAlpha saves a fresh valid snapshot into alpha's store.
func (fx *registryChaosFixture) repairAlpha(t *testing.T) {
	t.Helper()
	st, err := snapshot.NewStore(filepath.Join(fx.root, "alpha"), 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Save(durabilitySyn(7)); err != nil {
		t.Fatal(err)
	}
}

// betaSamples pools what the beta stream recorded over one side of the
// isolation comparison: every latency and every non-200 status.
type betaSamples struct {
	mu        sync.Mutex
	latencies []time.Duration
	badCodes  []int
}

// streamBeta runs fn while workers concurrent query loops hammer beta,
// recording into rec, and returns once fn has returned and every loop
// has stopped.
func (fx *registryChaosFixture) streamBeta(workers int, rec *betaSamples, fn func()) {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := &http.Client{Timeout: 10 * time.Second}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				a := (w + i) % 9
				b := (a + 1 + i%7) % 9
				if b == a {
					b = (a + 1) % 9
				}
				start := time.Now()
				resp, err := client.Get(fx.ts.URL + fmt.Sprintf("/v1/beta/marginal?attrs=%d,%d", a, b))
				elapsed := time.Since(start)
				code := 0
				if err == nil {
					//lint:ignore errdiscard draining a test response body
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					code = resp.StatusCode
				}
				rec.mu.Lock()
				rec.latencies = append(rec.latencies, elapsed)
				if code != http.StatusOK {
					rec.badCodes = append(rec.badCodes, code)
				}
				rec.mu.Unlock()
			}
		}(w)
	}
	// Deferred so a t.Fatal inside fn still stops the loops.
	defer func() {
		close(stop)
		wg.Wait()
	}()
	fn()
}

func p99(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[len(sorted)*99/100]
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRegistryTenantIsolation is the multi-tenant headline proof:
// three distinct faults (torn snapshots, snapshots that only the audit
// rejects, a loader slower than the query deadline) are pinned to
// release alpha while 12 workers stream queries against release beta
// through the full middleware stack. Beta must see zero non-200
// responses, keep its p99 within 2× its fault-free p99 and never stall
// anywhere near the query deadline, while alpha's breaker trips,
// half-opens, and — once the tenant is repaired — recovers, all
// observed through /v1/alpha/stats.
//
// The fault-free p99 pools quiet windows interleaved with the fault
// phases: one before each phase and one after recovery, each with no
// alpha fault armed and no alpha request in flight. Load from outside
// the test (another process on the host) then lands on both sides of
// the comparison instead of on the faulted side alone.
func TestRegistryTenantIsolation(t *testing.T) {
	fx := newRegistryChaosFixture(t)
	const workers = 12
	var quiet, faulted betaSamples
	quietWindow := func() {
		fx.streamBeta(workers, &quiet, func() { time.Sleep(100 * time.Millisecond) })
	}

	if code := fx.get(t, "/v1/beta/marginal?attrs=0,1"); code != http.StatusOK {
		t.Fatalf("beta warmup = %d, want 200", code)
	}

	// Phase 1 — torn snapshots: every alpha file is garbage, so loads
	// strike until the breaker opens. Alpha must fail fast (503), and
	// never 200. Repairing the files disarms the fault.
	quietWindow()
	var s registry.ReleaseStats
	fx.streamBeta(workers, &faulted, func() {
		fx.rewriteAlphaSnapshots(t, func(path string) error { return os.WriteFile(path, []byte(`{"torn`), 0o644) })
		waitFor(t, 10*time.Second, "alpha breaker to open on torn snapshots", func() bool {
			if code := fx.get(t, "/v1/alpha/marginal?attrs=0,1"); code == http.StatusOK {
				t.Fatalf("alpha served 200 from torn snapshots")
			}
			return fx.alphaStats(t).Breaker == "open"
		})
		s = fx.alphaStats(t)
		if s.BreakerTrips < 1 || s.LoadFailures < uint64(3) {
			t.Errorf("torn phase: trips %d failures %d, want ≥1 and ≥3", s.BreakerTrips, s.LoadFailures)
		}
	})
	fx.repairAlpha(t)

	// Phase 2 — audit-failing snapshots: every alpha file checksums and
	// decodes cleanly, but its views disagree. Only the registry's
	// audit, run on each candidate of the store's walk, stands between
	// those files and clients: each is quarantined, and the half-open
	// probe must strike and re-open the breaker.
	poisoned, err := AuditFailing(durabilitySyn(8))
	if err != nil {
		t.Fatal(err)
	}
	quietWindow()
	fx.streamBeta(workers, &faulted, func() {
		fx.rewriteAlphaSnapshots(t, func(path string) error { return snapshot.WriteFile(snapshot.OS{}, path, poisoned) })
		tripsBefore := s.BreakerTrips
		waitFor(t, 10*time.Second, "alpha breaker to re-open on poisoned probe", func() bool {
			if code := fx.get(t, "/v1/alpha/marginal?attrs=0,1"); code == http.StatusOK {
				t.Fatalf("alpha served 200 from an audit-failing snapshot")
			}
			st := fx.alphaStats(t)
			return st.BreakerTrips > tripsBefore && st.Breaker == "open"
		})
		s = fx.alphaStats(t)
		if s.HalfOpenProbes < 1 {
			t.Errorf("poison phase ran no half-open probe (probes=%d)", s.HalfOpenProbes)
		}
		if !strings.Contains(s.LastError, "audit") {
			t.Errorf("poison phase last_error = %q, want an audit failure", s.LastError)
		}
	})
	fx.repairAlpha(t)

	// Phase 3 — slow loader: loads stall past the query deadline. The
	// client gets a truthful 504, the strike re-opens the breaker, and
	// (key isolation property) the stalled probe is the only load slot
	// alpha can occupy — beta's stream keeps running.
	quietWindow()
	fx.streamBeta(workers, &faulted, func() {
		fx.loader.SetDelay(3 * time.Second)
		tripsBefore := s.BreakerTrips
		saw504 := false
		waitFor(t, 15*time.Second, "alpha breaker to re-open on slow loads", func() bool {
			code := fx.get(t, "/v1/alpha/marginal?attrs=0,1")
			if code == http.StatusOK {
				t.Fatalf("alpha served 200 through a 3s loader with a 1s deadline")
			}
			if code == http.StatusGatewayTimeout {
				saw504 = true
			}
			st := fx.alphaStats(t)
			return st.BreakerTrips > tripsBefore && st.Breaker == "open"
		})
		if !saw504 {
			t.Error("slow-loader phase never surfaced a 504 to the caller")
		}

		// Recovery: faults off, tenant intact. After the cooldown the
		// next probe must succeed and close the breaker.
		fx.loader.SetDelay(0)
		waitFor(t, 10*time.Second, "alpha to recover after faults cleared", func() bool {
			return fx.get(t, "/v1/alpha/marginal?attrs=0,1") == http.StatusOK
		})
		s = fx.alphaStats(t)
		if s.Breaker != "closed" || !s.Loaded {
			t.Errorf("recovered alpha: breaker %q loaded %v, want closed true", s.Breaker, s.Loaded)
		}
		if s.BreakerTrips < 3 {
			t.Errorf("full run tripped %d times, want ≥3 (one per fault phase)", s.BreakerTrips)
		}

		// Mid-storm scrape: the beta stream is still live, so the
		// exposition renders while its counters are being hammered, and
		// the strict parse re-checks every invariant. Alpha's fault
		// history and beta's cache traffic must share the surface.
		fams := scrapeMetrics(t, fx.ts.URL)
		if v := mustSample(t, fams, "priview_release_breaker_trips_total",
			"priview_release_breaker_trips_total", map[string]string{"release": "alpha"}); v < 3 {
			t.Errorf("breaker_trips{alpha} = %v on /metrics, want ≥ 3", v)
		}
		if v := mustSample(t, fams, "priview_release_load_failures_total",
			"priview_release_load_failures_total", map[string]string{"release": "alpha"}); v < 3 {
			t.Errorf("load_failures{alpha} = %v on /metrics, want ≥ 3", v)
		}
		if v := mustSample(t, fams, "priview_qcache_hits_total",
			"priview_qcache_hits_total", map[string]string{"release": "beta"}); v < 1 {
			t.Errorf("qcache_hits{beta} = %v on /metrics, want ≥ 1", v)
		}
		mustSample(t, fams, "priview_http_requests_total",
			"priview_http_requests_total", map[string]string{"route": "/v1/{release}/marginal", "status": "2xx"})
	})
	quietWindow()

	// The verdict: beta never saw a single failure and its tail
	// latency under every alpha fault stayed within bounds of its quiet
	// windows'.
	if len(quiet.badCodes) > 0 {
		t.Fatalf("quiet beta windows had %d non-200s: %v", len(quiet.badCodes), quiet.badCodes[:min(len(quiet.badCodes), 10)])
	}
	quietP99 := p99(quiet.latencies)
	// Deflake floor: on a tiny baseline, 2× can be microseconds.
	p99Limit := 2 * quietP99
	if floor := quietP99 + 25*time.Millisecond; p99Limit < floor {
		p99Limit = floor
	}
	if len(faulted.badCodes) > 0 {
		t.Errorf("beta stream saw %d non-200 responses during alpha faults: %v", len(faulted.badCodes), faulted.badCodes[:min(len(faulted.badCodes), 10)])
	}
	faultedP99 := p99(faulted.latencies)
	// The p99 cannot see a stall that hits under 1% of beta's samples,
	// so the slowest faulted sample is bounded too. Each alpha fault
	// holds a load for up to the 1 s query deadline, so a beta request
	// coupled to one waits hundreds of milliseconds, while beta's own
	// traffic stays within a few times its quiet p99.
	stallLimit := max(10*quietP99, 250*time.Millisecond)
	var faultedMax time.Duration
	for _, d := range faulted.latencies {
		faultedMax = max(faultedMax, d)
	}
	t.Logf("quiet windows: %d beta queries, p99 %v; faulted phases: %d beta queries, p99 %v (limit %v), slowest %v (limit %v)",
		len(quiet.latencies), quietP99, len(faulted.latencies), faultedP99, p99Limit, faultedMax, stallLimit)
	if faultedP99 > p99Limit {
		t.Errorf("beta p99 %v exceeded %v (quiet p99 %v) while alpha faulted", faultedP99, p99Limit, quietP99)
	}
	if faultedMax > stallLimit {
		t.Errorf("a beta request took %v, over %v (quiet p99 %v), while alpha faulted: a cross-tenant stall", faultedMax, stallLimit, quietP99)
	}
}
