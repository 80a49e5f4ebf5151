package registry_test

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
	"strings"
	"sync"
	"testing"
	"time"

	"priview"
	"priview/internal/core"
	"priview/internal/registry"
	"priview/internal/server"
	"priview/internal/snapshot"
	"priview/internal/telemetry"
)

// buildSyn returns a small synopsis with seed-dependent content.
func buildSyn(t *testing.T, seed int64) *core.Synopsis {
	t.Helper()
	return buildSynD(t, 6, seed)
}

// buildSynD is buildSyn over d attributes.
func buildSynD(t *testing.T, d int, seed int64) *core.Synopsis {
	t.Helper()
	records := make([]uint64, 200)
	for i := range records {
		records[i] = uint64(i*2654435761) & ((1 << d) - 1)
	}
	data := priview.NewDataset(d, records)
	plan := priview.PlanDesign(d, data.Len(), 1.0, 1)
	return priview.Build(data, priview.Config{Epsilon: 1.0, Design: plan.Design}, seed)
}

// saveRelease creates root/name as a snapshot store holding one
// freshly built synopsis, returning the store for later saves.
func saveRelease(t *testing.T, root, name string, seed int64) *snapshot.Store {
	t.Helper()
	st, err := snapshot.NewStore(filepath.Join(root, name), 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Save(buildSyn(t, seed)); err != nil {
		t.Fatal(err)
	}
	return st
}

// fakeClock is an injectable deterministic clock: breaker cooldowns
// and backoffs elapse only when the test advances it.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_000_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// flakyLoader fails on demand; otherwise it defers to the source.
type flakyLoader struct {
	mu    sync.Mutex
	fail  bool
	calls int
}

func (l *flakyLoader) setFail(v bool) {
	l.mu.Lock()
	l.fail = v
	l.mu.Unlock()
}

func (l *flakyLoader) Load(_ context.Context, _ string, src snapshot.Source, check snapshot.Check) (server.Querier, *snapshot.LoadResult, error) {
	l.mu.Lock()
	l.calls++
	fail := l.fail
	l.mu.Unlock()
	if fail {
		return nil, nil, errors.New("injected load failure")
	}
	return loadSource(src, check)
}

// loadSource is what the default loader does: serve the synopsis src
// reads and check passes.
func loadSource(src snapshot.Source, check snapshot.Check) (server.Querier, *snapshot.LoadResult, error) {
	res, err := src.Load(check)
	if err != nil {
		return nil, nil, err
	}
	return res.Synopsis, res, nil
}

func quietOpts() registry.Options {
	return registry.Options{Logger: log.New(io.Discard, "", 0)}
}

func stats(t *testing.T, reg *registry.Registry, name string) registry.ReleaseStats {
	t.Helper()
	v, err := reg.ReleaseStats(name)
	if err != nil {
		t.Fatalf("ReleaseStats(%s): %v", name, err)
	}
	return v.(registry.ReleaseStats)
}

// queryOne answers one query through q's batch surface: a one-member
// batch, as a GET reaches a release's querier.
func queryOne(q server.Querier, attrs []int) error {
	_, err := q.QueryBatch(context.Background(), []core.BatchRequest{{Attrs: attrs, Method: core.CME}}, core.BatchOptions{})
	return err
}

func mustQuery(t *testing.T, q server.Querier) {
	t.Helper()
	if err := queryOne(q, []int{0, 1}); err != nil {
		t.Fatalf("query through acquired querier: %v", err)
	}
}

func TestLazyLoadSingleflight(t *testing.T) {
	root := t.TempDir()
	saveRelease(t, root, "alpha", 1)
	started := make(chan struct{})
	unblock := make(chan struct{})
	loader := &gateLoader{started: started, unblock: unblock}
	reg, err := registry.New(root, registry.Options{Loader: loader, Logger: log.New(io.Discard, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q, release, err := reg.Acquire(context.Background(), "alpha")
			if err != nil {
				errs[i] = err
				return
			}
			defer release()
			errs[i] = queryOne(q, []int{0, 1})
		}(i)
	}
	<-started      // one leader is inside the loader
	close(unblock) // let it finish; waiters share the result
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("worker %d: %v", i, err)
		}
	}
	if got := loader.loads(); got != 1 {
		t.Errorf("loader ran %d times, want 1 (singleflight)", got)
	}
	if s := stats(t, reg, "alpha"); s.LoadAttempts != 1 || !s.Loaded {
		t.Errorf("stats = attempts %d loaded %v, want 1 true", s.LoadAttempts, s.Loaded)
	}
}

// gateLoader signals when a load starts and blocks it until released.
type gateLoader struct {
	started chan struct{}
	unblock chan struct{}
	mu      sync.Mutex
	calls   int
	once    sync.Once
}

func (l *gateLoader) loads() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.calls
}

func (l *gateLoader) Load(_ context.Context, _ string, src snapshot.Source, check snapshot.Check) (server.Querier, *snapshot.LoadResult, error) {
	l.mu.Lock()
	l.calls++
	l.mu.Unlock()
	l.once.Do(func() { close(l.started) })
	<-l.unblock
	return loadSource(src, check)
}

func TestUnknownAndInvalidReleaseNames(t *testing.T) {
	root := t.TempDir()
	saveRelease(t, root, "alpha", 1)
	reg, err := registry.New(root, quietOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	for _, name := range []string{"nonesuch", "../alpha", ".hidden", "a/b", ""} {
		if _, _, err := reg.Acquire(context.Background(), name); !errors.Is(err, server.ErrUnknownRelease) {
			t.Errorf("Acquire(%q) = %v, want ErrUnknownRelease", name, err)
		}
	}
	if _, err := reg.ReleaseStats("nonesuch"); !errors.Is(err, server.ErrUnknownRelease) {
		t.Errorf("ReleaseStats(nonesuch) = %v, want ErrUnknownRelease", err)
	}
}

// TestLazyDiscovery proves a directory dropped into the root serves on
// first query, before any reconcile runs.
func TestLazyDiscovery(t *testing.T) {
	root := t.TempDir()
	reg, err := registry.New(root, quietOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	saveRelease(t, root, "late", 3)
	q, release, err := reg.Acquire(context.Background(), "late")
	if err != nil {
		t.Fatalf("Acquire after drop-in: %v", err)
	}
	defer release()
	mustQuery(t, q)
}

// TestSingleRelease pins the fixed one-release registry behind
// -synopsis and -store: no lazy discovery, no bulkhead or rate limit,
// and a Reconcile that reloads only when the source's version changes.
func TestSingleRelease(t *testing.T) {
	root := t.TempDir()
	st := saveRelease(t, root, "alpha", 1)
	saveRelease(t, root, "beta", 2) // a sibling directory Single must never discover
	opt := quietOpts()
	opt.MaxInflight, opt.TenantRPS = 4, 100 // ignored: admission is the only gate
	reg := registry.Single("alpha", st, opt)
	defer reg.Close()
	ctx := context.Background()

	if !reg.Ready() || fmt.Sprint(reg.Releases()) != "[alpha]" {
		t.Fatalf("Ready %v, Releases %v; want true, [alpha]", reg.Ready(), reg.Releases())
	}
	if _, _, err := reg.Acquire(ctx, "beta"); !errors.Is(err, server.ErrUnknownRelease) {
		t.Errorf("Acquire(beta) = %v, want ErrUnknownRelease", err)
	}
	q, release, err := reg.Acquire(ctx, "alpha")
	if err != nil {
		t.Fatal(err)
	}
	mustQuery(t, q)
	release()
	if s := stats(t, reg, "alpha"); s.InflightLimit != 0 || s.RateLimitRPS != 0 || !s.Cache {
		t.Errorf("stats = inflight limit %d, rate %v, cache %v; want 0, 0, true", s.InflightLimit, s.RateLimitRPS, s.Cache)
	}

	if err := reg.Reconcile(ctx); err != nil {
		t.Fatal(err)
	}
	if s := stats(t, reg, "alpha"); s.Reloads != 0 || s.CacheStats.Entries != 1 {
		t.Errorf("unchanged source: reloads %d, cache entries %d; want 0, 1", s.Reloads, s.CacheStats.Entries)
	}
	if _, err := st.Save(buildSyn(t, 3)); err != nil {
		t.Fatal(err)
	}
	if err := reg.Reconcile(ctx); err != nil {
		t.Fatal(err)
	}
	if s := stats(t, reg, "alpha"); s.Reloads != 1 || s.Snapshot != "snapshot-000002.json" {
		t.Errorf("new snapshot: reloads %d, snapshot %q; want 1, snapshot-000002.json", s.Reloads, s.Snapshot)
	}
}

// TestCacheOffOnlyWhenBothBoundsDisabled pins the one cache-disable
// rule: a negative entry bound only lifts that bound, so a byte budget
// alone keeps the cache on.
func TestCacheOffOnlyWhenBothBoundsDisabled(t *testing.T) {
	root := t.TempDir()
	saveRelease(t, root, "alpha", 1)
	for _, tc := range []struct {
		entries int
		bytes   int64
		want    bool
	}{{-1, 1 << 20, true}, {16, -1, true}, {-1, -1, false}} {
		opt := quietOpts()
		opt.CacheEntries, opt.CacheBytes = tc.entries, tc.bytes
		reg, err := registry.New(root, opt)
		if err != nil {
			t.Fatal(err)
		}
		_, release, err := reg.Acquire(context.Background(), "alpha")
		if err != nil {
			t.Fatal(err)
		}
		release()
		blob, err := json.Marshal(stats(t, reg, "alpha"))
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Contains(string(blob), `"cache":true`); got != tc.want {
			t.Errorf("CacheEntries %d, CacheBytes %d: stats %s, want cache %v", tc.entries, tc.bytes, blob, tc.want)
		}
		reg.Close()
	}
}

func TestBulkheadSheds(t *testing.T) {
	root := t.TempDir()
	saveRelease(t, root, "alpha", 1)
	opt := quietOpts()
	opt.MaxInflight = 1
	reg, err := registry.New(root, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	_, release, err := reg.Acquire(context.Background(), "alpha")
	if err != nil {
		t.Fatal(err)
	}
	var saturated *server.SaturatedError
	if _, _, err := reg.Acquire(context.Background(), "alpha"); !errors.As(err, &saturated) {
		t.Fatalf("second acquire = %v, want SaturatedError", err)
	}
	if saturated.RetryAfter <= 0 {
		t.Error("SaturatedError carries no Retry-After hint")
	}
	if s := stats(t, reg, "alpha"); s.Shed != 1 || s.Inflight != 1 || s.InflightLimit != 1 {
		t.Errorf("stats = shed %d inflight %d/%d, want 1 1/1", s.Shed, s.Inflight, s.InflightLimit)
	}
	release()
	release() // idempotent: a second call must not free a second permit
	_, release, err = reg.Acquire(context.Background(), "alpha")
	if err != nil {
		t.Fatalf("acquire after release: %v", err)
	}
	release()
}

func TestBreakerTripHalfOpenRecover(t *testing.T) {
	root := t.TempDir()
	saveRelease(t, root, "alpha", 1)
	clock := newFakeClock()
	loader := &flakyLoader{fail: true}
	opt := quietOpts()
	opt.Loader = loader
	opt.Now = clock.Now
	opt.BreakerThreshold = 2
	opt.BreakerCooldown = 10 * time.Second
	opt.BackoffBase = 100 * time.Millisecond
	reg, err := registry.New(root, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	ctx := context.Background()

	var unavailable *server.UnavailableError
	// Strike one: closed, in backoff.
	if _, _, err := reg.Acquire(ctx, "alpha"); !errors.As(err, &unavailable) {
		t.Fatalf("first failing acquire = %v, want UnavailableError", err)
	}
	if s := stats(t, reg, "alpha"); s.Breaker != "closed" || s.ConsecutiveFailures != 1 {
		t.Fatalf("after one strike: breaker %q fails %d, want closed 1", s.Breaker, s.ConsecutiveFailures)
	}
	// Strike two trips the breaker (advance past the backoff first).
	clock.Advance(time.Second)
	if _, _, err := reg.Acquire(ctx, "alpha"); !errors.As(err, &unavailable) {
		t.Fatalf("second failing acquire = %v, want UnavailableError", err)
	}
	s := stats(t, reg, "alpha")
	if s.Breaker != "open" || s.BreakerTrips != 1 {
		t.Fatalf("after threshold: breaker %q trips %d, want open 1", s.Breaker, s.BreakerTrips)
	}
	// Open: fast-fail without touching the loader.
	before := loader.calls
	if _, _, err := reg.Acquire(ctx, "alpha"); !errors.As(err, &unavailable) {
		t.Fatalf("open-breaker acquire = %v, want UnavailableError", err)
	}
	if unavailable.RetryAfter <= 0 || unavailable.RetryAfter > opt.BreakerCooldown {
		t.Errorf("open-breaker Retry-After = %v, want in (0, %v]", unavailable.RetryAfter, opt.BreakerCooldown)
	}
	if loader.calls != before {
		t.Error("open breaker still reached the loader")
	}
	if s := stats(t, reg, "alpha"); s.BreakerRejects == 0 {
		t.Error("fast-fail did not count a breaker reject")
	}
	// Cooldown elapses; the probe runs, still fails, breaker re-opens.
	clock.Advance(opt.BreakerCooldown + time.Second)
	if _, _, err := reg.Acquire(ctx, "alpha"); !errors.As(err, &unavailable) {
		t.Fatalf("probe acquire = %v, want UnavailableError", err)
	}
	s = stats(t, reg, "alpha")
	if s.HalfOpenProbes != 1 || s.Breaker != "open" || s.BreakerTrips != 2 {
		t.Fatalf("failed probe: probes %d breaker %q trips %d, want 1 open 2", s.HalfOpenProbes, s.Breaker, s.BreakerTrips)
	}
	// Repair the tenant; next probe recovers it.
	loader.setFail(false)
	clock.Advance(opt.BreakerCooldown + time.Second)
	q, release, err := reg.Acquire(ctx, "alpha")
	if err != nil {
		t.Fatalf("recovery probe = %v, want success", err)
	}
	defer release()
	mustQuery(t, q)
	s = stats(t, reg, "alpha")
	if s.Breaker != "closed" || !s.Loaded || s.ConsecutiveFailures != 0 {
		t.Errorf("after recovery: breaker %q loaded %v fails %d, want closed true 0", s.Breaker, s.Loaded, s.ConsecutiveFailures)
	}
	if s.HalfOpenProbes != 2 {
		t.Errorf("recovery probes = %d, want 2", s.HalfOpenProbes)
	}
}

func TestBackoffBetweenFailures(t *testing.T) {
	root := t.TempDir()
	saveRelease(t, root, "alpha", 1)
	clock := newFakeClock()
	loader := &flakyLoader{fail: true}
	opt := quietOpts()
	opt.Loader = loader
	opt.Now = clock.Now
	opt.BreakerThreshold = 10 // keep the breaker out of the way
	opt.BackoffBase = 200 * time.Millisecond
	reg, err := registry.New(root, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	ctx := context.Background()

	var unavailable *server.UnavailableError
	if _, _, err := reg.Acquire(ctx, "alpha"); !errors.As(err, &unavailable) {
		t.Fatalf("failing acquire = %v, want UnavailableError", err)
	}
	// Within the backoff window no load runs: fast reject.
	before := loader.calls
	if _, _, err := reg.Acquire(ctx, "alpha"); !errors.As(err, &unavailable) {
		t.Fatalf("backoff acquire = %v, want UnavailableError", err)
	}
	if loader.calls != before {
		t.Error("backoff window still reached the loader")
	}
	if s := stats(t, reg, "alpha"); s.BackoffRejects != 1 {
		t.Errorf("backoff rejects = %d, want 1", s.BackoffRejects)
	}
	// Past the window the next real attempt runs (and fails again,
	// doubling the backoff).
	clock.Advance(time.Second)
	if _, _, err := reg.Acquire(ctx, "alpha"); !errors.As(err, &unavailable) {
		t.Fatalf("post-backoff acquire = %v, want UnavailableError", err)
	}
	if loader.calls != before+1 {
		t.Errorf("loader calls = %d, want %d", loader.calls, before+1)
	}
}

func TestEvictionAndWarmHandoff(t *testing.T) {
	root := t.TempDir()
	saveRelease(t, root, "alpha", 1)
	saveRelease(t, root, "beta", 2)
	opt := quietOpts()
	opt.MaxLoaded = 1
	reg, err := registry.New(root, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	ctx := context.Background()

	q, release, err := reg.Acquire(ctx, "alpha")
	if err != nil {
		t.Fatal(err)
	}
	mustQuery(t, q) // caches {0,1} in alpha's cache
	release()
	if s := stats(t, reg, "alpha"); s.CacheStats.Entries != 1 {
		t.Fatalf("alpha cache entries = %d, want 1", s.CacheStats.Entries)
	}

	// Loading beta exceeds MaxLoaded=1 and evicts cold alpha.
	q, release, err = reg.Acquire(ctx, "beta")
	if err != nil {
		t.Fatal(err)
	}
	mustQuery(t, q)
	release()
	s := stats(t, reg, "alpha")
	if s.Loaded || s.Evictions != 1 || s.Cache {
		t.Fatalf("alpha after beta load: loaded %v evictions %d cache %v, want false 1 false", s.Loaded, s.Evictions, s.Cache)
	}
	if used := reg.Budget().Used(); used == 0 {
		t.Error("budget reads zero with beta's cache populated")
	}

	// Re-admitting alpha replays its hot keys into the fresh cache.
	q, release, err = reg.Acquire(ctx, "alpha")
	if err != nil {
		t.Fatal(err)
	}
	release()
	if s := stats(t, reg, "alpha"); s.Readmits != 1 || !s.Loaded {
		t.Fatalf("alpha re-admit: readmits %d loaded %v, want 1 true", s.Readmits, s.Loaded)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if s := stats(t, reg, "alpha"); s.CacheStats.Entries >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("warm handoff never replayed alpha's cached query")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestEvictedWarmReturnsBudget is the regression test for a retired
// cache that kept reserving shared budget bytes: alpha is evicted while
// its ≤5-way warm pass (637 marginals, three chunks) runs. Once every
// warm pass has ended, the shared budget must hold exactly the bytes of
// the one resident cache, beta's.
func TestEvictedWarmReturnsBudget(t *testing.T) {
	root := t.TempDir()
	for i, name := range []string{"alpha", "beta"} {
		st, err := snapshot.NewStore(filepath.Join(root, name), 3)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Save(buildSynD(t, 10, int64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	tel := telemetry.NewRegistry()
	opt := quietOpts()
	opt.MaxLoaded = 1
	opt.WarmK = 5
	opt.Metrics = server.NewMetrics(tel)
	reg, err := registry.New(root, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	// gauge reads a release's warm-pass gauge, -1 while it has none.
	gauge := func(family, name string) float64 {
		rec := httptest.NewRecorder()
		tel.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		fams, err := telemetry.ParseText(rec.Body)
		if err != nil {
			t.Fatalf("ParseText: %v", err)
		}
		if f := fams[family]; f != nil {
			if s := f.Sample(family, map[string]string{"release": name}); s != nil {
				return s.Value
			}
		}
		return -1
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(time.Millisecond)
		}
	}
	acquire := func(name string) {
		_, release, err := reg.Acquire(context.Background(), name)
		if err != nil {
			t.Fatalf("Acquire(%s): %v", name, err)
		}
		release()
	}

	acquire("alpha")
	waitFor("alpha's warm pass to start", func() bool { return gauge("priview_cache_warm_in_progress", "alpha") == 1 })
	acquire("beta") // MaxLoaded 1: evicts alpha mid-pass
	if gauge("priview_cache_warm_in_progress", "alpha") != 1 {
		t.Fatal("alpha's warm pass ended before the eviction; the test proves nothing")
	}
	if s := stats(t, reg, "alpha"); s.Loaded || s.Evictions != 1 {
		t.Fatalf("alpha after beta's load: loaded %v, evictions %d; want evicted", s.Loaded, s.Evictions)
	}
	waitFor("every warm pass to end", func() bool {
		return gauge("priview_cache_warm_in_progress", "alpha") == 0 &&
			gauge("priview_cache_warm_in_progress", "beta") == 0 &&
			gauge("priview_cache_warm_warmed", "beta")+gauge("priview_cache_warm_skipped", "beta") == 637
	})
	resident := stats(t, reg, "beta").CacheStats.Bytes
	if used := reg.Budget().Used(); used != resident {
		t.Errorf("budget holds %d bytes, resident caches %d: the evicted cache leaked %d", used, resident, used-resident)
	}
}

func TestReconcileAddRetire(t *testing.T) {
	root := t.TempDir()
	saveRelease(t, root, "alpha", 1)
	saveRelease(t, root, "beta", 2)
	reg, err := registry.New(root, quietOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	ctx := context.Background()

	if reg.Ready() {
		t.Error("Ready before the initial scan")
	}
	if err := reg.Reconcile(ctx); err != nil {
		t.Fatal(err)
	}
	if !reg.Ready() {
		t.Error("not Ready after Reconcile")
	}
	if got := fmt.Sprint(reg.Releases()); got != "[alpha beta]" {
		t.Fatalf("Releases = %v, want [alpha beta]", got)
	}

	// beta vanishes, gamma appears.
	if err := os.RemoveAll(filepath.Join(root, "beta")); err != nil {
		t.Fatal(err)
	}
	saveRelease(t, root, "gamma", 3)
	if err := reg.Reconcile(ctx); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(reg.Releases()); got != "[alpha gamma]" {
		t.Fatalf("Releases after churn = %v, want [alpha gamma]", got)
	}
	if _, _, err := reg.Acquire(ctx, "beta"); !errors.Is(err, server.ErrUnknownRelease) {
		t.Errorf("retired release acquire = %v, want ErrUnknownRelease", err)
	}
}

func TestReconcileHotReload(t *testing.T) {
	root := t.TempDir()
	st := saveRelease(t, root, "alpha", 1)
	reg, err := registry.New(root, quietOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	ctx := context.Background()

	q, release, err := reg.Acquire(ctx, "alpha")
	if err != nil {
		t.Fatal(err)
	}
	mustQuery(t, q)
	release()
	served := stats(t, reg, "alpha").Snapshot

	// A new snapshot lands; the reconciler hot-reloads through
	// keep-last-good without any query seeing a cold release.
	if _, err := st.Save(buildSyn(t, 99)); err != nil {
		t.Fatal(err)
	}
	if err := reg.Reconcile(ctx); err != nil {
		t.Fatal(err)
	}
	s := stats(t, reg, "alpha")
	if s.Reloads != 1 || !s.Loaded {
		t.Fatalf("after reload: reloads %d loaded %v, want 1 true", s.Reloads, s.Loaded)
	}
	if s.Snapshot == served || s.Snapshot == "" {
		t.Errorf("served snapshot %q did not advance past %q", s.Snapshot, served)
	}
	q, release, err = reg.Acquire(ctx, "alpha")
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	mustQuery(t, q)
}

func TestTenantRateLimit(t *testing.T) {
	root := t.TempDir()
	saveRelease(t, root, "alpha", 1)
	clock := newFakeClock()
	opt := quietOpts()
	opt.Now = clock.Now
	opt.TenantRPS = 1
	opt.TenantBurst = 1
	reg, err := registry.New(root, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	ctx := context.Background()

	_, release, err := reg.Acquire(ctx, "alpha")
	if err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	release()
	// Burst spent; the bucket refills one token per second.
	var limited *server.RateLimitedError
	if _, _, err := reg.Acquire(ctx, "alpha"); !errors.As(err, &limited) {
		t.Fatalf("over-rate acquire = %v, want RateLimitedError", err)
	}
	if limited.RetryAfter <= 0 || limited.RetryAfter > time.Second {
		t.Errorf("Retry-After = %v, want in (0, 1s]", limited.RetryAfter)
	}
	s := stats(t, reg, "alpha")
	if s.RateLimited != 1 || s.RateLimitRPS != 1 || s.Weight != 1 {
		t.Errorf("stats = rate_limited %d rps %g weight %g, want 1 1 1", s.RateLimited, s.RateLimitRPS, s.Weight)
	}
	clock.Advance(time.Second)
	_, release, err = reg.Acquire(ctx, "alpha")
	if err != nil {
		t.Fatalf("acquire after refill: %v", err)
	}
	release()
}

// TestWeightedFairness proves a release's weight scales both its
// bulkhead carve and its rate-limit bucket, with a floor of one
// inflight permit for arbitrarily small weights.
func TestWeightedFairness(t *testing.T) {
	root := t.TempDir()
	saveRelease(t, root, "heavy", 1)
	saveRelease(t, root, "light", 2)
	opt := quietOpts()
	opt.MaxInflight = 4
	opt.TenantRPS = 10
	opt.Weights = map[string]float64{"heavy": 2, "light": 0.1}
	reg, err := registry.New(root, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	ctx := context.Background()

	// Touch both so the bulkheads exist, then inspect the carves.
	for _, name := range []string{"heavy", "light"} {
		_, release, err := reg.Acquire(ctx, name)
		if err != nil {
			t.Fatalf("acquire %s: %v", name, err)
		}
		release()
	}
	h, l := stats(t, reg, "heavy"), stats(t, reg, "light")
	if h.InflightLimit != 8 || h.Weight != 2 || h.RateLimitRPS != 20 {
		t.Errorf("heavy = limit %d weight %g rps %g, want 8 2 20", h.InflightLimit, h.Weight, h.RateLimitRPS)
	}
	// 4×0.1 truncates to 0; the floor keeps one permit.
	if l.InflightLimit != 1 || l.Weight != 0.1 || l.RateLimitRPS != 1 {
		t.Errorf("light = limit %d weight %g rps %g, want 1 0.1 1", l.InflightLimit, l.Weight, l.RateLimitRPS)
	}
}

// TestGreedyTenantIsolation floods one release past its rate limit and
// proves its sibling never sees an error: per-tenant buckets are the
// isolation boundary, not a shared limiter.
func TestGreedyTenantIsolation(t *testing.T) {
	root := t.TempDir()
	saveRelease(t, root, "greedy", 1)
	saveRelease(t, root, "polite", 2)
	clock := newFakeClock()
	opt := quietOpts()
	opt.Now = clock.Now
	opt.TenantRPS = 1
	opt.TenantBurst = 1
	reg, err := registry.New(root, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	ctx := context.Background()

	var greedyLimited int
	for i := 0; i < 20; i++ {
		if _, release, err := reg.Acquire(ctx, "greedy"); err != nil {
			var limited *server.RateLimitedError
			if !errors.As(err, &limited) {
				t.Fatalf("greedy acquire %d: %v, want RateLimitedError", i, err)
			}
			greedyLimited++
		} else {
			release()
		}
		// The polite tenant stays within its own budget (one query per
		// simulated second) and must never be turned away.
		if i%2 == 0 {
			_, release, err := reg.Acquire(ctx, "polite")
			if err != nil {
				t.Fatalf("polite acquire %d: %v, want success", i, err)
			}
			release()
			clock.Advance(time.Second)
		}
	}
	if greedyLimited == 0 {
		t.Error("greedy tenant was never rate limited")
	}
	if s := stats(t, reg, "polite"); s.RateLimited != 0 {
		t.Errorf("polite tenant rate_limited = %d, want 0", s.RateLimited)
	}
}

// TestLeaseForwardsCacheOnlyQuery proves Acquire hands back the
// release's own *server.CachedQuerier, so the router reaches its
// brownout cache-only path directly: a miss (not a solve) for a cold
// query, a hit for a previously answered one.
func TestLeaseForwardsCacheOnlyQuery(t *testing.T) {
	root := t.TempDir()
	saveRelease(t, root, "alpha", 1)
	reg, err := registry.New(root, quietOpts()) // default CacheEntries > 0
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	q, release, err := reg.Acquire(context.Background(), "alpha")
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	cq, ok := q.(*server.CachedQuerier)
	if !ok {
		t.Fatalf("Acquire returned %T, want *server.CachedQuerier", q)
	}
	if _, hit := cq.QueryCached([]int{0, 1}, core.CME); hit {
		t.Error("cold cache reported a hit")
	}
	mustQuery(t, q) // populates the cache for {0,1}/CME
	tab, hit := cq.QueryCached([]int{0, 1}, core.CME)
	if !hit || tab == nil {
		t.Fatalf("warm cache miss (hit=%v tab=%v)", hit, tab)
	}
}
