package main

import (
	"context"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"priview"
	"priview/internal/chaos"
	"priview/internal/core"
	"priview/internal/registry"
	"priview/internal/server"
	"priview/internal/telemetry"
)

// buildSynopsisFile writes a tiny synopsis as a bare v1 document, the
// format `priview build` wrote before it switched to v2 containers and
// one every reader must still accept, returning its path.
func buildSynopsisFile(t *testing.T) string {
	t.Helper()
	const d = 6
	records := make([]uint64, 200)
	for i := range records {
		records[i] = uint64(i*2654435761) & ((1 << d) - 1)
	}
	data := priview.NewDataset(d, records)
	plan := priview.PlanDesign(d, data.Len(), 1.0, 1)
	syn := priview.Build(data, priview.Config{Epsilon: 1.0, Design: plan.Design}, 42)

	path := filepath.Join(t.TempDir(), "synopsis.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := syn.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// quietRegistryOpts are the registry options the tests serve with: a
// small cache, no telemetry, no log noise.
func quietRegistryOpts() registry.Options {
	return registry.Options{CacheEntries: 128, CacheBytes: 1 << 20, Logger: log.New(io.Discard, "", 0)}
}

// releaseStats reads the single release's lifecycle and cache counters.
func releaseStats(t *testing.T, reg *registry.Registry) registry.ReleaseStats {
	t.Helper()
	v, err := reg.ReleaseStats(server.DefaultRelease)
	if err != nil {
		t.Fatal(err)
	}
	return v.(registry.ReleaseStats)
}

// TestServeSmoke drives the command's own plumbing end to end: load a
// published synopsis from disk into the one-release registry the way
// main does, assemble the router, and answer health, readiness,
// marginal, stats and releases queries over a real TCP socket.
func TestServeSmoke(t *testing.T) {
	reg, err := openSingle(context.Background(), buildSynopsisFile(t), "", quietRegistryOpts())
	if err != nil {
		t.Fatalf("openSingle: %v", err)
	}
	defer reg.Close()
	srv := &http.Server{Handler: server.NewMulti(reg, server.DefaultRelease, server.Options{MaxK: 8})}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("closing server: %v", err)
		}
		if err := <-done; err != http.ErrServerClosed {
			t.Errorf("Serve returned %v, want http.ErrServerClosed", err)
		}
	})

	base := "http://" + ln.Addr().String()
	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, err := io.ReadAll(resp.Body)
		if cerr := resp.Body.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatalf("reading %s: %v", path, err)
		}
		return resp.StatusCode, string(body)
	}

	if code, body := get("/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Errorf("/healthz: status %d, body %q", code, body)
	}
	if code, body := get("/readyz"); code != http.StatusOK || !strings.Contains(body, "ready") {
		t.Errorf("/readyz: status %d, body %q", code, body)
	}
	if code, body := get("/v1/marginal?attrs=0,1"); code != http.StatusOK {
		t.Errorf("/v1/marginal: status %d, body %q", code, body)
	}
	// Same query again: served from the cache, visible in /v1/stats.
	if code, body := get("/v1/marginal?attrs=0,1"); code != http.StatusOK {
		t.Errorf("/v1/marginal repeat: status %d, body %q", code, body)
	}
	code, body := get("/v1/stats")
	if code != http.StatusOK {
		t.Errorf("/v1/stats: status %d, body %q", code, body)
	}
	for _, want := range []string{`"name":"default"`, `"loaded":true`, `"cache":true`, `"hits":1`, `"misses":1`} {
		if !strings.Contains(body, want) {
			t.Errorf("/v1/stats body %q missing %s", body, want)
		}
	}
	code, body = get("/v1/releases")
	if code != http.StatusOK {
		t.Errorf("/v1/releases: status %d, body %q", code, body)
	}
	for _, want := range []string{`"releases":["default"]`, `"admission":{`} {
		if !strings.Contains(body, want) {
			t.Errorf("/v1/releases body %q missing %s", body, want)
		}
	}
}

// servedStatsGolden is the /v1/stats body priview-serve -synopsis
// serves at its flag defaults after TestServeStatsGolden's query
// sequence: the release's registry.ReleaseStats, every field in
// declaration order. Deployed tooling reads it.
const servedStatsGolden = `{"name":"default","loaded":true,"snapshot":"synopsis.json","breaker":"closed",` +
	`"consecutive_failures":0,"breaker_trips":0,"breaker_rejects":0,"backoff_rejects":0,"half_open_probes":0,` +
	`"load_attempts":1,"load_failures":0,"reloads":0,"reload_failures":0,"shed":0,"rate_limited":0,"weight":1,` +
	`"evictions":0,"readmits":0,"inflight_limit":0,"inflight":0,"cache":true,` +
	`"cache_stats":{"hits":2,"misses":3,"evictions":0,"coalesced":0,"entries":3,"bytes":376}}` + "\n"

// TestServeStatsGolden pins the /v1/stats body the binary serves: a
// one-release registry built as main builds it from the default flags,
// behind the router, after a fixed query sequence — a GET miss and hit,
// a batch with a hit, a miss and an in-batch duplicate, a CLN miss, and
// a rejected method.
func TestServeStatsGolden(t *testing.T) {
	ropt := registry.Options{
		MaxLoaded:        orDisabled(8),
		CacheEntries:     orDisabled(4096),
		CacheBytes:       orDisabled64(64 << 20),
		MaxInflight:      orDisabled(32),
		BreakerThreshold: 3,
		BreakerCooldown:  10 * time.Second,
		Metrics:          server.NewMetrics(telemetry.NewRegistry()),
		Logger:           log.New(io.Discard, "", 0),
	}
	reg, err := openSingle(context.Background(), buildSynopsisFile(t), "", ropt)
	if err != nil {
		t.Fatalf("openSingle: %v", err)
	}
	defer reg.Close()
	h := server.NewMulti(reg, server.DefaultRelease, server.Options{Logger: log.New(io.Discard, "", 0)})
	serve := func(method, path, body string) (int, string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		return rec.Code, rec.Body.String()
	}
	for _, q := range []struct {
		method, path, body string
		want               int
	}{
		{http.MethodGet, "/v1/marginal?attrs=0,1", "", http.StatusOK},
		{http.MethodGet, "/v1/marginal?attrs=0,1", "", http.StatusOK},
		{http.MethodPost, "/v1/marginals", `{"queries":[{"attrs":[0,1]},{"attrs":[2,3]},{"attrs":[3,2]}]}`, http.StatusOK},
		{http.MethodGet, "/v1/marginal?attrs=1,4,5&method=CLN", "", http.StatusOK},
		{http.MethodGet, "/v1/marginal?attrs=0&method=CME-dual", "", http.StatusBadRequest},
	} {
		if code, body := serve(q.method, q.path, q.body); code != q.want {
			t.Fatalf("%s %s: status %d, want %d; body %q", q.method, q.path, code, q.want, body)
		}
	}
	if code, body := serve(http.MethodGet, "/v1/stats", ""); code != http.StatusOK || body != servedStatsGolden {
		t.Errorf("/v1/stats changed (status %d):\n got  %q\n want %q", code, body, servedStatsGolden)
	}
}

// TestCacheConfigDisabled: both cache flags ≤ 0 serve the synopsis
// bare; either bound alone keeps the cache on.
func TestCacheConfigDisabled(t *testing.T) {
	path := buildSynopsisFile(t)
	for _, tc := range []struct {
		entries int
		bytes   int64
		want    bool
	}{{0, 0, false}, {0, 1 << 20, true}, {128, 0, true}} {
		opt := quietRegistryOpts()
		opt.CacheEntries, opt.CacheBytes = orDisabled(tc.entries), orDisabled64(tc.bytes)
		reg, err := openSingle(context.Background(), path, "", opt)
		if err != nil {
			t.Fatalf("openSingle: %v", err)
		}
		if got := releaseStats(t, reg).Cache; got != tc.want {
			t.Errorf("-cache-entries %d -cache-bytes %d: cache %v, want %v", tc.entries, tc.bytes, got, tc.want)
		}
		reg.Close()
	}
}

// TestLoadSynopsisMissingFile: a missing -synopsis file fails startup
// before the listener opens.
func TestLoadSynopsisMissingFile(t *testing.T) {
	if _, err := openSingle(context.Background(), filepath.Join(t.TempDir(), "nope.json"), "", quietRegistryOpts()); err == nil {
		t.Fatal("openSingle on a missing file should fail")
	}
}

// gatedQuerier signals when a query reaches the synopsis and holds it
// until released, so the shutdown test can deterministically have a
// request in flight while the server drains.
type gatedQuerier struct {
	server.Querier
	arrived chan struct{}
	release chan struct{}
	once    sync.Once
}

func (g *gatedQuerier) QueryBatch(ctx context.Context, reqs []core.BatchRequest, opt core.BatchOptions) ([]core.BatchResult, error) {
	g.once.Do(func() { close(g.arrived) })
	select {
	case <-g.release:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return g.Querier.QueryBatch(ctx, reqs, opt)
}

// TestGracefulShutdownDrains proves the drain semantics: on shutdown
// the health probe flips to 503 while the listener still answers, an
// in-flight marginal query runs to completion rather than being cut,
// and Serve returns http.ErrServerClosed.
func TestGracefulShutdownDrains(t *testing.T) {
	gated := &gatedQuerier{arrived: make(chan struct{}), release: make(chan struct{})}
	ropt := quietRegistryOpts()
	ropt.CacheEntries, ropt.CacheBytes = -1, -1 // the query must reach the gate
	ropt.Loader = &chaos.TenantLoader{Target: server.DefaultRelease, Wrap: func(q server.Querier) server.Querier {
		gated.Querier = &chaos.SlowSynopsis{Querier: q, Delay: 10 * time.Millisecond}
		return gated
	}}
	reg, err := openSingle(context.Background(), buildSynopsisFile(t), "", ropt)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	handler := server.NewMulti(reg, server.DefaultRelease, server.Options{MaxK: 8, QueryTimeout: 30 * time.Second})
	srv := &http.Server{Handler: handler}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	type result struct {
		code int
		body string
		err  error
	}
	inflight := make(chan result, 1)
	go func() {
		resp, err := http.Get(base + "/v1/marginal?attrs=0,1")
		if err != nil {
			inflight <- result{err: err}
			return
		}
		body, err := io.ReadAll(resp.Body)
		if cerr := resp.Body.Close(); err == nil {
			err = cerr
		}
		inflight <- result{code: resp.StatusCode, body: string(body), err: err}
	}()

	select {
	case <-gated.arrived:
	case <-time.After(10 * time.Second):
		t.Fatal("query never reached the synopsis")
	}

	// Pre-drain: the probe reports healthy. Draining: 503, while the
	// in-flight query is still being served.
	if resp, err := http.Get(base + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz before drain: %v %v", resp, err)
	} else if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	handler.SetDraining(true)
	if resp, err := http.Get(base + "/healthz"); err != nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/healthz while draining: want 503, got %v %v", resp, err)
	} else if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- shutdown(srv, handler, 10*time.Second) }()
	// Let Shutdown close the listener and start waiting on the
	// in-flight connection before releasing the gated query.
	time.Sleep(50 * time.Millisecond)
	close(gated.release)

	if err := <-shutdownDone; err != nil {
		t.Errorf("shutdown: %v", err)
	}
	res := <-inflight
	if res.err != nil || res.code != http.StatusOK {
		t.Errorf("in-flight query not drained: code=%d err=%v body=%q", res.code, res.err, res.body)
	}
	if !strings.Contains(res.body, "cells") {
		t.Errorf("drained response is not a marginal: %q", res.body)
	}
	if err := <-serveDone; err != http.ErrServerClosed {
		t.Errorf("Serve returned %v, want http.ErrServerClosed", err)
	}
}

func TestParseWeights(t *testing.T) {
	w, err := parseWeights(" gold = 4, best-effort=0.5 ")
	if err != nil {
		t.Fatal(err)
	}
	if len(w) != 2 || w["gold"] != 4 || w["best-effort"] != 0.5 {
		t.Errorf("parseWeights = %v", w)
	}
	if w, err := parseWeights(""); err != nil || w != nil {
		t.Errorf("empty list = %v, %v; want nil, nil", w, err)
	}
	for _, bad := range []string{"gold", "gold=", "gold=x", "gold=0", "gold=-1"} {
		if _, err := parseWeights(bad); err == nil {
			t.Errorf("parseWeights(%q) accepted", bad)
		}
	}
}
