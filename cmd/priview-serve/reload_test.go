package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"priview"
	"priview/internal/admission"
	"priview/internal/core"
	"priview/internal/registry"
	"priview/internal/server"
	"priview/internal/snapshot"
)

// buildSyn returns a small synopsis with a seed-dependent content.
func buildSyn(t *testing.T, seed int64) *core.Synopsis {
	t.Helper()
	const d = 6
	records := make([]uint64, 200)
	for i := range records {
		records[i] = uint64(i*2654435761) & ((1 << d) - 1)
	}
	data := priview.NewDataset(d, records)
	plan := priview.PlanDesign(d, data.Len(), 1.0, 1)
	return priview.Build(data, priview.Config{Epsilon: 1.0, Design: plan.Design}, seed)
}

func getJSON(t *testing.T, url string, out interface{}) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// serveSingle opens src's one-release registry the way main does and
// serves it over httptest.
func serveSingle(t *testing.T, synPath, storeDir string, opt server.Options) (*registry.Registry, *httptest.Server) {
	t.Helper()
	reg, err := openSingle(context.Background(), synPath, storeDir, quietRegistryOpts())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(reg.Close)
	srv := httptest.NewServer(server.NewMulti(reg, server.DefaultRelease, opt))
	t.Cleanup(srv.Close)
	return reg, srv
}

// TestStoreModeServesNewestSnapshot exercises -store end to end:
// loading picks the newest snapshot, and the registry's audit runs.
func TestStoreModeServesNewestSnapshot(t *testing.T) {
	dir := t.TempDir()
	st, err := snapshot.NewStore(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Save(buildSyn(t, 1)); err != nil {
		t.Fatal(err)
	}
	want := buildSyn(t, 2)
	if _, err := st.Save(want); err != nil {
		t.Fatal(err)
	}
	reg, srv := serveSingle(t, "", dir, server.Options{MaxK: 6})
	if s := releaseStats(t, reg); s.Snapshot != "snapshot-000002.json" {
		t.Fatalf("loaded %s, want the newest snapshot", s.Snapshot)
	}
	var info struct {
		Total float64 `json:"total"`
	}
	if code := getJSON(t, srv.URL+"/v1/info", &info); code != http.StatusOK {
		t.Fatalf("/v1/info: status %d", code)
	}
	if math.Abs(info.Total-want.Total()) > 1e-9 {
		t.Fatalf("total %v, want %v", info.Total, want.Total())
	}
}

// TestEmptyStoreFailsStartup: -store over a directory with no snapshot
// fails before the listener opens.
func TestEmptyStoreFailsStartup(t *testing.T) {
	if _, err := openSingle(context.Background(), "", t.TempDir(), quietRegistryOpts()); err == nil {
		t.Fatal("openSingle served an empty store")
	}
}

// TestHotReloadKeepsServingThroughCorruption is the serving half of the
// durability contract: a reload onto a new snapshot serves it from a
// fresh cache; a reload whose newest snapshots are corrupt quarantines
// them and falls back to an older good one; a reload with the whole
// store corrupted fails without touching the served synopsis. At no
// point does any query fail.
func TestHotReloadKeepsServingThroughCorruption(t *testing.T) {
	dir := t.TempDir()
	st, err := snapshot.NewStore(dir, 10)
	if err != nil {
		t.Fatal(err)
	}
	first := buildSyn(t, 3)
	if _, err := st.Save(first); err != nil {
		t.Fatal(err)
	}
	// Serve with the query cache on, the default deployment: each reload
	// must give the new synopsis a fresh cache.
	reg, srv := serveSingle(t, "", dir, server.Options{MaxK: 6})
	ctx := context.Background()

	failed := 0
	query := func() (total float64) {
		t.Helper()
		var body struct {
			Total float64   `json:"total"`
			Cells []float64 `json:"cells"`
		}
		if code := getJSON(t, srv.URL+"/v1/marginal?attrs=0,1", &body); code != http.StatusOK {
			failed++
			t.Errorf("query failed with status %d", code)
		}
		return body.Total
	}
	query()
	before := releaseStats(t, reg).CacheStats

	// Publish a second synopsis and hot-reload: new total served.
	second := buildSyn(t, 4)
	secondPath, err := st.Save(second)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Reconcile(ctx); err != nil {
		t.Fatalf("reconcile: %v", err)
	}
	if got := query(); math.Abs(got-second.Total()) > 1e-6 {
		t.Fatalf("after reload total = %v, want %v", got, second.Total())
	}
	// The reloaded synopsis answers from a fresh cache, which the reload
	// seeds by replaying the old cache's one hot key. The counters carry
	// on across the reload, as /metrics exports them. Once that replay
	// lands, the key has been solved exactly once on the new synopsis and
	// answered once more from it: one more miss, one more hit or join,
	// and one entry. An inherited cache would show no new miss.
	deadline := time.Now().Add(5 * time.Second)
	for {
		cs := releaseStats(t, reg).CacheStats
		if cs.Hits+cs.Coalesced > before.Hits+before.Coalesced || time.Now().After(deadline) {
			if cs.Misses != before.Misses+1 || cs.Hits+cs.Coalesced != before.Hits+before.Coalesced+1 || cs.Entries != 1 {
				t.Fatalf("cache after reload = %+v, before %+v; want a fresh cache: 1 more miss, 1 more hit or join, 1 entry", cs, before)
			}
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Corrupt the served snapshot and publish a corrupt newer one: the
	// reload quarantines both and falls back to the first.
	garbage := []byte(`{"format":"priview-synopsis-v2","checksum":"sha256:00","payload":{}}`)
	if err := os.WriteFile(secondPath, garbage, 0o644); err != nil {
		t.Fatal(err)
	}
	thirdPath, err := st.Save(buildSyn(t, 5))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(thirdPath, garbage, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := reg.Reconcile(ctx); err != nil {
		t.Fatalf("reconcile with fallback available: %v", err)
	}
	if got := query(); math.Abs(got-first.Total()) > 1e-6 {
		t.Fatalf("after corrupt reload total = %v, want fallback %v", got, first.Total())
	}
	for _, p := range []string{secondPath, thirdPath} {
		if _, err := os.Stat(p + ".corrupt"); err != nil {
			t.Fatalf("corrupt snapshot not quarantined: %v", err)
		}
	}
	if s := releaseStats(t, reg); s.Reloads != 2 || s.ReloadFailures != 0 {
		t.Fatalf("reloads %d, failures %d; want 2, 0", s.Reloads, s.ReloadFailures)
	}

	// Publish once more and corrupt everything; the reload fails but the
	// last good synopsis keeps serving.
	if _, err := st.Save(buildSyn(t, 6)); err != nil {
		t.Fatal(err)
	}
	names, err := st.Snapshots()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if err := os.WriteFile(filepath.Join(dir, n), []byte("garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := reg.Reconcile(ctx); err != nil {
		t.Fatal(err)
	}
	if s := releaseStats(t, reg); s.ReloadFailures != 1 || s.Reloads != 2 {
		t.Fatalf("fully corrupt store: reloads %d, failures %d; want 2, 1", s.Reloads, s.ReloadFailures)
	}
	if got := query(); math.Abs(got-first.Total()) > 1e-6 {
		t.Fatalf("after failed reload total = %v, want unchanged %v", got, first.Total())
	}
	if failed != 0 {
		t.Fatalf("%d queries failed across the corruption sequence, want 0", failed)
	}
}

// TestSynopsisReloadOnlyWhenRewritten pins the -synopsis reload rule:
// a reconcile over an unchanged file reloads nothing and keeps the
// warm cache, while a rewritten file is served after the next one.
func TestSynopsisReloadOnlyWhenRewritten(t *testing.T) {
	path := filepath.Join(t.TempDir(), "syn.json")
	if err := snapshot.WriteFile(snapshot.OS{}, path, buildSyn(t, 7)); err != nil {
		t.Fatal(err)
	}
	reg, srv := serveSingle(t, path, "", server.Options{MaxK: 6})
	ctx := context.Background()
	var body struct {
		Total float64 `json:"total"`
	}
	if code := getJSON(t, srv.URL+"/v1/marginal?attrs=0,1", &body); code != http.StatusOK {
		t.Fatalf("query: status %d", code)
	}

	if err := reg.Reconcile(ctx); err != nil {
		t.Fatal(err)
	}
	if s := releaseStats(t, reg); s.Reloads != 0 || s.LoadAttempts != 1 || s.CacheStats.Entries != 1 {
		t.Fatalf("unchanged file: reloads %d, loads %d, cache entries %d; want 0, 1, 1",
			s.Reloads, s.LoadAttempts, s.CacheStats.Entries)
	}

	next := buildSyn(t, 8)
	if err := snapshot.WriteFile(snapshot.OS{}, path, next); err != nil {
		t.Fatal(err)
	}
	// The version is size plus modification time; step the time past any
	// coarse filesystem timestamp tick so a same-size rewrite within one
	// tick cannot hide the change.
	later := time.Now().Add(2 * time.Second)
	if err := os.Chtimes(path, later, later); err != nil {
		t.Fatal(err)
	}
	if err := reg.Reconcile(ctx); err != nil {
		t.Fatal(err)
	}
	if s := releaseStats(t, reg); s.Reloads != 1 {
		t.Fatalf("rewritten file: reloads %d, want 1", s.Reloads)
	}
	if code := getJSON(t, srv.URL+"/v1/marginal?attrs=0,1", &body); code != http.StatusOK {
		t.Fatalf("query after reload: status %d", code)
	}
	if math.Abs(body.Total-next.Total()) > 1e-6 {
		t.Fatalf("after rewrite total = %v, want %v", body.Total, next.Total())
	}
}

// TestLoadSynopsisRefusesAuditFailure proves the audit at startup: a
// structurally valid file whose views are mutually inconsistent fails
// startup before the listener opens.
func TestLoadSynopsisRefusesAuditFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	// Views disagree on attribute 1's marginal: 30/10 vs 20/20.
	doc := `{"format":"priview-synopsis-v1","epsilon":1,"total":40,"views":[` +
		`{"attrs":[0,1],"cells":[15,15,5,5]},{"attrs":[1,2],"cells":[10,10,10,10]}]}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := openSingle(context.Background(), path, "", quietRegistryOpts()); err == nil {
		t.Fatal("openSingle served an audit-failing synopsis")
	}
}

// TestLoadSynopsisAcceptsV2 proves the file mode reads the checksummed
// container.
func TestLoadSynopsisAcceptsV2(t *testing.T) {
	path := filepath.Join(t.TempDir(), "syn.json")
	if err := snapshot.WriteFile(snapshot.OS{}, path, buildSyn(t, 5)); err != nil {
		t.Fatal(err)
	}
	reg, err := openSingle(context.Background(), path, "", quietRegistryOpts())
	if err != nil {
		t.Fatalf("v2 snapshot rejected: %v", err)
	}
	reg.Close()
}

// TestReloadRaceServesCleanly is the hot-reload race proof behind the
// SIGHUP contract: 12 query workers hammer the full middleware stack
// (recovery, an admission controller whose concurrency limit exceeds
// the worker count so it never queues or sheds and every answer must
// be a real 200, per-request deadline) while the main goroutine
// publishes a new snapshot and reconciles 30 times, so all 30 reload
// (each replaying the hot keys into its fresh cache). Run under -race
// this doubles as the data-race check on the install/cache handoff;
// any non-200 — a 5xx from a torn install most of all — fails.
func TestReloadRaceServesCleanly(t *testing.T) {
	dir := t.TempDir()
	st, err := snapshot.NewStore(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Save(buildSyn(t, 10)); err != nil {
		t.Fatal(err)
	}
	reg, srv := serveSingle(t, "", dir, server.Options{
		MaxK:         6,
		QueryTimeout: 10 * time.Second,
		Admission:    admission.Config{Limit: 16},
	})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var bad atomic.Int64
	for w := 0; w < 12; w++ {
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
				path := fmt.Sprintf("/v1/marginal?attrs=%d,%d", (w+i)%6, (w+i+1+i%5)%6)
				if (w+i)%7 == 0 {
					path = "/v1/stats"
				}
				resp, err := client.Get(srv.URL + path)
				if err != nil {
					bad.Add(1)
					t.Errorf("worker %d: %v", w, err)
					return
				}
				//lint:ignore errdiscard draining a test response body
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					bad.Add(1)
					t.Errorf("worker %d: %s = %d, want 200", w, path, resp.StatusCode)
					return
				}
			}
		}(w)
	}

	for i := 0; i < 30; i++ {
		if _, err := st.Save(buildSyn(t, int64(20+i))); err != nil {
			t.Fatal(err)
		}
		if err := reg.Reconcile(ctx); err != nil {
			t.Fatalf("reconcile %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	if n := bad.Load(); n != 0 {
		t.Fatalf("%d queries failed across 30 hot reloads, want 0", n)
	}
	if s := releaseStats(t, reg); s.Reloads != 30 || s.ReloadFailures != 0 {
		t.Fatalf("reloads %d, failures %d; want 30, 0", s.Reloads, s.ReloadFailures)
	}
}
