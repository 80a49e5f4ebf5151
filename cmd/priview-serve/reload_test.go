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

// TestStoreModeServesNewestSnapshot exercises -store end to end:
// loading picks the newest snapshot, and the audit gate runs.
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
	src := &source{dir: dir}
	syn, from, err := src.load()
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(from) != "snapshot-000002.json" {
		t.Fatalf("loaded %s, want the newest snapshot", from)
	}
	if math.Abs(syn.Total()-want.Total()) > 1e-9 {
		t.Fatalf("total %v, want %v", syn.Total(), want.Total())
	}
}

// TestHotReloadKeepsServingThroughCorruption is the serving half of the
// durability contract: a SIGHUP-triggered reload that encounters a
// corrupt newest snapshot falls back to the good one; a reload with the
// whole store corrupted fails without touching the served synopsis. At
// no point does any query fail.
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
	src := &source{dir: dir}
	syn, _, err := src.load()
	if err != nil {
		t.Fatal(err)
	}
	// Serve with the query cache on, the default deployment: each reload
	// must wrap the new synopsis in a fresh cache.
	cc := cacheConfig{entries: 64, bytes: 1 << 20}
	swap := server.NewSwappable(cc.wrap(syn))
	handler := server.New(swap, server.Options{MaxK: 6})
	srv := httptest.NewServer(handler)
	defer srv.Close()

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

	// Publish a second synopsis and hot-reload: new total served.
	second := buildSyn(t, 4)
	secondPath, err := st.Save(second)
	if err != nil {
		t.Fatal(err)
	}
	if err := reload(context.Background(), src, swap, cc); err != nil {
		t.Fatalf("reload: %v", err)
	}
	if got := query(); math.Abs(got-second.Total()) > 1e-6 {
		t.Fatalf("after reload total = %v, want %v", got, second.Total())
	}
	// The reloaded synopsis answers from a fresh cache: exactly the one
	// miss from the query above, nothing inherited from the old cache.
	if st, enabled := swap.CacheStats(); !enabled || st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("cache after reload = %+v (enabled=%v), want a fresh cache with 1 miss", st, enabled)
	}

	// Corrupt the newest snapshot; reload must fall back to the first.
	if err := os.WriteFile(secondPath, []byte(`{"format":"priview-synopsis-v2","checksum":"sha256:00","payload":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := reload(context.Background(), src, swap, cc); err != nil {
		t.Fatalf("reload with fallback available: %v", err)
	}
	if got := query(); math.Abs(got-first.Total()) > 1e-6 {
		t.Fatalf("after corrupt reload total = %v, want fallback %v", got, first.Total())
	}
	if _, err := os.Stat(secondPath + ".corrupt"); err != nil {
		t.Fatalf("corrupt snapshot not quarantined: %v", err)
	}

	// Corrupt everything; reload fails but the last good synopsis keeps
	// serving.
	names, err := st.Snapshots()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if err := os.WriteFile(filepath.Join(dir, n), []byte("garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := reload(context.Background(), src, swap, cc); err == nil {
		t.Fatal("reload succeeded with a fully corrupt store")
	}
	if got := query(); math.Abs(got-first.Total()) > 1e-6 {
		t.Fatalf("after failed reload total = %v, want unchanged %v", got, first.Total())
	}
	if failed != 0 {
		t.Fatalf("%d queries failed across the corruption sequence, want 0", failed)
	}
}

// TestLoadSynopsisRefusesAuditFailure proves the startup audit gate: a
// structurally valid file whose views are mutually inconsistent is
// refused.
func TestLoadSynopsisRefusesAuditFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	// Views disagree on attribute 1's marginal: 30/10 vs 20/20.
	doc := `{"format":"priview-synopsis-v1","epsilon":1,"total":40,"views":[` +
		`{"attrs":[0,1],"cells":[15,15,5,5]},{"attrs":[1,2],"cells":[10,10,10,10]}]}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadSynopsis(path); err == nil {
		t.Fatal("loadSynopsis served an audit-failing synopsis")
	}
}

// TestLoadSynopsisAcceptsV2 proves the file mode reads the checksummed
// container.
func TestLoadSynopsisAcceptsV2(t *testing.T) {
	path := filepath.Join(t.TempDir(), "syn.json")
	if err := snapshot.WriteFile(snapshot.OS{}, path, buildSyn(t, 5)); err != nil {
		t.Fatal(err)
	}
	if _, err := loadSynopsis(path); err != nil {
		t.Fatalf("v2 snapshot rejected: %v", err)
	}
}

// TestReloadRaceServesCleanly is the hot-reload race proof behind the
// SIGHUP contract: 12 query workers hammer the full middleware stack
// (recovery, an admission controller whose concurrency floor exceeds
// the worker count so it never queues or sheds and every answer must
// be a real 200, per-request deadline) while the main goroutine reloads the store 30
// times, half of them onto a freshly published snapshot. Run under
// -race this doubles as the data-race check on the swap/cache
// handoff; any non-200 — a 5xx from a torn swap most of all — fails.
func TestReloadRaceServesCleanly(t *testing.T) {
	dir := t.TempDir()
	st, err := snapshot.NewStore(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Save(buildSyn(t, 10)); err != nil {
		t.Fatal(err)
	}
	src := &source{dir: dir}
	syn, _, err := src.load()
	if err != nil {
		t.Fatal(err)
	}
	cc := cacheConfig{entries: 128, bytes: 1 << 20}
	swap := server.NewSwappable(cc.wrap(syn))
	handler := server.New(swap, server.Options{
		MaxK:         6,
		QueryTimeout: 10 * time.Second,
		Admission:    admission.Config{MinLimit: 16, MaxLimit: 16},
	})
	srv := httptest.NewServer(handler)
	defer srv.Close()

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
		if i%2 == 0 {
			if _, err := st.Save(buildSyn(t, int64(20+i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := reload(ctx, src, swap, cc); err != nil {
			t.Fatalf("reload %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	if n := bad.Load(); n != 0 {
		t.Fatalf("%d queries failed across 30 hot reloads, want 0", n)
	}
}
