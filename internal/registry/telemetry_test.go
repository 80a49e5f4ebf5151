package registry_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"priview/internal/registry"
	"priview/internal/server"
	"priview/internal/telemetry"
)

// driveRelease loads alpha and runs identical traffic: two queries (a
// miss and a hit when caching is on) plus one unknown-release probe.
func driveRelease(t *testing.T, reg *registry.Registry) {
	t.Helper()
	for i := 0; i < 2; i++ {
		lease, err := reg.Acquire(context.Background(), "alpha")
		if err != nil {
			t.Fatalf("Acquire: %v", err)
		}
		mustQuery(t, lease)
		lease.Close()
	}
}

// TestTelemetryInvisibleInStatsJSON pins the refactor's compatibility
// claim at the registry layer: wiring Options.Metrics must not change
// a single byte of the per-release stats JSON, across a hot reload too.
// Two registries serve identical releases under identical traffic —
// one given a Metrics, one not — and their marshaled ReleaseStats must
// agree exactly (the snapshot path is zeroed: the temp roots
// necessarily differ). The reload gives alpha a fresh cache, whose
// counters must carry on from the old one's in both.
func TestTelemetryInvisibleInStatsJSON(t *testing.T) {
	run := func(metrics *server.Metrics) string {
		root := t.TempDir()
		st := saveRelease(t, root, "alpha", 1)
		opt := quietOpts()
		opt.CacheEntries = 64
		opt.Metrics = metrics
		reg, err := registry.New(root, opt)
		if err != nil {
			t.Fatal(err)
		}
		defer reg.Close()
		driveRelease(t, reg)

		if _, err := st.Save(buildSyn(t, 2)); err != nil {
			t.Fatal(err)
		}
		if err := reg.Reconcile(context.Background()); err != nil {
			t.Fatal(err)
		}
		// Let the warm handoff cache the hot key first, so the next
		// round's queries hit rather than join its solve.
		deadline := time.Now().Add(5 * time.Second)
		for stats(t, reg, "alpha").CacheStats.Entries < 1 {
			if time.Now().After(deadline) {
				t.Fatal("warm handoff never replayed alpha's cached query")
			}
			time.Sleep(5 * time.Millisecond)
		}
		driveRelease(t, reg)

		s := stats(t, reg, "alpha")
		s.Snapshot = ""
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if got, want := run(server.NewMetrics(telemetry.NewRegistry())), run(nil); got != want {
		t.Errorf("instrumented registry changed stats JSON:\n with    %s\n without %s", got, want)
	}
}

// TestRegistryReleaseSeries scrapes an instrumented registry and
// checks the release-labeled families carry the lifecycle and cache
// traffic the stats JSON reports, through the strict parser.
func TestRegistryReleaseSeries(t *testing.T) {
	tel := telemetry.NewRegistry()
	opt := quietOpts()
	opt.CacheEntries = 64
	opt.Metrics = server.NewMetrics(tel)
	root := t.TempDir()
	saveRelease(t, root, "alpha", 1)
	reg, err := registry.New(root, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	driveRelease(t, reg)

	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	tel.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", rec.Code)
	}
	fams, err := telemetry.ParseText(rec.Body)
	if err != nil {
		t.Fatalf("ParseText: %v", err)
	}

	alpha := map[string]string{"release": "alpha"}
	want := map[string]float64{
		"priview_release_load_attempts_total": 1,
		"priview_qcache_misses_total":         1,
		"priview_qcache_hits_total":           1,
	}
	for fam, min := range want {
		f := fams[fam]
		if f == nil {
			t.Errorf("family %s missing", fam)
			continue
		}
		s := f.Sample(fam, alpha)
		if s == nil {
			t.Errorf("%s{release=\"alpha\"} missing", fam)
			continue
		}
		if s.Value < min {
			t.Errorf("%s{release=\"alpha\"} = %v, want ≥ %v", fam, s.Value, min)
		}
	}
	// The scrape-time gauge hook follows the live cache.
	if f := fams["priview_qcache_entries"]; f == nil || f.Sample("priview_qcache_entries", alpha) == nil {
		t.Error("priview_qcache_entries{release=\"alpha\"} missing (scrape hook not firing)")
	} else if v := f.Sample("priview_qcache_entries", alpha).Value; v < 1 {
		t.Errorf("priview_qcache_entries{release=\"alpha\"} = %v, want ≥ 1", v)
	}
}

// TestReleaseLoadStages: a release load records its two steps, the
// loader call and the audit gate, as priview_stage_seconds stages on
// the shared scrape surface.
func TestReleaseLoadStages(t *testing.T) {
	tel := telemetry.NewRegistry()
	opt := quietOpts()
	opt.Metrics = server.NewMetrics(tel)
	st := saveRelease(t, t.TempDir(), "alpha", 1)
	reg := registry.Single("alpha", st, opt)
	defer reg.Close()
	lease, err := reg.Acquire(context.Background(), "alpha")
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	lease.Close()

	rec := httptest.NewRecorder()
	tel.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	fams, err := telemetry.ParseText(rec.Body)
	if err != nil {
		t.Fatalf("ParseText: %v", err)
	}
	f := fams["priview_stage_seconds"]
	if f == nil {
		t.Fatal("family priview_stage_seconds missing")
	}
	for _, stage := range []string{"release.load", "release.audit"} {
		s := f.Sample("priview_stage_seconds_count", map[string]string{"stage": stage})
		if s == nil || s.Value < 1 {
			t.Errorf("priview_stage_seconds_count{stage=%q} = %v, want ≥ 1", stage, s)
		}
	}
}
