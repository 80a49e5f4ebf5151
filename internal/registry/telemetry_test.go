package registry_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"priview/internal/chaos"
	"priview/internal/core"
	"priview/internal/registry"
	"priview/internal/server"
	"priview/internal/snapshot"
	"priview/internal/telemetry"
)

// driveRelease loads alpha and runs identical traffic: two queries (a
// miss and a hit when caching is on) plus one unknown-release probe.
func driveRelease(t *testing.T, reg *registry.Registry) {
	t.Helper()
	for i := 0; i < 2; i++ {
		q, release, err := reg.Acquire(context.Background(), "alpha")
		if err != nil {
			t.Fatalf("Acquire: %v", err)
		}
		mustQuery(t, q)
		release()
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

// timingLoader loads through the source as the default loader does,
// counting the calls of the registry's check and timing them, and
// timing its own call: the outside view of a load's stage split.
type timingLoader struct {
	checks        int
	inCheck, wall time.Duration
}

func (l *timingLoader) Load(_ context.Context, _ string, src snapshot.Source, check snapshot.Check) (server.Querier, *snapshot.LoadResult, error) {
	start := time.Now()
	defer func() { l.wall = time.Since(start) }()
	return loadSource(src, func(syn *core.Synopsis) error {
		l.checks++
		start := time.Now()
		defer func() { l.inCheck += time.Since(start) }()
		return check(syn)
	})
}

// TestReleaseLoadStages: a store load runs the registry's audit once
// per candidate snapshot and records exactly one release.load and one
// release.audit observation on the shared scrape surface. A one-file
// store audits once. A store whose newest file fails the audit audits
// twice, quarantines that file and serves the older one, and its audit
// time lands in release.audit alone: release.load's share is the
// loader's call less the time spent in the checks.
func TestReleaseLoadStages(t *testing.T) {
	for _, c := range []struct {
		name                string
		poisonNewest        bool
		checks, quarantined int
	}{
		{"one file", false, 1, 0},
		{"newest fails the audit", true, 2, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "alpha")
			st, err := snapshot.NewStore(dir, 3)
			if err != nil {
				t.Fatal(err)
			}
			// d = 16 gives six views, whose audits take long enough to
			// tell apart from the timer's own overhead.
			if _, err := st.Save(buildSynD(t, 16, 1)); err != nil {
				t.Fatal(err)
			}
			if c.poisonNewest {
				bad, err := chaos.AuditFailing(buildSynD(t, 16, 2))
				if err != nil {
					t.Fatal(err)
				}
				if _, err := st.Save(bad); err != nil {
					t.Fatal(err)
				}
			}
			tel := telemetry.NewRegistry()
			loader := &timingLoader{}
			opt := quietOpts()
			opt.Metrics = server.NewMetrics(tel)
			opt.Loader = loader
			reg := registry.Single("alpha", st, opt)
			defer reg.Close()
			_, release, err := reg.Acquire(context.Background(), "alpha")
			if err != nil {
				t.Fatalf("Acquire: %v", err)
			}
			release()

			if loader.checks != c.checks {
				t.Errorf("the audit ran %d times, want %d (once per candidate)", loader.checks, c.checks)
			}
			if got := stats(t, reg, "alpha").Snapshot; got != "snapshot-000001.json" {
				t.Errorf("serving %s, want snapshot-000001.json", got)
			}
			if corrupt, err := filepath.Glob(filepath.Join(dir, "*.corrupt")); err != nil || len(corrupt) != c.quarantined {
				t.Errorf("quarantined %v (%v), want %d files", corrupt, err, c.quarantined)
			}

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
			sum := map[string]time.Duration{}
			for _, stage := range []string{"release.load", "release.audit"} {
				labels := map[string]string{"stage": stage}
				n := f.Sample("priview_stage_seconds_count", labels)
				s := f.Sample("priview_stage_seconds_sum", labels)
				if n == nil || s == nil || n.Value != 1 {
					t.Fatalf("priview_stage_seconds{stage=%q}: count %v, want exactly 1 observation for one load", stage, n)
				}
				sum[stage] = time.Duration(s.Value * float64(time.Second))
			}
			if a := sum["release.audit"]; a <= 0 || a > loader.inCheck {
				t.Errorf("release.audit = %v, want the audits inside the %v spent in the checks", a, loader.inCheck)
			}
			// Outside the checks the loader spent wall − inCheck. With
			// the audit time in release.load too, it would read about
			// inCheck more than that.
			if l, limit := sum["release.load"], loader.wall-loader.inCheck/2; l > limit {
				t.Errorf("release.load = %v, over %v: the loader's %v less half its %v in checks; it includes audit time",
					l, limit, loader.wall, loader.inCheck)
			}
		})
	}
}
