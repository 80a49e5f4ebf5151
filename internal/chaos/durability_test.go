package chaos

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"priview/internal/audit"
	"priview/internal/core"
	"priview/internal/covering"
	"priview/internal/dataset/synth"
	"priview/internal/marginal"
	"priview/internal/noise"
	"priview/internal/reconstruct"
	"priview/internal/registry"
	"priview/internal/server"
	"priview/internal/snapshot"
)

// auditCheck is the release audit as the registry hands it to a
// store's Load.
func auditCheck(s *core.Synopsis) error { return audit.Check(s, audit.Options{}).Err() }

func durabilitySyn(seed int64) *core.Synopsis {
	data := synth.MSNBC(1000, seed)
	dg := covering.Groups(9, 4)
	return core.BuildSynopsis(data, core.Config{Epsilon: 1, Design: dg}, noise.NewStream(seed))
}

// TestWriterShortWriteSurfaces proves a short write can never look like
// success: snapshot.Write into a failing writer reports the injected
// error.
func TestWriterShortWriteSurfaces(t *testing.T) {
	var sink bytes.Buffer
	w := &Writer{W: &sink, FailAfter: 64}
	err := snapshot.Write(w, durabilitySyn(1))
	if !errors.Is(err, ErrInjectedFS) {
		t.Fatalf("err = %v, want ErrInjectedFS", err)
	}
	if sink.Len() > 64 {
		t.Fatalf("writer accepted %d bytes past the fault point", sink.Len())
	}
}

// TestTornSnapshotQuarantinedWithFallback is the headline durability
// proof: a snapshot torn by a lying disk (write + sync + rename all
// reported success) is detected by the checksum at load time,
// quarantined to *.corrupt, and the store falls back to the older
// verifiable snapshot.
func TestTornSnapshotQuarantinedWithFallback(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(snapshot.OS{})
	st, err := snapshot.NewStoreFS(ffs, dir, 5)
	if err != nil {
		t.Fatal(err)
	}
	good := durabilitySyn(2)
	if _, err := st.Save(good); err != nil {
		t.Fatal(err)
	}

	ffs.TornWriteAt = 100 // every byte past 100 is silently lost
	torn, err := st.Save(durabilitySyn(3))
	if err != nil {
		t.Fatalf("torn save was supposed to look successful, got %v", err)
	}
	ffs.TornWriteAt = 0
	if fi, err := os.Stat(torn); err != nil || fi.Size() != 100 {
		t.Fatalf("torn file: %v size=%v, want 100 bytes on disk", err, fi.Size())
	}

	res, err := st.Load(auditCheck)
	if err != nil {
		t.Fatalf("Load failed despite a good older snapshot: %v", err)
	}
	if filepath.Base(res.Path) != "snapshot-000001.json" {
		t.Fatalf("loaded %s, want fallback to the first snapshot", res.Path)
	}
	if len(res.Quarantined) != 1 {
		t.Fatalf("quarantined = %v, want the torn file", res.Quarantined)
	}
	if _, err := os.Stat(torn + ".corrupt"); err != nil {
		t.Fatalf("torn file not quarantined: %v", err)
	}
	if !marginal.Equal(good.Query([]int{0, 1}), res.Synopsis.Query([]int{0, 1}), 1e-9) {
		t.Fatal("fallback synopsis does not match what was saved")
	}
}

// TestAuditFailingSnapshotQuarantinedWithFallback: a newest snapshot
// whose checksum and structure verify, but whose views disagree, is
// caught by the audit alone. The store quarantines it to *.corrupt like
// a torn file and falls back to the older good snapshot.
func TestAuditFailingSnapshotQuarantinedWithFallback(t *testing.T) {
	st, err := snapshot.NewStore(t.TempDir(), 5)
	if err != nil {
		t.Fatal(err)
	}
	good := durabilitySyn(11)
	if _, err := st.Save(good); err != nil {
		t.Fatal(err)
	}
	bad, err := AuditFailing(durabilitySyn(12))
	if err != nil {
		t.Fatal(err)
	}
	badPath, err := st.Save(bad)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := snapshot.ReadFileFS(snapshot.OS{}, badPath); err != nil {
		t.Fatalf("the poisoned snapshot must read back intact, so only the audit can catch it: %v", err)
	}

	res, err := st.Load(auditCheck)
	if err != nil {
		t.Fatalf("Load failed despite a good older snapshot: %v", err)
	}
	if filepath.Base(res.Path) != "snapshot-000001.json" {
		t.Fatalf("loaded %s, want fallback to the first snapshot", res.Path)
	}
	if len(res.Quarantined) != 1 || res.Quarantined[0] != badPath+".corrupt" {
		t.Fatalf("quarantined = %v, want [%s.corrupt]", res.Quarantined, badPath)
	}
	if _, err := os.Stat(badPath + ".corrupt"); err != nil {
		t.Fatalf("audit-failing file not quarantined: %v", err)
	}
	if !strings.Contains(res.Errs[0].Error(), "audit") {
		t.Errorf("rejection reason = %v, want an audit failure", res.Errs[0])
	}
	if !marginal.Equal(good.Query([]int{0, 1}), res.Synopsis.Query([]int{0, 1}), 1e-9) {
		t.Fatal("fallback synopsis does not match what was saved")
	}
}

// TestReconcileKeepsServingPastAuditFailingSnapshot: when a store's
// newest snapshot fails the audit, the reload's walk quarantines it and
// falls back to the snapshot already serving. That is a failed reload,
// not a new install: the querier and its warm cache stay, and the
// release records the quarantine as its last error.
func TestReconcileKeepsServingPastAuditFailingSnapshot(t *testing.T) {
	st, err := snapshot.NewStore(t.TempDir(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Save(durabilitySyn(21)); err != nil {
		t.Fatal(err)
	}
	reg := registry.Single(server.DefaultRelease, st, registry.Options{Logger: log.New(io.Discard, "", 0)})
	defer reg.Close()
	ctx := context.Background()
	acquire := func() *server.CachedQuerier {
		t.Helper()
		q, release, err := reg.Acquire(ctx, server.DefaultRelease)
		if err != nil {
			t.Fatal(err)
		}
		release()
		cq, ok := q.(*server.CachedQuerier)
		if !ok {
			t.Fatalf("Acquire returned %T, want *server.CachedQuerier", q)
		}
		return cq
	}
	before := acquire()
	attrs := []int{0, 1}
	if _, err := before.QueryBatch(ctx, []core.BatchRequest{{Attrs: attrs, Method: core.CME}}, core.BatchOptions{}); err != nil {
		t.Fatal(err)
	}

	bad, err := AuditFailing(durabilitySyn(22))
	if err != nil {
		t.Fatal(err)
	}
	badPath, err := st.Save(bad)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Reconcile(ctx); err != nil {
		t.Fatal(err)
	}

	v, err := reg.ReleaseStats(server.DefaultRelease)
	if err != nil {
		t.Fatal(err)
	}
	s := v.(registry.ReleaseStats)
	if s.Reloads != 0 || s.ReloadFailures != 1 {
		t.Errorf("reloads %d, reload failures %d; want 0, 1", s.Reloads, s.ReloadFailures)
	}
	if !strings.Contains(s.LastError, "audit") {
		t.Errorf("last error %q, want the quarantined snapshot's audit failure", s.LastError)
	}
	if s.Snapshot != "snapshot-000001.json" {
		t.Errorf("serving %s, want snapshot-000001.json", s.Snapshot)
	}
	if after := acquire(); after != before {
		t.Error("the reconcile replaced the querier serving the unchanged snapshot")
	}
	if _, hit := before.QueryCached(attrs, core.CME); !hit {
		t.Error("the cached query is no longer a hit")
	}
	if _, err := os.Stat(badPath + ".corrupt"); err != nil {
		t.Errorf("audit-failing snapshot not quarantined: %v", err)
	}
}

// TestBitFlippedSnapshotDetected flips a single bit mid-payload in an
// otherwise perfect write; the checksum refuses it.
func TestBitFlippedSnapshotDetected(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(snapshot.OS{})
	st, err := snapshot.NewStoreFS(ffs, dir, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Save(durabilitySyn(4)); err != nil {
		t.Fatal(err)
	}
	names, err := st.Snapshots()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, names[0]))
	if err != nil {
		t.Fatal(err)
	}

	ffs.FlipBit = true
	ffs.FlipBitOffset = len(raw) / 2 // deep inside the payload cells
	if _, err := st.Save(durabilitySyn(5)); err != nil {
		t.Fatalf("bit-rotted save was supposed to look successful, got %v", err)
	}
	ffs.FlipBit = false

	res, err := st.Load(auditCheck)
	if err != nil {
		t.Fatalf("Load failed despite a good older snapshot: %v", err)
	}
	if filepath.Base(res.Path) != names[0] {
		t.Fatalf("loaded %s, want fallback to %s", res.Path, names[0])
	}
	if len(res.Quarantined) != 1 || len(res.Errs) != 1 {
		t.Fatalf("quarantined = %v errs = %v", res.Quarantined, res.Errs)
	}
	if !errors.Is(res.Errs[0], snapshot.ErrChecksum) && !errors.Is(res.Errs[0], snapshot.ErrFormat) {
		t.Fatalf("rejection reason = %v, want checksum or format error", res.Errs[0])
	}
}

// TestFailedRenameLeavesOldSnapshotServing proves a crash in the
// publish step is harmless: Save reports the failure, the previous
// snapshot still loads, and no half-published file is visible.
func TestFailedRenameLeavesOldSnapshotServing(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(snapshot.OS{})
	st, err := snapshot.NewStoreFS(ffs, dir, 5)
	if err != nil {
		t.Fatal(err)
	}
	good := durabilitySyn(6)
	if _, err := st.Save(good); err != nil {
		t.Fatal(err)
	}
	ffs.FailRenames(1)
	if _, err := st.Save(durabilitySyn(7)); !errors.Is(err, ErrInjectedFS) {
		t.Fatalf("Save err = %v, want ErrInjectedFS", err)
	}
	names, err := st.Snapshots()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 {
		t.Fatalf("store lists %v, want only the original snapshot", names)
	}
	res, err := st.Load(auditCheck)
	if err != nil || len(res.Quarantined) != 0 {
		t.Fatalf("old snapshot unusable after failed publish: res=%+v err=%v", res, err)
	}
}

// TestFailedSyncSurfaces proves an fsync failure is reported, not
// swallowed — the one storage error the atomic protocol cannot paper
// over.
func TestFailedSyncSurfaces(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(snapshot.OS{})
	ffs.FailSyncs(1)
	err := snapshot.WriteFile(ffs, filepath.Join(dir, "syn.json"), durabilitySyn(8))
	if !errors.Is(err, ErrInjectedFS) {
		t.Fatalf("err = %v, want ErrInjectedFS", err)
	}
}

// TestNaNViewNeverServesNaN is the numerical half of the durability
// contract, proven end to end over HTTP: with a view poisoned by NaN in
// memory, after its snapshot passed the audit, every marginal query
// still answers 200 with fully finite cells (marked degraded) — zero
// failed queries, zero NaN cells.
func TestNaNViewNeverServesNaN(t *testing.T) {
	poison := func(q server.Querier) server.Querier {
		for i := range q.Views()[0].Cells {
			q.Views()[0].Cells[i] = math.NaN()
		}
		return q
	}
	h, err := ServeSynopsis(t.TempDir(), durabilitySyn(9), poison, server.Options{MaxK: 6})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	defer srv.Close()

	queries := [][]int{{0, 1}, {0, 5}, {1, 6}, {2, 3}, {0, 1, 5}, {4}}
	degraded := 0
	for _, attrs := range queries {
		for _, method := range []string{"CME", "CLN", "CLP"} {
			url := fmt.Sprintf("%s/v1/marginal?attrs=%s&method=%s", srv.URL, joinInts(attrs), method)
			resp, err := http.Get(url)
			if err != nil {
				t.Fatalf("query %v %s: %v", attrs, method, err)
			}
			var body struct {
				Cells    []float64 `json:"cells"`
				Total    float64   `json:"total"`
				Degraded bool      `json:"degraded"`
			}
			derr := json.NewDecoder(resp.Body).Decode(&body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("query %v %s: status %d — a poisoned view must degrade, not fail", attrs, method, resp.StatusCode)
			}
			if derr != nil {
				t.Fatalf("query %v %s: decoding: %v", attrs, method, derr)
			}
			if len(body.Cells) != 1<<uint(len(attrs)) {
				t.Fatalf("query %v %s: %d cells", attrs, method, len(body.Cells))
			}
			for j, c := range body.Cells {
				if math.IsNaN(c) || math.IsInf(c, 0) {
					t.Fatalf("query %v %s: cell %d is %v — NaN must never reach a client", attrs, method, j, c)
				}
			}
			if body.Degraded {
				degraded++
			}
		}
	}
	if degraded == 0 {
		t.Fatal("no query reported degraded=true; the poisoned view was never touched")
	}
}

// TestDegradedQueryCarriesErrNumerical pins the library-level contract
// the server test exercises over HTTP: a poisoned view yields a finite
// fallback table together with an error matching reconstruct.ErrNumerical.
func TestDegradedQueryCarriesErrNumerical(t *testing.T) {
	syn := durabilitySyn(10)
	for i := range syn.Views()[0].Cells {
		syn.Views()[0].Cells[i] = math.Inf(1)
	}
	attrs := syn.Views()[0].Attrs[:2]
	table, err := syn.QueryMethodContext(t.Context(), attrs, core.CME)
	if !errors.Is(err, reconstruct.ErrNumerical) {
		t.Fatalf("err = %v, want ErrNumerical", err)
	}
	var nerr *reconstruct.NumericalError
	if !errors.As(err, &nerr) {
		t.Fatalf("err %T does not unwrap to *NumericalError", err)
	}
	if table == nil || !reconstruct.FiniteTable(table) {
		t.Fatalf("fallback table = %v, want finite", table)
	}
}

func joinInts(xs []int) string {
	out := ""
	for i, x := range xs {
		if i > 0 {
			out += ","
		}
		out += fmt.Sprint(x)
	}
	return out
}
