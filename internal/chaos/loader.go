package chaos

import (
	"bytes"
	"context"
	"io"
	"log"
	"math"
	"path/filepath"
	"sync/atomic"
	"time"

	"priview/internal/core"
	"priview/internal/registry"
	"priview/internal/server"
	"priview/internal/snapshot"
)

// TenantLoader is a registry.Loader that injects faults pinned to
// exactly one release — the blast-radius instrument of the multi-tenant
// chaos suite. Every other release loads through its source untouched,
// so any cross-tenant symptom the suite observes is an isolation
// failure, not injected noise.
//
//   - SetDelay(d) stalls the target's loads for d, honoring the
//     caller's context — the slow-tenant failure mode that must not
//     starve healthy tenants of the shared load slots.
//   - Wrap builds the querier the target serves from the synopsis its
//     source read and audited: the seam that puts slow, parked,
//     panicking or degrading queriers below HTTP.
//
// The zero fault state delegates everything; TenantLoader is safe for
// concurrent use.
type TenantLoader struct {
	// Target is the one release name faults apply to.
	Target string
	// Wrap, when non-nil, builds the querier Target serves from its
	// loaded synopsis.
	Wrap func(server.Querier) server.Querier

	delay atomic.Int64 // nanoseconds
}

// SetDelay arms (d > 0) or disarms (d <= 0) the slow-load fault.
func (l *TenantLoader) SetDelay(d time.Duration) { l.delay.Store(int64(d)) }

// Load implements registry.Loader.
func (l *TenantLoader) Load(ctx context.Context, release string, src snapshot.Source, check snapshot.Check) (server.Querier, *snapshot.LoadResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	if delay := time.Duration(l.delay.Load()); delay > 0 && release == l.Target {
		t := time.NewTimer(delay)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		}
	}
	res, err := src.Load(check)
	if err != nil {
		return nil, nil, err
	}
	var q server.Querier = res.Synopsis
	if l.Wrap != nil && release == l.Target {
		q = l.Wrap(q)
	}
	return q, res, nil
}

// ServeSynopsis serves syn the way priview-serve -synopsis does: written
// to a snapshot file in dir, it is the release server.DefaultRelease of
// a registry.Single over that file, loaded and audited once before
// ServeSynopsis returns, so no request pays for the load. wrap, when
// non-nil, builds the served querier from the loaded synopsis. The
// query cache is off, so every request reaches that querier, and
// nothing runs in the background.
func ServeSynopsis(dir string, syn *core.Synopsis, wrap func(server.Querier) server.Querier, opt server.Options) (*server.Multi, error) {
	path := filepath.Join(dir, "synopsis.json")
	if err := snapshot.WriteFile(snapshot.OS{}, path, syn); err != nil {
		return nil, err
	}
	reg := registry.Single(server.DefaultRelease, snapshot.FileSource(path), registry.Options{
		CacheEntries: -1,
		CacheBytes:   -1,
		Loader:       &TenantLoader{Target: server.DefaultRelease, Wrap: wrap},
		Logger:       log.New(io.Discard, "", 0),
	})
	_, release, err := reg.Acquire(context.Background(), server.DefaultRelease)
	if err != nil {
		reg.Close()
		return nil, err
	}
	release()
	return server.NewMulti(reg, server.DefaultRelease, opt), nil
}

// AuditFailing returns a copy of syn that reads back from disk intact
// and fails only the release audit: one cell of its first view is
// pushed down by the release's total plus one, so that view's total
// and its marginals disagree with every other view's far beyond the
// audit's tolerances. Saved to a store or written with
// snapshot.WriteFile, it is the at-rest poison that no checksum or
// decode can catch.
func AuditFailing(syn *core.Synopsis) (*core.Synopsis, error) {
	var buf bytes.Buffer
	if err := snapshot.Write(&buf, syn); err != nil {
		return nil, err
	}
	cp, err := snapshot.Read(&buf)
	if err != nil {
		return nil, err
	}
	cp.Views()[0].Cells[0] -= 1 + math.Abs(cp.Total())
	return cp, nil
}
