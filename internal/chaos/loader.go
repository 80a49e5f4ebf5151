package chaos

import (
	"context"
	"math"
	"sync"
	"time"

	"priview/internal/snapshot"
)

// TenantLoader is a registry.Loader that injects load-path faults
// pinned to exactly one release — the blast-radius instrument of the
// multi-tenant chaos suite. Every other release loads through the
// normal store path untouched, so any cross-tenant symptom the suite
// observes is an isolation failure, not injected noise.
//
// Faults are armed and disarmed at runtime:
//
//   - SetDelay(d) stalls the target's loads for d, honoring the
//     caller's context — the slow-tenant failure mode that must not
//     starve healthy tenants of the shared load slots.
//   - SetPoison(true) loads the target normally and then writes NaN
//     into one view cell, a synopsis that is bytewise valid but
//     violates the release invariants; only the registry's audit gate
//     can catch it.
//
// The zero fault state delegates everything; TenantLoader is safe for
// concurrent use.
type TenantLoader struct {
	// Target is the one release name faults apply to.
	Target string

	mu     sync.Mutex
	delay  time.Duration
	poison bool
}

// SetDelay arms (d > 0) or disarms (d <= 0) the slow-load fault.
func (l *TenantLoader) SetDelay(d time.Duration) {
	l.mu.Lock()
	l.delay = d
	l.mu.Unlock()
}

// SetPoison arms or disarms the NaN-injection fault.
func (l *TenantLoader) SetPoison(v bool) {
	l.mu.Lock()
	l.poison = v
	l.mu.Unlock()
}

// Load implements registry.Loader.
func (l *TenantLoader) Load(ctx context.Context, release string, src snapshot.Source) (*snapshot.LoadResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	l.mu.Lock()
	delay, poison := l.delay, l.poison
	l.mu.Unlock()
	if release != l.Target {
		delay, poison = 0, false
	}
	if delay > 0 {
		t := time.NewTimer(delay)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	res, err := src.Load()
	if err != nil {
		return nil, err
	}
	if poison && len(res.Synopsis.Views()) > 0 {
		v := res.Synopsis.Views()[0]
		if len(v.Cells) > 0 {
			v.Cells[0] = math.NaN()
		}
	}
	return res, nil
}
