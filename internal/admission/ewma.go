// Package admission implements the overload-control primitives the
// serving stack composes into end-to-end backpressure: an EWMA tracker
// of per-method service time (deadline-aware rejection), a token
// bucket (per-tenant rate limits; server.Client keeps its own retry
// budget, refilled by successful requests), an admission controller (a
// fixed concurrency limit + bounded queue + CoDel-style sojourn
// control), and a brownout detector (sustained-overload degradation to
// cache-hits-only serving).
//
// The package is deliberately mechanism, not policy: it holds no HTTP
// vocabulary and publishes nothing. internal/server maps controller
// verdicts onto status codes, and internal/registry layers the token
// buckets per release. Every component takes an injectable clock so
// the chaos suite can drive it deterministically.
package admission

import (
	"sync"
	"time"
)

// ewmaAlpha is the smoothing factor for the service-time estimate: new
// observations move the estimate 20% of the way, so a handful of slow
// solves raise it quickly but one outlier cannot own it.
const ewmaAlpha = 0.2

// estimateFreshFor bounds how long an estimate is trusted without new
// observations. A stale estimate must expire: if the gate it feeds
// rejects every request, nothing would ever be observed again and the
// estimate could pin the server in rejection forever.
const estimateFreshFor = 30 * time.Second

// ServiceTime tracks an exponentially weighted moving average of
// observed service time per method key. The zero value is not usable;
// call NewServiceTime.
type ServiceTime struct {
	now func() time.Time

	mu  sync.Mutex
	est map[int]serviceEstimate
}

type serviceEstimate struct {
	ewma    time.Duration
	lastObs time.Time
}

// NewServiceTime returns an empty tracker. now may be nil for
// time.Now; tests inject a fake clock.
func NewServiceTime(now func() time.Time) *ServiceTime {
	if now == nil {
		now = time.Now
	}
	return &ServiceTime{now: now, est: make(map[int]serviceEstimate)}
}

// Observe folds one measured service duration for method into the
// estimate. Non-positive durations are ignored.
func (s *ServiceTime) Observe(method int, d time.Duration) {
	if d <= 0 {
		return
	}
	now := s.now()
	s.mu.Lock()
	e, ok := s.est[method]
	if !ok || e.ewma <= 0 {
		e.ewma = d
	} else {
		e.ewma += time.Duration(ewmaAlpha * float64(d-e.ewma))
	}
	e.lastObs = now
	s.est[method] = e
	s.mu.Unlock()
}

// Estimate returns the current EWMA service time for method, or 0 when
// nothing has been observed recently — an expired estimate reads as
// "unknown", never as a permanent rejection verdict.
func (s *ServiceTime) Estimate(method int) time.Duration {
	now := s.now()
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.est[method]
	if !ok || now.Sub(e.lastObs) > estimateFreshFor {
		return 0
	}
	return e.ewma
}
