package admission

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"priview/internal/telemetry"
)

// Config shapes a Controller. The zero value of every field selects
// the default noted on it.
type Config struct {
	// TargetDelay is the CoDel target: the queue sojourn the controller
	// tries to keep the standing queue under (default 25ms).
	TargetDelay time.Duration
	// Interval is the CoDel control interval — how long sojourn must
	// stay above target before the controller starts shedding from the
	// queue (default max(100ms, 4×TargetDelay)).
	Interval time.Duration
	// MaxQueue bounds the waiting queue; arrivals past it are shed
	// immediately (default 64).
	MaxQueue int
	// Limit is how many admitted requests may run at once (default 16).
	Limit int
	// Now is the clock (nil = time.Now); tests inject a fake.
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.TargetDelay <= 0 {
		c.TargetDelay = 25 * time.Millisecond
	}
	if c.Interval <= 0 {
		c.Interval = 4 * c.TargetDelay
		if c.Interval < 100*time.Millisecond {
			c.Interval = 100 * time.Millisecond
		}
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 64
	}
	if c.Limit <= 0 {
		c.Limit = 16
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// RetryAfter is the backoff hint of every refusal: the controller
// scales it with queue depth on its own rejections (capped at
// retryAfterMax), and the server's and registry's other refusals send
// it as is.
const RetryAfter = time.Second

// retryAfterMax caps the queue-depth-scaled Retry-After hint.
const retryAfterMax = 30 * time.Second

// RejectedError is Acquire's refusal: the bounded queue is full or the
// CoDel controller shed this request from it. RetryAfter scales with
// the current queue depth — the hint a server should surface on 429.
type RejectedError struct {
	Reason     string
	RetryAfter time.Duration
}

func (e *RejectedError) Error() string {
	return fmt.Sprintf("admission: rejected: %s (retry after %v)", e.Reason, e.RetryAfter)
}

// waiter states: the CAS between dispatcher and canceling acquirer.
const (
	waiterWaiting int32 = iota
	waiterAdmitted
	waiterDropped
	waiterCanceled
)

type waiter struct {
	ready chan error // buffered 1; nil = admitted
	enq   time.Time
	state atomic.Int32
}

// Controller is the admission gate: at most Config.Limit requests run
// concurrently, a bounded FIFO absorbs short bursts, and CoDel-style
// sojourn control sheds from the queue when delay stands above target.
// The zero value is not usable; call NewController.
type Controller struct {
	cfg Config

	mu       sync.Mutex
	inflight int
	queue    []*waiter

	// CoDel state (guarded by mu).
	firstAbove time.Time // when sojourn first stood above target (+interval)
	dropping   bool
	dropNext   time.Time
	dropCount  int

	ctr Counters
}

// Counters are the telemetry handles a Controller counts into; with
// registry-interned handles /metrics and the JSON Stats read the same
// atomics. Sojourn records every dequeued waiter's queue time in
// seconds (admitted and CoDel-dropped alike). Every handle must be
// non-nil.
type Counters struct {
	Admitted, Queued, Shed, CoDelDropped *telemetry.Counter
	Sojourn                              *telemetry.Histogram
}

// NewController returns a controller with cfg's knobs resolved,
// counting into counters.
func NewController(cfg Config, counters Counters) *Controller {
	return &Controller{cfg: cfg.withDefaults(), ctr: counters}
}

// Acquire admits the caller, queues it within the bounded queue, or
// rejects it. On admission it returns a release function the caller
// must invoke once the request is done. A *RejectedError means shed; a
// context error means the caller gave up while queued, and its place
// in the queue is freed at once.
func (c *Controller) Acquire(ctx context.Context) (func(), error) {
	c.mu.Lock()
	if c.inflight < c.cfg.Limit && len(c.queue) == 0 {
		c.inflight++
		c.ctr.Admitted.Inc()
		c.mu.Unlock()
		return c.releaseFunc(), nil
	}
	if len(c.queue) >= c.cfg.MaxQueue {
		c.ctr.Shed.Inc()
		err := &RejectedError{Reason: "admission queue full", RetryAfter: c.retryAfterLocked()}
		c.mu.Unlock()
		return nil, err
	}
	w := &waiter{ready: make(chan error, 1), enq: c.cfg.Now()}
	c.queue = append(c.queue, w)
	c.ctr.Queued.Inc()
	c.mu.Unlock()

	select {
	case err := <-w.ready:
		if err != nil {
			return nil, err
		}
		return c.releaseFunc(), nil
	case <-ctx.Done():
		if w.state.CompareAndSwap(waiterWaiting, waiterCanceled) {
			// A waiter that gave up must not hold a place a live arrival
			// could take, nor count toward the depth that scales
			// Retry-After and signals brownout. Dispatch may have popped
			// it already, in which case it is not found.
			c.mu.Lock()
			if i := slices.Index(c.queue, w); i >= 0 {
				c.queue = slices.Delete(c.queue, i, i+1)
			}
			c.mu.Unlock()
		} else if err := <-w.ready; err == nil {
			// The dispatcher resolved us concurrently; honor its verdict
			// so an already-granted slot is returned, not leaked.
			c.releaseFunc()()
		}
		return nil, ctx.Err()
	}
}

// releaseFunc returns the once-only completion callback for one
// admitted request.
func (c *Controller) releaseFunc() func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			c.mu.Lock()
			c.inflight--
			c.dispatchLocked()
			c.mu.Unlock()
		})
	}
}

// dispatchLocked drains the queue into free slots, applying the CoDel
// drop law to each dequeued waiter's sojourn time.
func (c *Controller) dispatchLocked() {
	now := c.cfg.Now()
	//lint:ignore ctxflow runs under c.mu with no request context; the loop drains a MaxQueue-bounded queue, and each waiter's own ctx cancellation is honored via the waiter state CAS
	for len(c.queue) > 0 && c.inflight < c.cfg.Limit {
		w := c.queue[0]
		c.queue = c.queue[1:]
		if w.state.Load() == waiterCanceled {
			// Canceled after dispatch took c.mu, before it could remove
			// itself.
			continue
		}
		sojourn := now.Sub(w.enq)
		c.ctr.Sojourn.ObserveDuration(sojourn)
		if c.codelDropLocked(sojourn, now) {
			if w.state.CompareAndSwap(waiterWaiting, waiterDropped) {
				c.ctr.CoDelDropped.Inc()
				w.ready <- &RejectedError{Reason: "queue delay above target", RetryAfter: c.retryAfterLocked()}
			}
			continue
		}
		if w.state.CompareAndSwap(waiterWaiting, waiterAdmitted) {
			c.inflight++
			c.ctr.Admitted.Inc()
			w.ready <- nil
		}
	}
	if len(c.queue) == 0 && !c.dropping {
		// An empty queue is the strongest "no standing delay" signal.
		c.firstAbove = time.Time{}
	}
}

// codelDropLocked implements the CoDel control law on one dequeue:
// sojourn below target resets the controller; sojourn standing above
// target for a full interval enters dropping mode, shedding dequeued
// waiters at a rate that grows with the square root of the drop count
// until the queue delay falls back under target.
func (c *Controller) codelDropLocked(sojourn time.Duration, now time.Time) bool {
	if sojourn < c.cfg.TargetDelay {
		c.firstAbove = time.Time{}
		c.dropping = false
		c.dropCount = 0
		return false
	}
	if c.firstAbove.IsZero() {
		c.firstAbove = now.Add(c.cfg.Interval)
		return false
	}
	if !c.dropping {
		if now.Before(c.firstAbove) {
			return false
		}
		c.dropping = true
		c.dropCount = 1
		c.dropNext = now.Add(c.nextDropInterval())
		return true
	}
	if now.Before(c.dropNext) {
		return false
	}
	c.dropCount++
	c.dropNext = now.Add(c.nextDropInterval())
	return true
}

// nextDropInterval is CoDel's sqrt control law: successive drops come
// interval/sqrt(count) apart, so shedding intensifies the longer the
// queue stands.
func (c *Controller) nextDropInterval() time.Duration {
	return time.Duration(float64(c.cfg.Interval) / math.Sqrt(float64(c.dropCount)))
}

// retryAfterLocked is the backpressure hint: the base scaled up with
// how many limit-widths of work are already waiting, so a deep queue
// tells clients to stay away longer than a graze does.
func (c *Controller) retryAfterLocked() time.Duration {
	hint := RetryAfter * time.Duration(1+len(c.queue)/c.cfg.Limit)
	if hint > retryAfterMax {
		hint = retryAfterMax
	}
	return hint
}

// RetryAfter exposes the current queue-depth-scaled hint (used by
// rejection paths that never reach Acquire, e.g. brownout refusals).
func (c *Controller) RetryAfter() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.retryAfterLocked()
}

// Overloaded reports whether the controller is actively shedding: in
// CoDel dropping mode, or with its bounded queue at least half full.
// The brownout detector samples this.
func (c *Controller) Overloaded() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropping || len(c.queue) >= (c.cfg.MaxQueue+1)/2
}

// Stats is the controller's observability snapshot. The server merges
// in the middleware-owned counters (deadline rejections, brownout)
// before publishing it on /v1/stats.
type Stats struct {
	Limit            int    `json:"limit"`
	Inflight         int    `json:"inflight"`
	QueueDepth       int    `json:"queue_depth"`
	Admitted         uint64 `json:"admitted"`
	Queued           uint64 `json:"queued"`
	Shed             uint64 `json:"shed"`
	CoDelDropped     uint64 `json:"codel_dropped"`
	DeadlineRejected uint64 `json:"deadline_rejected"`
	BrownoutServed   uint64 `json:"brownout_served"`
	BrownoutRejected uint64 `json:"brownout_rejected"`
	BrownoutActive   bool   `json:"brownout_active"`
}

// Stats snapshots the controller-owned counters and gauges.
func (c *Controller) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Limit:        c.cfg.Limit,
		Inflight:     c.inflight,
		QueueDepth:   len(c.queue),
		Admitted:     c.ctr.Admitted.Value(),
		Queued:       c.ctr.Queued.Value(),
		Shed:         c.ctr.Shed.Value(),
		CoDelDropped: c.ctr.CoDelDropped.Value(),
	}
}
