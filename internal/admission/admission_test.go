package admission

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"priview/internal/telemetry"
)

// fakeClock is a mutex-guarded manual clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestServiceTimeEWMAConverges(t *testing.T) {
	clk := newFakeClock()
	st := NewServiceTime(clk.Now)
	if got := st.Estimate(1); got != 0 {
		t.Fatalf("estimate before any observation = %v, want 0", got)
	}
	for i := 0; i < 50; i++ {
		st.Observe(1, 10*time.Millisecond)
	}
	got := st.Estimate(1)
	if got < 9*time.Millisecond || got > 11*time.Millisecond {
		t.Errorf("estimate after steady 10ms = %v", got)
	}
	// A different method key is independent.
	if got := st.Estimate(2); got != 0 {
		t.Errorf("unobserved method estimate = %v, want 0", got)
	}
	// Slow observations pull it up quickly.
	for i := 0; i < 20; i++ {
		st.Observe(1, 100*time.Millisecond)
	}
	if got := st.Estimate(1); got < 80*time.Millisecond {
		t.Errorf("estimate after shift to 100ms = %v, want ≥ 80ms", got)
	}
}

func TestServiceTimeEstimateExpires(t *testing.T) {
	clk := newFakeClock()
	st := NewServiceTime(clk.Now)
	st.Observe(1, 50*time.Millisecond)
	if got := st.Estimate(1); got == 0 {
		t.Fatal("fresh estimate reads 0")
	}
	clk.Advance(estimateFreshFor + time.Second)
	if got := st.Estimate(1); got != 0 {
		t.Errorf("stale estimate = %v, want 0 (a stuck gate must lift)", got)
	}
}

func TestTokenBucketRefills(t *testing.T) {
	clk := newFakeClock()
	b := NewTokenBucket(10, 2, clk.Now) // 10/s, burst 2
	if !b.Allow() || !b.Allow() {
		t.Fatal("burst tokens not available")
	}
	if b.Allow() {
		t.Fatal("empty bucket allowed a request")
	}
	if hint := b.NextIn(); hint <= 0 || hint > 200*time.Millisecond {
		t.Errorf("NextIn = %v, want (0, 100ms]-ish", hint)
	}
	clk.Advance(100 * time.Millisecond) // exactly one token
	if !b.Allow() {
		t.Error("bucket did not refill after 100ms at 10/s")
	}
	if b.Allow() {
		t.Error("bucket over-refilled")
	}
	// Refill caps at burst.
	clk.Advance(time.Hour)
	if !b.Allow() || !b.Allow() || b.Allow() {
		t.Error("tokens after long idle not capped at burst 2")
	}
}

// testCounters returns standalone handles for a controller under test.
func testCounters() Counters {
	return Counters{
		Admitted:     telemetry.NewCounter(),
		Queued:       telemetry.NewCounter(),
		Shed:         telemetry.NewCounter(),
		CoDelDropped: telemetry.NewCounter(),
		Sojourn:      telemetry.NewHistogram(nil),
	}
}

func TestControllerAdmitsUnderLimit(t *testing.T) {
	c := NewController(Config{Limit: 4}, testCounters())
	var rels []func()
	for i := 0; i < 4; i++ {
		rel, err := c.Acquire(context.Background())
		if err != nil {
			t.Fatalf("acquire %d: %v", i, err)
		}
		rels = append(rels, rel)
	}
	st := c.Stats()
	if st.Inflight != 4 || st.Admitted != 4 {
		t.Errorf("stats = %+v, want inflight 4 admitted 4", st)
	}
	for _, rel := range rels {
		rel()
	}
	if st := c.Stats(); st.Inflight != 0 {
		t.Errorf("inflight after release = %d, want 0", st.Inflight)
	}
}

func TestControllerQueueFullSheds(t *testing.T) {
	clk := newFakeClock()
	c := NewController(Config{Limit: 1, MaxQueue: 2, Now: clk.Now}, testCounters())
	rel, err := c.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Fill the queue with two waiters.
	var wg sync.WaitGroup
	admitted := make(chan struct{}, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := c.Acquire(context.Background())
			if err != nil {
				t.Errorf("queued acquire rejected: %v", err)
				return
			}
			admitted <- struct{}{}
			r()
		}()
	}
	waitForDepth(t, c, 2)
	// Third arrival: queue full, immediate shed with a scaled hint.
	_, err = c.Acquire(context.Background())
	var rej *RejectedError
	if !errors.As(err, &rej) {
		t.Fatalf("overflow acquire err = %v, want RejectedError", err)
	}
	if rej.RetryAfter < time.Second {
		t.Errorf("RetryAfter = %v, want ≥ 1s", rej.RetryAfter)
	}
	if st := c.Stats(); st.Shed != 1 || st.Queued != 2 {
		t.Errorf("stats = %+v, want shed 1 queued 2", st)
	}
	rel() // drain: the queue empties through the slot
	wg.Wait()
	if len(admitted) != 2 {
		t.Errorf("admitted %d queued waiters, want 2", len(admitted))
	}
}

func TestControllerQueuedCallerHonorsContext(t *testing.T) {
	c := NewController(Config{Limit: 1, MaxQueue: 8}, testCounters())
	rel, err := c.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.Acquire(ctx)
		done <- err
	}()
	waitForDepth(t, c, 1)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("queued acquire err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled waiter never returned")
	}
	rel()
	// The canceled waiter must not have leaked a slot.
	if rel2, err := c.Acquire(context.Background()); err != nil {
		t.Errorf("acquire after canceled waiter: %v", err)
	} else {
		rel2()
	}
	if st := c.Stats(); st.Inflight != 0 {
		t.Errorf("inflight = %d, want 0 (canceled waiter leaked a slot)", st.Inflight)
	}
}

// TestControllerAbandonedWaiterLeavesQueue: a queued caller whose
// context ends leaves the queue at once, not at the next dispatch, so
// it neither takes the place of a live arrival nor counts toward the
// queue depth, the Retry-After hint or the brownout signal.
func TestControllerAbandonedWaiterLeavesQueue(t *testing.T) {
	c := NewController(Config{Limit: 1, MaxQueue: 2}, testCounters())
	rel, err := c.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		_, err := c.Acquire(ctx)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("queued acquire %d err = %v, want context.DeadlineExceeded", i, err)
		}
	}
	if st := c.Stats(); st.QueueDepth != 0 {
		t.Errorf("queue depth = %d after both waiters gave up, want 0", st.QueueDepth)
	}
	if c.Overloaded() {
		t.Error("Overloaded() = true with no live waiter")
	}
	if ra := c.RetryAfter(); ra != RetryAfter {
		t.Errorf("RetryAfter() = %v, want the unscaled %v", ra, RetryAfter)
	}
	// A live arrival takes a place in the queue and is admitted once the
	// slot frees.
	done := make(chan error, 1)
	go func() {
		r, err := c.Acquire(context.Background())
		if err == nil {
			r()
		}
		done <- err
	}()
	waitForDepth(t, c, 1)
	rel()
	if err := <-done; err != nil {
		t.Errorf("live arrival after abandoned waiters: %v", err)
	}
	if st := c.Stats(); st.Inflight != 0 || st.QueueDepth != 0 || st.Admitted != 2 {
		t.Errorf("stats = %+v, want inflight 0, queue depth 0, admitted 2", st)
	}
}

func TestControllerCoDelShedsStandingQueue(t *testing.T) {
	clk := newFakeClock()
	c := NewController(Config{
		Limit: 1, MaxQueue: 16,
		TargetDelay: 10 * time.Millisecond, Interval: 40 * time.Millisecond,
		Now: clk.Now,
	}, testCounters())
	rel, err := c.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	admits := make(chan func(), 8)
	rejects := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			r, err := c.Acquire(context.Background())
			if err != nil {
				rejects <- err
				return
			}
			admits <- r
		}()
	}
	waitForDepth(t, c, 8)
	// The queue stands far above target; every dequeue from here on
	// sees a 200ms+ sojourn. The first above-target dequeue only arms
	// the interval timer; once it expires, dropping mode sheds.
	clk.Advance(200 * time.Millisecond)
	rel()
	deadline := time.After(10 * time.Second)
	var rejected int
	for resolved := 0; resolved < 8; resolved++ {
		select {
		case r := <-admits:
			clk.Advance(50 * time.Millisecond)
			r()
		case err := <-rejects:
			var rej *RejectedError
			if !errors.As(err, &rej) {
				t.Fatalf("reject err = %v, want RejectedError", err)
			}
			rejected++
		case <-deadline:
			t.Fatalf("queue wedged with %d waiters resolved", resolved)
		}
	}
	st := c.Stats()
	if st.CoDelDropped == 0 || rejected == 0 {
		t.Errorf("no CoDel drops after standing 200ms queue: %+v", st)
	}
	if st.CoDelDropped != uint64(rejected) {
		t.Errorf("codel_dropped %d != observed rejections %d", st.CoDelDropped, rejected)
	}
}

func TestBrownoutHysteresis(t *testing.T) {
	clk := newFakeClock()
	b := NewBrownout(BrownoutConfig{Enter: time.Second, Exit: 2 * time.Second, Now: clk.Now})
	b.Note(true)
	if b.Active() {
		t.Fatal("brownout active on first overload sample")
	}
	clk.Advance(500 * time.Millisecond)
	b.Note(true)
	if b.Active() {
		t.Fatal("brownout active before Enter elapsed")
	}
	clk.Advance(600 * time.Millisecond)
	b.Note(true)
	if !b.Active() {
		t.Fatal("brownout not active after sustained overload")
	}
	// A lone calm sample inside the storm must not lift it.
	b.Note(false)
	if !b.Active() {
		t.Fatal("single calm sample lifted the brownout")
	}
	// Calm for the exit window lifts it.
	clk.Advance(2100 * time.Millisecond)
	b.Note(false)
	if b.Active() {
		t.Fatal("brownout still active after exit window of calm")
	}
}

func TestBrownoutBlipDoesNotInheritStreak(t *testing.T) {
	clk := newFakeClock()
	b := NewBrownout(BrownoutConfig{Enter: time.Second, Exit: 2 * time.Second, Now: clk.Now})
	b.Note(true)
	clk.Advance(900 * time.Millisecond)
	// Quiet for well past Enter: streak resets.
	clk.Advance(1500 * time.Millisecond)
	b.Note(false)
	b.Note(true) // fresh blip, fresh streak
	clk.Advance(500 * time.Millisecond)
	b.Note(true)
	if b.Active() {
		t.Error("stale streak age leaked into a fresh blip")
	}
}

// TestControllerConcurrentStress hammers Acquire/release from many
// goroutines under -race; invariants: no more than Limit callers are
// ever admitted at once, inflight returns to zero and no waiter hangs.
func TestControllerConcurrentStress(t *testing.T) {
	const limit = 8
	c := NewController(Config{Limit: limit, MaxQueue: 32}, testCounters())
	var wg sync.WaitGroup
	var served, rejected, running, peak atomic.Int64
	for w := 0; w < 32; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				ctx := context.Background()
				if i%7 == 0 {
					var cancel context.CancelFunc
					ctx, cancel = context.WithTimeout(ctx, time.Microsecond)
					defer cancel()
				}
				rel, err := c.Acquire(ctx)
				if err != nil {
					rejected.Add(1)
					continue
				}
				served.Add(1)
				n := running.Add(1)
				for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
				}
				// Hold the slot briefly, so admitted callers overlap.
				time.Sleep(50 * time.Microsecond)
				running.Add(-1)
				rel()
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("stress run wedged")
	}
	if st := c.Stats(); st.Inflight != 0 {
		t.Errorf("inflight after stress = %d, want 0", st.Inflight)
	}
	if p := peak.Load(); p > limit {
		t.Errorf("%d callers admitted at once, want at most the limit %d", p, limit)
	}
	if served.Load() == 0 {
		t.Error("no request was ever served")
	}
	t.Logf("served=%d rejected=%d peak=%d stats=%+v", served.Load(), rejected.Load(), peak.Load(), c.Stats())
}

// waitForDepth polls until the controller's queue holds n waiters.
func waitForDepth(t *testing.T, c *Controller, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().QueueDepth < n {
		if time.Now().After(deadline) {
			t.Fatalf("queue never reached depth %d (at %d)", n, c.Stats().QueueDepth)
		}
		time.Sleep(time.Millisecond)
	}
}
