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
	if got := b.Tokens(); got != 2 {
		t.Errorf("tokens after long idle = %v, want capped at burst 2", got)
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
	c := NewController(Config{InitialLimit: 4, MinLimit: 1}, testCounters())
	var rels []func(time.Duration)
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
		rel(time.Millisecond)
	}
	if st := c.Stats(); st.Inflight != 0 {
		t.Errorf("inflight after release = %d, want 0", st.Inflight)
	}
}

func TestControllerQueueFullSheds(t *testing.T) {
	clk := newFakeClock()
	c := NewController(Config{InitialLimit: 1, MinLimit: 1, MaxQueue: 2, Now: clk.Now}, testCounters())
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
			r(time.Millisecond)
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
	rel(time.Millisecond) // drain: the queue empties through the slot
	wg.Wait()
	if len(admitted) != 2 {
		t.Errorf("admitted %d queued waiters, want 2", len(admitted))
	}
}

func TestControllerQueuedCallerHonorsContext(t *testing.T) {
	c := NewController(Config{InitialLimit: 1, MinLimit: 1, MaxQueue: 8}, testCounters())
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
	rel(0)
	// The canceled waiter must not have leaked a slot.
	if rel2, err := c.Acquire(context.Background()); err != nil {
		t.Errorf("acquire after canceled waiter: %v", err)
	} else {
		rel2(0)
	}
	if st := c.Stats(); st.Inflight != 0 {
		t.Errorf("inflight = %d, want 0 (canceled waiter leaked a slot)", st.Inflight)
	}
}

func TestControllerCoDelShedsStandingQueue(t *testing.T) {
	clk := newFakeClock()
	c := NewController(Config{
		InitialLimit: 1, MinLimit: 1, MaxQueue: 16,
		TargetDelay: 10 * time.Millisecond, Interval: 40 * time.Millisecond,
		Now: clk.Now,
	}, testCounters())
	rel, err := c.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	admits := make(chan func(time.Duration), 8)
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
	rel(0)
	deadline := time.After(10 * time.Second)
	var rejected int
	for resolved := 0; resolved < 8; resolved++ {
		select {
		case r := <-admits:
			clk.Advance(50 * time.Millisecond)
			r(0)
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

func TestControllerAIMDGradient(t *testing.T) {
	clk := newFakeClock()
	c := NewController(Config{InitialLimit: 10, MinLimit: 2, MaxLimit: 50, Now: clk.Now, Interval: 100 * time.Millisecond}, testCounters())
	// Steady latency: limit grows additively.
	for i := 0; i < 100; i++ {
		rel, err := c.Acquire(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		rel(10 * time.Millisecond)
	}
	grown := c.Stats().Limit
	if grown <= 10 {
		t.Errorf("limit after steady phase = %v, want > 10", grown)
	}
	// Latency explodes: gradient trips, limit shrinks multiplicatively
	// (one decrease per interval).
	for i := 0; i < 50; i++ {
		rel, err := c.Acquire(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		rel(500 * time.Millisecond)
		clk.Advance(110 * time.Millisecond)
	}
	shrunk := c.Stats().Limit
	if shrunk >= grown*decreaseFactor {
		t.Errorf("limit after latency spike = %v, want < %v", shrunk, grown*decreaseFactor)
	}
	if shrunk < float64(2) {
		t.Errorf("limit fell below MinLimit: %v", shrunk)
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
	if b.Activations() != 1 {
		t.Errorf("activations = %d, want 1", b.Activations())
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
// goroutines under -race; invariant: inflight returns to zero and no
// waiter hangs.
func TestControllerConcurrentStress(t *testing.T) {
	c := NewController(Config{InitialLimit: 8, MinLimit: 2, MaxQueue: 32}, testCounters())
	var wg sync.WaitGroup
	var served, rejected atomic.Int64
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
				rel(time.Microsecond * 50)
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
	if served.Load() == 0 {
		t.Error("no request was ever served")
	}
	t.Logf("served=%d rejected=%d stats=%+v", served.Load(), rejected.Load(), c.Stats())
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
