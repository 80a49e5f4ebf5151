package qcache_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"priview/internal/marginal"
	"priview/internal/qcache"
	"priview/internal/reconstruct"
)

func table(attrs []int, base float64) *marginal.Table {
	t := marginal.New(attrs)
	for i := range t.Cells {
		t.Cells[i] = base + float64(i)
	}
	return t
}

func constant(t *marginal.Table) func(context.Context) (*marginal.Table, error) {
	return func(context.Context) (*marginal.Table, error) { return t.Clone(), nil }
}

// do is a single query through the cache: a one-key DoBatch whose
// compute answers the key's miss with compute.
func do(c *qcache.Cache, ctx context.Context, key qcache.Key, compute func(context.Context) (*marginal.Table, error)) (*marginal.Table, error) {
	rs, err := c.DoBatch(ctx, []qcache.Key{key}, func(ctx context.Context, _ []qcache.Key) ([]qcache.Result, error) {
		t, err := compute(ctx)
		return []qcache.Result{{Table: t, Err: err}}, nil
	})
	if err != nil {
		return nil, err
	}
	return rs[0].Table, rs[0].Err
}

func mustKey(t *testing.T, attrs []int, method int) qcache.Key {
	t.Helper()
	k, ok := qcache.KeyFor(attrs, method)
	if !ok {
		t.Fatalf("KeyFor(%v, %d) not maskable", attrs, method)
	}
	return k
}

func TestKeyFor(t *testing.T) {
	k1 := mustKey(t, []int{0, 3, 63}, 0)
	if k1.Mask != 1|1<<3|1<<63 {
		t.Errorf("mask = %b", k1.Mask)
	}
	k2 := mustKey(t, []int{3, 0, 63}, 0)
	if k1 != k2 {
		t.Error("key must be order-independent")
	}
	if k3 := mustKey(t, []int{0, 3, 63}, 2); k3 == k1 {
		t.Error("method must distinguish keys")
	}
	for _, bad := range [][]int{{-1}, {64}, {5, 5}} {
		if _, ok := qcache.KeyFor(bad, 0); ok {
			t.Errorf("KeyFor(%v) = ok, want not maskable", bad)
		}
	}
	if _, ok := qcache.KeyFor(nil, 0); !ok {
		t.Error("empty attribute set is maskable (the total query)")
	}
}

func TestHitReturnsDefensiveClone(t *testing.T) {
	c := qcache.New(8, 0)
	ctx := context.Background()
	key := mustKey(t, []int{0, 1}, 0)
	src := table([]int{0, 1}, 1)
	first, err := do(c, ctx, key, constant(src))
	if err != nil {
		t.Fatal(err)
	}
	first.Cells[0] = math.Inf(1) // a hostile caller scribbles on its answer
	second, err := do(c, ctx, key, func(context.Context) (*marginal.Table, error) {
		t.Fatal("second call must be a hit")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !marginal.Equal(second, src, 0) {
		t.Errorf("cached answer corrupted by caller mutation: %v", second)
	}
	second.Cells[1] = -1
	third, err := do(c, ctx, key, constant(src))
	if err != nil {
		t.Fatal(err)
	}
	if !marginal.Equal(third, src, 0) {
		t.Error("hit must hand out independent clones")
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 2 {
		t.Errorf("stats = %+v, want 1 miss, 2 hits", st)
	}
}

func TestLRUEvictsByEntryCount(t *testing.T) {
	c := qcache.New(2, 0)
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		attrs := []int{i}
		_, err := do(c, ctx, mustKey(t, attrs, 0), constant(table(attrs, 1)))
		if err != nil {
			t.Fatal(err)
		}
	}
	// Key {0} is the LRU victim; {1} and {2} remain.
	if st := c.Stats(); st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want 2 entries, 1 eviction", st)
	}
	ran := false
	_, err := do(c, ctx, mustKey(t, []int{0}, 0), func(context.Context) (*marginal.Table, error) {
		ran = true
		return table([]int{0}, 1), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Error("evicted key served from cache")
	}
}

func TestLRUTouchOnHit(t *testing.T) {
	c := qcache.New(2, 0)
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := do(c, ctx, mustKey(t, []int{i}, 0), constant(table([]int{i}, 1))); err != nil {
			t.Fatal(err)
		}
	}
	// Touch {0} so {1} becomes the LRU victim.
	if _, err := do(c, ctx, mustKey(t, []int{0}, 0), constant(table([]int{0}, 1))); err != nil {
		t.Fatal(err)
	}
	if _, err := do(c, ctx, mustKey(t, []int{2}, 0), constant(table([]int{2}, 1))); err != nil {
		t.Fatal(err)
	}
	ran := false
	_, err := do(c, ctx, mustKey(t, []int{0}, 0), func(context.Context) (*marginal.Table, error) {
		ran = true
		return table([]int{0}, 1), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Error("recently-hit key was evicted before the stale one")
	}
}

func TestBytesBound(t *testing.T) {
	// Each 2-attr table is 4 cells ≈ 8*4 + 8*2 + 64 = 112 bytes; a
	// 300-byte budget holds two.
	c := qcache.New(0, 300)
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		attrs := []int{2 * i, 2*i + 1}
		if _, err := do(c, ctx, mustKey(t, attrs, 0), constant(table(attrs, 1))); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want 2 entries, 1 eviction", st)
	}
	if st.Bytes > 300 {
		t.Errorf("bytes = %d over the 300 budget", st.Bytes)
	}
}

func TestOversizedTableNotCached(t *testing.T) {
	c := qcache.New(0, 100) // smaller than any 2-attr table
	ctx := context.Background()
	key := mustKey(t, []int{0, 1}, 0)
	calls := 0
	compute := func(context.Context) (*marginal.Table, error) {
		calls++
		return table([]int{0, 1}, 1), nil
	}
	for i := 0; i < 2; i++ {
		if _, err := do(c, ctx, key, compute); err != nil {
			t.Fatal(err)
		}
	}
	if calls != 2 {
		t.Errorf("oversized result was cached (%d computes)", calls)
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Errorf("entries = %d, want 0", st.Entries)
	}
}

func TestDegradedServedNotCached(t *testing.T) {
	c := qcache.New(8, 0)
	ctx := context.Background()
	key := mustKey(t, []int{0, 1}, 0)
	degraded := &reconstruct.NumericalError{Solver: "maxent", Iter: 3, Quantity: "residual", Value: math.NaN()}
	calls := 0
	compute := func(context.Context) (*marginal.Table, error) {
		calls++
		return table([]int{0, 1}, float64(calls)), degraded
	}
	for i := 1; i <= 2; i++ {
		got, err := do(c, ctx, key, compute)
		if !errors.Is(err, reconstruct.ErrNumerical) {
			t.Fatalf("err = %v, want ErrNumerical passthrough", err)
		}
		if got == nil || got.Cells[0] != float64(i) {
			t.Fatalf("call %d: degraded table not served fresh: %v", i, got)
		}
	}
	if calls != 2 {
		t.Errorf("degraded answer was cached (%d computes)", calls)
	}
	if st := c.Stats(); st.Entries != 0 || st.Misses != 2 {
		t.Errorf("stats = %+v, want 0 entries, 2 misses", st)
	}
}

func TestNilErrorResultNotCached(t *testing.T) {
	c := qcache.New(8, 0)
	ctx := context.Background()
	key := mustKey(t, []int{0}, 0)
	boom := errors.New("solver exploded")
	calls := 0
	for i := 0; i < 2; i++ {
		_, err := do(c, ctx, key, func(context.Context) (*marginal.Table, error) {
			calls++
			return nil, boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("err = %v, want passthrough", err)
		}
	}
	if calls != 2 {
		t.Errorf("hard failure was cached (%d computes)", calls)
	}
}

func TestSingleflightCoalesces(t *testing.T) {
	c := qcache.New(8, 0)
	key := mustKey(t, []int{0, 1, 2}, 0)
	var computes atomic.Int32
	entered := make(chan struct{})
	release := make(chan struct{})
	compute := func(context.Context) (*marginal.Table, error) {
		computes.Add(1)
		close(entered)
		<-release
		return table([]int{0, 1, 2}, 7), nil
	}
	const waiters = 8
	var wg sync.WaitGroup
	results := make([]*marginal.Table, waiters)
	errs := make([]error, waiters)
	// One leader enters compute; the rest must coalesce behind it.
	wg.Add(1)
	go func() {
		defer wg.Done()
		results[0], errs[0] = do(c, context.Background(), key, compute)
	}()
	<-entered
	for i := 1; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = do(c, context.Background(), key, compute)
		}(i)
	}
	// Wait until every follower is parked on the flight.
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().Coalesced < waiters-1 {
		if time.Now().After(deadline) {
			t.Fatalf("followers never coalesced: %+v", c.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("%d computes, want 1 (singleflight)", n)
	}
	want := table([]int{0, 1, 2}, 7)
	for i := 0; i < waiters; i++ {
		if errs[i] != nil {
			t.Fatalf("waiter %d: %v", i, errs[i])
		}
		if !marginal.Equal(results[i], want, 0) {
			t.Fatalf("waiter %d got wrong table", i)
		}
	}
	for i := 1; i < waiters; i++ {
		if results[i] == results[0] {
			t.Fatal("waiters must not share one table pointer")
		}
	}
	st := c.Stats()
	if st.Misses != 1 || st.Coalesced != waiters-1 {
		t.Errorf("stats = %+v, want 1 miss, %d coalesced", st, waiters-1)
	}
}

// TestCanceledLeaderHandsOff is the singleflight correctness core: a
// leader canceled mid-solve must not fail its followers. A follower
// with a live context retries, becomes the new leader, and completes;
// the canceled leader's error is never cached.
func TestCanceledLeaderHandsOff(t *testing.T) {
	c := qcache.New(8, 0)
	key := mustKey(t, []int{0, 1}, 0)
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	defer cancelLeader()
	entered := make(chan struct{})
	var computes atomic.Int32
	compute := func(ctx context.Context) (*marginal.Table, error) {
		if computes.Add(1) == 1 {
			close(entered)
			<-ctx.Done() // the leader blocks until canceled
			return nil, reconstruct.ContextErr(ctx)
		}
		return table([]int{0, 1}, 3), nil
	}
	leaderErr := make(chan error, 1)
	go func() {
		_, err := do(c, leaderCtx, key, compute)
		leaderErr <- err
	}()
	<-entered
	followerDone := make(chan error, 1)
	var followerGot *marginal.Table
	go func() {
		var err error
		followerGot, err = do(c, context.Background(), key, compute)
		followerDone <- err
	}()
	// Park the follower on the leader's flight, then cancel the leader.
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().Coalesced < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("follower never coalesced: %+v", c.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	cancelLeader()
	if err := <-leaderErr; !errors.Is(err, reconstruct.ErrCanceled) {
		t.Fatalf("leader err = %v, want ErrCanceled", err)
	}
	select {
	case err := <-followerDone:
		if err != nil {
			t.Fatalf("follower with a live context got %v, want a handed-off solve", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("follower wedged after leader cancellation")
	}
	if followerGot == nil || followerGot.Cells[0] != 3 {
		t.Fatalf("follower table = %v", followerGot)
	}
	if n := computes.Load(); n != 2 {
		t.Errorf("%d computes, want 2 (canceled leader + retrying follower)", n)
	}
	// The retried solve was clean, so it — and only it — is cached.
	if st := c.Stats(); st.Entries != 1 {
		t.Errorf("entries = %d, want 1", st.Entries)
	}
	_, err := do(c, context.Background(), key, func(context.Context) (*marginal.Table, error) {
		t.Fatal("post-handoff lookup must hit")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCanceledFollowerReturnsPromptly: a follower whose own context
// dies while waiting gets its own cancellation error without waiting
// for the leader.
func TestCanceledFollowerReturnsPromptly(t *testing.T) {
	c := qcache.New(8, 0)
	key := mustKey(t, []int{0}, 0)
	entered := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	go func() {
		_, err := do(c, context.Background(), key, func(context.Context) (*marginal.Table, error) {
			close(entered)
			<-release
			return table([]int{0}, 1), nil
		})
		if err != nil {
			t.Errorf("leader: %v", err)
		}
	}()
	<-entered
	followerCtx, cancelFollower := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := do(c, followerCtx, key, func(context.Context) (*marginal.Table, error) {
			return table([]int{0}, 1), nil
		})
		done <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().Coalesced < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("follower never coalesced: %+v", c.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	cancelFollower()
	select {
	case err := <-done:
		if !errors.Is(err, reconstruct.ErrCanceled) {
			t.Errorf("follower err = %v, want its own ErrCanceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("canceled follower stayed parked behind a live leader")
	}
}

func TestLeaderPanicDoesNotWedgeFollowers(t *testing.T) {
	c := qcache.New(8, 0)
	key := mustKey(t, []int{0, 2}, 0)
	entered := make(chan struct{})
	release := make(chan struct{})
	go func() {
		defer func() {
			if recover() == nil {
				t.Error("leader panic swallowed")
			}
		}()
		_, err := do(c, context.Background(), key, func(context.Context) (*marginal.Table, error) {
			close(entered)
			<-release
			panic("solver bug")
		})
		_ = err
	}()
	<-entered
	done := make(chan error, 1)
	go func() {
		_, err := do(c, context.Background(), key, func(context.Context) (*marginal.Table, error) {
			return nil, errors.New("follower should see the flight error, not recompute here")
		})
		done <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().Coalesced < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("follower never coalesced: %+v", c.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	select {
	case err := <-done:
		if err == nil {
			t.Error("follower of a panicked leader must get an error")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("follower wedged after leader panic")
	}
}

// TestConcurrentMixedKeysRace is the package's -race gate: many
// goroutines hammer overlapping keys through hits, misses, coalescing
// and eviction at once, then the counters must reconcile.
func TestConcurrentMixedKeysRace(t *testing.T) {
	c := qcache.New(4, 0) // small: force evictions under load
	const workers = 16
	const perWorker = 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				attrs := []int{(w + i) % 6, 6 + i%3}
				key := mustKey(t, attrs, i%2)
				got, err := do(c, context.Background(), key, func(context.Context) (*marginal.Table, error) {
					return table(attrs, float64(key.Method)), nil
				})
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				want := table(attrs, float64(key.Method))
				if !marginal.Equal(got, want, 0) {
					t.Errorf("worker %d: wrong table for %v", w, attrs)
					return
				}
				got.Cells[0] = -999 // must never reach another caller
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if got := st.Hits + st.Misses + st.Coalesced; got != workers*perWorker {
		t.Errorf("hits+misses+coalesced = %d, want %d; stats %+v", got, workers*perWorker, st)
	}
	if st.Entries > 4 {
		t.Errorf("entries = %d over the bound", st.Entries)
	}
}

func TestStatsString(t *testing.T) {
	// Stats must be JSON-encodable for /v1/stats; spot-check the shape.
	st := qcache.Stats{Hits: 1, Misses: 2, Evictions: 3, Coalesced: 4, Entries: 5, Bytes: 6}
	s := fmt.Sprintf("%+v", st)
	if s == "" {
		t.Fatal("unformattable stats")
	}
}
