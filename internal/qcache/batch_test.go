package qcache_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"priview/internal/marginal"
	"priview/internal/qcache"
	"priview/internal/reconstruct"
	"priview/internal/telemetry"
)

// batchCompute returns a DoBatch compute that answers every miss with a
// fresh table and counts the keys it was asked to solve.
func batchCompute(solved *[][]qcache.Key) func(context.Context, []qcache.Key) ([]qcache.Result, error) {
	return func(_ context.Context, miss []qcache.Key) ([]qcache.Result, error) {
		*solved = append(*solved, append([]qcache.Key(nil), miss...))
		out := make([]qcache.Result, len(miss))
		for i, k := range miss {
			out[i] = qcache.Result{Table: table(k.Mask.Attrs(), float64(k.Method))}
		}
		return out, nil
	}
}

// TestDoBatchColdAndWarm verifies a cold batch turns into one compute
// over its distinct keys, and a warm repeat into zero.
func TestDoBatchColdAndWarm(t *testing.T) {
	c := qcache.New(16, 0)
	keys := []qcache.Key{
		mustKey(t, []int{0, 1}, 0),
		mustKey(t, []int{2}, 0),
		mustKey(t, []int{1, 0}, 0), // duplicate of the first
	}
	var solved [][]qcache.Key
	res, err := c.DoBatch(context.Background(), keys, batchCompute(&solved))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("got %d results", len(res))
	}
	if len(solved) != 1 || len(solved[0]) != 2 {
		t.Fatalf("cold batch computed %v, want one round of 2 distinct keys", solved)
	}
	if !marginal.Equal(res[0].Table, res[2].Table, 0) {
		t.Error("duplicate keys got different answers")
	}
	if res[0].Table == res[2].Table {
		t.Error("duplicate keys alias one table")
	}
	solved = nil
	if _, err := c.DoBatch(context.Background(), keys, batchCompute(&solved)); err != nil {
		t.Fatal(err)
	}
	if len(solved) != 0 {
		t.Fatalf("warm batch still computed %v", solved)
	}
	st := c.Stats()
	if st.Hits == 0 || st.Misses != 2 {
		t.Errorf("stats after warm repeat: %+v", st)
	}
}

// TestDoBatchCleanOnlyPerMember verifies the clean-only policy applies
// per batch member: the degraded member is served but recomputed on the
// next call while its clean sibling hits.
func TestDoBatchCleanOnlyPerMember(t *testing.T) {
	c := qcache.New(16, 0)
	good := mustKey(t, []int{0}, 0)
	bad := mustKey(t, []int{1}, 0)
	degraded := &reconstruct.NumericalError{Solver: "maxent", Iter: 3, Quantity: "residual", Value: math.NaN()}
	calls := 0
	compute := func(_ context.Context, miss []qcache.Key) ([]qcache.Result, error) {
		out := make([]qcache.Result, len(miss))
		for i, k := range miss {
			calls++
			r := qcache.Result{Table: table(k.Mask.Attrs(), 1)}
			if k == bad {
				r.Err = degraded
			}
			out[i] = r
		}
		return out, nil
	}
	res, err := c.DoBatch(context.Background(), []qcache.Key{good, bad}, compute)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Err != nil || res[1].Err == nil || !errors.Is(res[1].Err, reconstruct.ErrNumerical) {
		t.Fatalf("first round errs: %v, %v", res[0].Err, res[1].Err)
	}
	if res[1].Table == nil {
		t.Fatal("degraded member lost its table")
	}
	if calls != 2 {
		t.Fatalf("first round: %d computes", calls)
	}
	if _, err := c.DoBatch(context.Background(), []qcache.Key{good, bad}, compute); err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Fatalf("second round: %d computes total, want 3 (degraded member never cached)", calls)
	}
}

// TestDoBatchWholeComputeFailure verifies a failing compute fails the
// whole batch and no waiter hangs on the failed flights.
func TestDoBatchWholeComputeFailure(t *testing.T) {
	c := qcache.New(16, 0)
	boom := fmt.Errorf("solver exploded")
	k := mustKey(t, []int{0}, 0)
	_, err := c.DoBatch(context.Background(), []qcache.Key{k},
		func(context.Context, []qcache.Key) ([]qcache.Result, error) { return nil, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("got %v", err)
	}
	// The flight must be settled: a fresh call leads again rather than
	// joining a dead flight.
	var solved [][]qcache.Key
	if _, err := c.DoBatch(context.Background(), []qcache.Key{k}, batchCompute(&solved)); err != nil {
		t.Fatal(err)
	}
	if len(solved) != 1 {
		t.Fatal("flight from the failed batch was not settled")
	}
}

// TestDoBatchResultCountMismatch verifies the leader guards against a
// compute returning the wrong shape instead of mis-assigning answers.
func TestDoBatchResultCountMismatch(t *testing.T) {
	c := qcache.New(16, 0)
	k := mustKey(t, []int{0}, 0)
	_, err := c.DoBatch(context.Background(), []qcache.Key{k},
		func(context.Context, []qcache.Key) ([]qcache.Result, error) { return []qcache.Result{}, nil })
	if err == nil {
		t.Fatal("count mismatch not rejected")
	}
}

// TestDoBatchCoalescesWithDo verifies a single query in flight (a
// one-key call) is joined by a batch member and not recomputed, so the
// two share one solve.
func TestDoBatchCoalescesWithDo(t *testing.T) {
	c := qcache.New(16, 0)
	k := mustKey(t, []int{0, 2}, 1)
	started := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := do(c, context.Background(), k, func(context.Context) (*marginal.Table, error) {
			close(started)
			<-release
			return table([]int{0, 2}, 7), nil
		})
		if err != nil {
			t.Errorf("single query: %v", err)
		}
	}()
	<-started
	var batchErr error
	var batchRes []qcache.Result
	wg.Add(1)
	go func() {
		defer wg.Done()
		batchRes, batchErr = c.DoBatch(context.Background(), []qcache.Key{k},
			func(context.Context, []qcache.Key) ([]qcache.Result, error) {
				t.Error("batch recomputed a key already in flight")
				return nil, fmt.Errorf("unexpected compute")
			})
	}()
	// Release the leader only after the batch has joined its flight
	// (coalesced ticks during the batch's lock pass, before it waits);
	// releasing earlier would let the leader finish first and turn the
	// join into a plain cache hit.
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().Coalesced == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if batchErr != nil {
		t.Fatal(batchErr)
	}
	if len(batchRes) != 1 || batchRes[0].Table == nil {
		t.Fatalf("joined result: %+v", batchRes)
	}
	if got := c.Stats().Coalesced; got != 1 {
		t.Errorf("coalesced = %d, want 1", got)
	}
}

// TestDoBatchCanceled verifies a canceled context fails the batch with
// the reconstruct sentinel and no results.
func TestDoBatchCanceled(t *testing.T) {
	c := qcache.New(16, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := c.DoBatch(ctx, []qcache.Key{mustKey(t, []int{0}, 0)},
		func(context.Context, []qcache.Key) ([]qcache.Result, error) {
			t.Error("compute ran under a canceled context")
			return nil, nil
		})
	if res != nil || !errors.Is(err, reconstruct.ErrCanceled) {
		t.Fatalf("res=%v err=%v", res, err)
	}
}

// TestDoBatchRecordsCacheStages verifies a traced batch records its
// cache stages: one cache.hit for the round that found stored keys and
// one cache.fill for the one compute of its misses.
func TestDoBatchRecordsCacheStages(t *testing.T) {
	c := qcache.New(16, 0)
	stored := mustKey(t, []int{0}, 0)
	if _, err := do(c, context.Background(), stored, constant(table([]int{0}, 1))); err != nil {
		t.Fatal(err)
	}
	ctx, tr := telemetry.StartTrace(context.Background())
	var solved [][]qcache.Key
	keys := []qcache.Key{stored, mustKey(t, []int{1}, 0), mustKey(t, []int{2}, 0)}
	if _, err := c.DoBatch(ctx, keys, batchCompute(&solved)); err != nil {
		t.Fatal(err)
	}
	count := map[string]int{}
	for _, st := range tr.Stages() {
		count[st.Name]++
	}
	if count["cache.hit"] != 1 || count["cache.fill"] != 1 || len(count) != 2 {
		t.Errorf("stages = %+v, want one cache.hit and one cache.fill", tr.Stages())
	}
}
