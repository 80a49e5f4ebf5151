package core

import (
	"context"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"priview/internal/attrset"
	"priview/internal/covering"
	"priview/internal/dataset/synth"
	"priview/internal/marginal"
	"priview/internal/noise"
	"priview/internal/reconstruct"
)

// bitIdentical reports whether two tables agree bit-for-bit, comparing
// cell representations rather than values so NaNs and signed zeros
// cannot hide behind tolerant equality.
func bitIdentical(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestQueryBatchMatchesSequentialGolden is the batch correctness
// anchor: for every estimator, QueryBatch must agree bit-for-bit with a
// sequential QueryMethodContext loop over the same requests — the two
// paths are one code path by construction, and this test keeps them so.
func TestQueryBatchMatchesSequentialGolden(t *testing.T) {
	data := synth.MSNBC(5000, 101)
	dg := covering.Groups(9, 4)
	s := BuildSynopsis(data, Config{Epsilon: 1, Design: dg}, noise.NewStream(102))
	for _, method := range []ReconstructMethod{CME, CLN, LP, CLP} {
		reqs := AllKWay(dg.D, 3, method)
		got, err := s.QueryBatch(context.Background(), reqs, BatchOptions{Workers: 4})
		if err != nil {
			t.Fatalf("%v: QueryBatch: %v", method, err)
		}
		if len(got) != len(reqs) {
			t.Fatalf("%v: got %d results for %d requests", method, len(got), len(reqs))
		}
		for i, r := range reqs {
			want, werr := s.QueryMethodContext(context.Background(), r.Attrs, r.Method)
			if (werr == nil) != (got[i].Err == nil) {
				t.Fatalf("%v %v: batch err %v, sequential err %v", method, r.Attrs, got[i].Err, werr)
			}
			if !bitIdentical(got[i].Table.Cells, want.Cells) {
				t.Fatalf("%v %v: batch and sequential answers differ", method, r.Attrs)
			}
		}
	}
}

// TestQueryBatchDeduplicates verifies identical attribute sets within
// one batch cost one solve: duplicates get equal answers from distinct
// tables (no aliasing), and the underlying synopsis sees one solve's
// worth of work.
func TestQueryBatchDeduplicates(t *testing.T) {
	data := synth.MSNBC(2000, 105)
	dg := covering.Groups(9, 4)
	s := BuildSynopsis(data, Config{Epsilon: 1, Design: dg}, noise.NewStream(106))
	reqs := []BatchRequest{
		{Attrs: []int{1, 3}, Method: CME},
		{Attrs: []int{0, 5}, Method: CME},
		{Attrs: []int{3, 1}, Method: CME}, // same set as [1,3], different order
	}
	res, err := s.QueryBatch(context.Background(), reqs, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bitIdentical(res[0].Table.Cells, res[2].Table.Cells) {
		t.Error("duplicate requests got different answers")
	}
	if res[0].Table == res[2].Table {
		t.Error("duplicate requests alias one table")
	}
	res[0].Table.Cells[0] = -1
	if bitIdentical(res[0].Table.Cells, res[2].Table.Cells) {
		t.Error("mutating one duplicate's table leaked into the other")
	}
}

// TestQueryBatchRejectsInvalid verifies whole-batch rejection with one
// typed error per offending index and nothing solved.
func TestQueryBatchRejectsInvalid(t *testing.T) {
	data := synth.MSNBC(1000, 107)
	dg := covering.Groups(9, 4)
	s := BuildSynopsis(data, Config{Epsilon: 1, Design: dg}, noise.NewStream(108))
	reqs := []BatchRequest{
		{Attrs: []int{0, 1}, Method: CME},                // valid
		{Attrs: []int{2, 2}, Method: CME},                // duplicate attribute
		{Attrs: []int{70}, Method: CME},                  // out of mask range
		{Attrs: []int{3}, Method: ReconstructMethod(99)}, // unknown method
	}
	_, err := s.QueryBatch(context.Background(), reqs, BatchOptions{})
	var be *BatchError
	if !errors.As(err, &be) {
		t.Fatalf("want *BatchError, got %v", err)
	}
	if len(be.Items) != 3 {
		t.Fatalf("want 3 item errors, got %d: %v", len(be.Items), be)
	}
	wantIdx := []int{1, 2, 3}
	for i, it := range be.Items {
		if it.Index != wantIdx[i] {
			t.Errorf("item %d: index %d, want %d", i, it.Index, wantIdx[i])
		}
	}
	if !errors.Is(be.Items[0].Err, attrset.ErrDuplicate) {
		t.Errorf("index 1: want ErrDuplicate, got %v", be.Items[0].Err)
	}
	if !errors.Is(be.Items[1].Err, attrset.ErrRange) {
		t.Errorf("index 2: want ErrRange, got %v", be.Items[1].Err)
	}
}

// TestQueryBatchCanceledReturnsSentinelOnly verifies a canceled batch
// joins its workers, leaks no goroutines, and returns the cancellation
// sentinel instead of partial results.
func TestQueryBatchCanceledReturnsSentinelOnly(t *testing.T) {
	data := synth.Kosarak(5000, 109)
	dg := covering.Best(32, 8, 2, 1, 2)
	s := BuildSynopsis(data, Config{Epsilon: 1, Design: dg}, noise.NewStream(110))
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := s.QueryBatch(ctx, AllKWay(dg.D, 3, CME), BatchOptions{Workers: 4})
	if res != nil {
		t.Fatalf("canceled batch returned %d results, want none", len(res))
	}
	if !errors.Is(err, reconstruct.ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	// The worker pool must have fully joined; give the runtime a moment
	// to retire exiting goroutines before comparing.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, n)
	}
}

// TestAllKWay checks the evaluation workload enumerator: C(d,1) + ... +
// C(d,k) requests, deterministic order, canonical attrs.
func TestAllKWay(t *testing.T) {
	reqs := AllKWay(5, 2, CLN)
	if want := 5 + 10; len(reqs) != want {
		t.Fatalf("got %d requests, want %d", len(reqs), want)
	}
	if got := AllKWay(5, 2, CLN); len(got) != len(reqs) {
		t.Fatal("enumeration not deterministic in count")
	}
	for i, r := range reqs {
		if r.Method != CLN {
			t.Fatalf("request %d: method %v", i, r.Method)
		}
		for j := 1; j < len(r.Attrs); j++ {
			if r.Attrs[j] <= r.Attrs[j-1] {
				t.Fatalf("request %d: attrs %v not strictly increasing", i, r.Attrs)
			}
		}
	}
}

// TestQueryBatchEmpty verifies the zero-request edge: no solves, no
// error, empty (non-nil) result.
func TestQueryBatchEmpty(t *testing.T) {
	data := synth.MSNBC(100, 111)
	dg := covering.Groups(9, 4)
	s := BuildSynopsis(data, Config{Epsilon: 1, Design: dg}, noise.NewStream(112))
	res, err := s.QueryBatch(context.Background(), nil, BatchOptions{})
	if err != nil || res == nil || len(res) != 0 {
		t.Fatalf("empty batch: res=%v err=%v", res, err)
	}
}

// TestQueryBatchRepanicsInCaller verifies a panicking solve reaches the
// caller's goroutine, where a recovery (the server's 500 middleware)
// can catch it, instead of killing the process from a worker. A nil
// view makes every solve panic while it builds its constraints.
func TestQueryBatchRepanicsInCaller(t *testing.T) {
	s := &Synopsis{
		cfg:      Config{Epsilon: 1, Design: covering.Groups(4, 2)},
		views:    []*marginal.Table{nil},
		rawViews: []*marginal.Table{nil},
		total:    1,
	}
	reqs := []BatchRequest{{Attrs: []int{0}}, {Attrs: []int{1}}}
	defer func() {
		rec := recover()
		if rec == nil {
			t.Fatal("QueryBatch returned instead of re-raising the solve panic")
		}
		if msg, ok := rec.(string); !ok || !strings.HasPrefix(msg, "core: batch solve panicked: ") {
			t.Errorf("panic value = %v, want the core-prefixed re-raise", rec)
		}
	}()
	_, _ = s.QueryBatch(context.Background(), reqs, BatchOptions{Workers: 2})
}
