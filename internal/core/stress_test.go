package core_test

import (
	"context"
	"sync"
	"testing"

	"priview/internal/core"
	"priview/internal/covering"
	"priview/internal/dataset/synth"
	"priview/internal/marginal"
	"priview/internal/noise"
	"priview/internal/qcache"
)

// TestConcurrentQueryMethodMixedEstimators proves the documented claim
// on QueryMethod ("safe for concurrent use: all reconstruction paths
// read the views without mutating them") under the race detector: many
// goroutines query one shared synopsis with every estimator at once,
// half of them through a shared qcache so cache hits, misses and
// singleflight coalescing run concurrently with direct solves. Every
// answer must equal the single-threaded answer — a synopsis is a pure
// function of (attrs, method).
//
// The test lives in package core_test so it can layer internal/qcache
// (which deliberately does not import core) over the synopsis exactly
// the way internal/server does.
func TestConcurrentQueryMethodMixedEstimators(t *testing.T) {
	data := synth.MSNBC(3000, 71)
	dg := covering.Groups(9, 4)
	syn := core.BuildSynopsis(data, core.Config{Epsilon: 1, Design: dg}, noise.NewStream(72))
	methods := []core.ReconstructMethod{core.CME, core.CLN, core.LP, core.CLP, core.CMEDual}
	attrSets := [][]int{{0, 4, 8}, {1, 5}, {2, 3, 7}, {0, 4, 8}, {6}}

	// Single-threaded ground truth per (attrs, method).
	type qkey struct {
		attrs  string
		method core.ReconstructMethod
	}
	want := map[qkey]*marginal.Table{}
	for _, attrs := range attrSets {
		for _, m := range methods {
			want[qkey{marginal.Key(attrs), m}] = syn.QueryMethod(attrs, m)
		}
	}

	cache := qcache.New(64, 8<<20)
	ctx := context.Background()
	workers := 4 * len(methods)
	iters := 12
	if testing.Short() {
		iters = 6
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			m := methods[w%len(methods)]
			for i := 0; i < iters; i++ {
				attrs := attrSets[(w+i)%len(attrSets)]
				var got *marginal.Table
				var err error
				if (w+i)%2 == 0 {
					// Direct solve, concurrent with everything else.
					got, err = syn.QueryMethodContext(ctx, attrs, m)
				} else {
					// Through the shared cache: hits, misses and
					// coalesced waiters interleave with direct solves.
					key, ok := qcache.KeyFor(attrs, int(m))
					if !ok {
						t.Errorf("worker %d: unmaskable attrs %v", w, attrs)
						return
					}
					var rs []qcache.Result
					rs, err = cache.DoBatch(ctx, []qcache.Key{key}, func(ctx context.Context, _ []qcache.Key) ([]qcache.Result, error) {
						res, err := syn.QueryBatch(ctx, []core.BatchRequest{{Attrs: attrs, Method: m}}, core.BatchOptions{})
						if err != nil {
							return nil, err
						}
						return []qcache.Result{{Table: res[0].Table, Err: res[0].Err}}, nil
					})
					if err == nil {
						got, err = rs[0].Table, rs[0].Err
					}
				}
				if err != nil {
					t.Errorf("worker %d (%s, %v): %v", w, m, attrs, err)
					return
				}
				if !marginal.Equal(got, want[qkey{marginal.Key(attrs), m}], 1e-9) {
					t.Errorf("worker %d (%s, %v): concurrent answer diverged", w, m, attrs)
					return
				}
				// Scribble on our copy; no other worker may observe it.
				got.Cells[0] = -1e18
			}
		}(w)
	}
	wg.Wait()
	st := cache.Stats()
	if st.Misses == 0 || st.Hits == 0 {
		t.Errorf("stress failed to exercise both hits and misses: %+v", st)
	}
	if total := st.Hits + st.Misses + st.Coalesced; total == 0 {
		t.Error("no cached traffic at all")
	}
}
