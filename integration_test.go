// Integration tests exercising whole pipelines across packages: the
// curator workflow (plan → budget → build → save → serve → query), the
// d=64 extreme, and cross-method sanity at the public-API level.
package priview_test

import (
	"bytes"
	"context"
	"math"
	"net/http/httptest"
	"testing"

	"priview"
	"priview/internal/accuracy"
	"priview/internal/chaos"
	"priview/internal/core"
	"priview/internal/dataset/synth"
	"priview/internal/marginal"
	"priview/internal/privacy"
	"priview/internal/server"
)

// TestCuratorWorkflow runs the full deployment story: estimate N with a
// budget slice, plan, build, account for the budget, save, reload,
// serve over HTTP, and query through the client — verifying the final
// answers match the in-process ones exactly.
func TestCuratorWorkflow(t *testing.T) {
	data := synth.Kosarak(50000, 21)
	acct := privacy.NewAccountant(1.0)

	// Step 1: tiny budget for the count estimate.
	const countEps = 0.001
	if err := acct.Charge("count-estimate", countEps); err != nil {
		t.Fatal(err)
	}
	nEst := priview.NoisyCount(data, countEps, 5)

	// Step 2: plan and build with the remainder.
	mainEps := acct.Remaining()
	plan := priview.PlanDesign(data.Dim(), int(nEst), mainEps, 1)
	if err := acct.Charge("synopsis", mainEps); err != nil {
		t.Fatal(err)
	}
	syn := priview.Build(data, priview.Config{Epsilon: mainEps, Design: plan.Design}, 77)
	if acct.Remaining() > 1e-9 {
		t.Errorf("budget not fully allocated: %v left", acct.Remaining())
	}
	if err := acct.Charge("extra", 0.1); err != privacy.ErrBudgetExhausted {
		t.Errorf("over-budget charge not refused: %v", err)
	}

	// Step 3: persistence round trip.
	var buf bytes.Buffer
	if err := syn.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := core.Load(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}

	// Step 4: serve and query via HTTP, as priview-serve -synopsis does.
	h, err := chaos.ServeSynopsis(t.TempDir(), loaded, nil, server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(h)
	defer ts.Close()
	client := server.NewClient(ts.URL, nil, server.RetryPolicy{})
	attrs := []int{2, 9, 18, 27}
	results, err := client.MarginalsContext(context.Background(), []core.BatchRequest{{Attrs: attrs}})
	if err != nil {
		t.Fatal(err)
	}
	viaHTTP := results[0].Table
	direct := syn.Query(attrs)
	if !marginal.Equal(viaHTTP, direct, 1e-9) {
		t.Error("served answer differs from in-process answer")
	}

	// Step 5: the answer is actually useful.
	truth := data.Marginal(attrs)
	nerr := accuracy.NormalizedL2Error(viaHTTP, truth, float64(data.Len()))
	if nerr > 0.1 {
		t.Errorf("end-to-end error %v too large", nerr)
	}
}

// TestD64EndToEnd exercises the maximum supported dimensionality with
// the optimal spread-based design.
func TestD64EndToEnd(t *testing.T) {
	data := synth.MChain(2, 20000, 31)
	design := priview.BestDesign(64, 8, 2, 1)
	if design.W() != 72 {
		t.Fatalf("w = %d, want the optimal 72", design.W())
	}
	syn := priview.Build(data, priview.Config{Epsilon: 1, Design: design}, 3)
	// Consecutive attributes (strongly coupled by the order-2 chain).
	attrs := []int{30, 31, 32, 33}
	got := syn.Query(attrs)
	truth := data.Marginal(attrs)
	uniform := marginal.Uniform(attrs, float64(data.Len()))
	if accuracy.L2Error(got, truth) >= accuracy.L2Error(uniform, truth) {
		t.Error("d=64 reconstruction no better than uniform")
	}
	// Attributes 62, 63 exist and are covered.
	edge := syn.Query([]int{62, 63})
	if edge.Size() != 4 || math.IsNaN(edge.Total()) {
		t.Errorf("edge-attribute query broken: %+v", edge)
	}
}

// TestEmptyDataset verifies nothing panics and outputs degrade
// gracefully when N = 0.
func TestEmptyDataset(t *testing.T) {
	data := priview.NewDataset(9, nil)
	dg := priview.BestDesign(9, 6, 2, 1)
	syn := priview.Build(data, priview.Config{Epsilon: 1, Design: dg}, 4)
	got := syn.Query([]int{0, 5})
	for _, v := range got.Cells {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("non-finite cell on empty dataset: %v", got.Cells)
		}
	}
}

// TestSingleRecordPrivacy: with one record and small ε the output must
// be dominated by noise — the reconstruction should not reveal the
// record's cell reliably.
func TestSingleRecordPrivacy(t *testing.T) {
	data := priview.NewDataset(9, []uint64{0b101010101})
	dg := priview.BestDesign(9, 6, 2, 1)
	hits := 0
	const trials = 40
	for i := 0; i < trials; i++ {
		syn := priview.Build(data, priview.Config{Epsilon: 0.05, Design: dg}, int64(i))
		got := syn.Query([]int{0, 2, 4})
		// Find argmax cell; the record sits at index 0b111 (bits 0,2,4
		// set).
		best, bestV := -1, math.Inf(-1)
		for c, v := range got.Cells {
			if v > bestV {
				bestV, best = v, c
			}
		}
		if best == 0b111 {
			hits++
		}
	}
	// With eps=0.05 the signal (1 count) is far below the noise
	// (scale w/eps ≥ 60): argmax should be nearly uniform over 8 cells.
	if hits > trials/2 {
		t.Errorf("argmax found the single record %d/%d times; noise too weak", hits, trials)
	}
}

// TestRepeatedQueriesConsistent: the synopsis is a fixed published
// object, so any two queries whose answers overlap logically must agree
// after reconstruction (covered case), and repeated identical queries
// must agree exactly.
func TestRepeatedQueriesConsistent(t *testing.T) {
	data := synth.MSNBC(30000, 8)
	dg := priview.BestDesign(9, 6, 2, 1)
	syn := priview.Build(data, priview.Config{Epsilon: 1, Design: dg}, 9)
	a := syn.Query([]int{1, 3, 5})
	b := syn.Query([]int{1, 3, 5})
	if !marginal.Equal(a, b, 0) {
		t.Error("identical queries disagree")
	}
	// Projections of two covered queries onto a shared pair agree
	// because the views are consistent.
	q1 := syn.Query([]int{1, 3})
	p1 := a.Project([]int{1, 3})
	if !marginal.Equal(q1, p1, 1e-6) {
		t.Error("overlapping covered queries inconsistent")
	}
}
