package audit_test

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"priview/internal/audit"
	"priview/internal/core"
	"priview/internal/covering"
	"priview/internal/dataset"
	"priview/internal/dataset/synth"
	"priview/internal/marginal"
	"priview/internal/noise"
)

type fakeSyn struct {
	views  []*marginal.Table
	total  float64
	eps    float64
	design *covering.Design
}

func (f *fakeSyn) Views() []*marginal.Table { return f.views }
func (f *fakeSyn) Total() float64           { return f.total }
func (f *fakeSyn) Epsilon() float64         { return f.eps }
func (f *fakeSyn) Design() *covering.Design { return f.design }

func table(attrs []int, cells ...float64) *marginal.Table {
	t := marginal.New(attrs)
	copy(t.Cells, cells)
	return t
}

func buildReal(t *testing.T, seed int64, eps float64) *core.Synopsis {
	t.Helper()
	data := synth.MSNBC(3000, seed)
	dg := covering.Groups(9, 4)
	return core.BuildSynopsis(data, core.Config{Epsilon: eps, Design: dg}, noise.NewStream(seed))
}

func TestCleanSynopsisPasses(t *testing.T) {
	for _, eps := range []float64{0.1, 1, 10} {
		s := buildReal(t, 5, eps)
		r := audit.Check(s, audit.Options{})
		if !r.OK() {
			t.Errorf("eps=%v: clean synopsis failed audit:\n%s", eps, r)
		}
		if err := r.Err(); err != nil {
			t.Errorf("eps=%v: Err() = %v", eps, err)
		}
		if r.Pairs == 0 {
			t.Errorf("eps=%v: no view pairs checked", eps)
		}
	}
}

func TestPoisonedCellFails(t *testing.T) {
	s := buildReal(t, 6, 1)
	s.Views()[0].Cells[3] = math.NaN()
	r := audit.Check(s, audit.Options{})
	if r.OK() {
		t.Fatalf("poisoned synopsis passed audit:\n%s", r)
	}
	if err := r.Err(); err == nil || !strings.Contains(err.Error(), "violation") {
		t.Fatalf("Err() = %v", err)
	}
	found := false
	for _, f := range r.Findings {
		if f.Invariant == "finiteness" && f.Severity == audit.Error && f.View == 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no finiteness finding for view 0:\n%s", r)
	}
}

func TestInconsistentViewsFail(t *testing.T) {
	// Two views sharing attribute 1 but disagreeing on its marginal:
	// view A says attr1 splits 30/10, view B says 20/20.
	s := &fakeSyn{
		views: []*marginal.Table{
			table([]int{0, 1}, 15, 15, 5, 5),
			table([]int{1, 2}, 10, 10, 10, 10),
		},
		total: 40, eps: 1,
	}
	r := audit.Check(s, audit.Options{})
	if r.OK() {
		t.Fatalf("inconsistent views passed audit:\n%s", r)
	}
	found := false
	for _, f := range r.Findings {
		if f.Invariant == "consistency" && f.Severity == audit.Error {
			found = true
		}
	}
	if !found {
		t.Fatalf("no consistency finding:\n%s", r)
	}
}

func TestTotalMismatchFails(t *testing.T) {
	s := &fakeSyn{
		views: []*marginal.Table{table([]int{0}, 10, 10)},
		total: 95, eps: 1, // views say 20
	}
	r := audit.Check(s, audit.Options{})
	if r.OK() {
		t.Fatalf("total mismatch passed audit:\n%s", r)
	}
}

func TestNegativeCellSeverity(t *testing.T) {
	// Mildly negative (beyond θ but far from the error threshold):
	// Warning only, audit still passes.
	mild := &fakeSyn{
		views: []*marginal.Table{table([]int{0}, 42, -2)},
		total: 40, eps: 1,
	}
	r := audit.Check(mild, audit.Options{})
	if !r.OK() {
		t.Fatalf("mildly negative cell failed audit:\n%s", r)
	}
	warned := false
	for _, f := range r.Findings {
		if f.Invariant == "non-negativity" && f.Severity == audit.Warning {
			warned = true
		}
	}
	if !warned {
		t.Fatalf("no non-negativity warning:\n%s", r)
	}

	// Catastrophically negative: Error.
	bad := &fakeSyn{
		views: []*marginal.Table{table([]int{0}, 140, -100)},
		total: 40, eps: 1,
	}
	if r := audit.Check(bad, audit.Options{}); r.OK() {
		t.Fatalf("catastrophically negative cell passed audit:\n%s", r)
	}
}

// Many mildly negative views draw one non-negativity Warning that
// counts them and names the lowest, not one Warning per view.
func TestNegativeViewsShareOneWarning(t *testing.T) {
	views := make([]*marginal.Table, 40)
	for i := range views {
		neg := -1 - float64(i*7%40)/10 // lowest, -4.9, at view 17
		views[i] = table([]int{i}, 40-neg, neg)
	}
	r := audit.Check(&fakeSyn{views: views, total: 40, eps: 1}, audit.Options{})
	if !r.OK() {
		t.Fatalf("mildly negative views failed audit:\n%s", r)
	}
	var warnings []audit.Finding
	for _, f := range r.Findings {
		if f.Severity == audit.Warning {
			warnings = append(warnings, f)
		}
	}
	if len(warnings) != 1 {
		t.Fatalf("%d Warnings, want 1:\n%s", len(warnings), r)
	}
	w := warnings[0]
	if w.Invariant != "non-negativity" || w.View != 17 || w.Value != -4.9 ||
		!strings.HasPrefix(w.Detail, "40 view(s) ") || !strings.Contains(w.Detail, "view 17 (attrs [17])") {
		t.Errorf("Warning = %+v, want 40 views counted and view 17's cell -4.9 named", w)
	}
}

func TestClampedTotalAllowed(t *testing.T) {
	// Heavy noise at tiny ε can drive the view totals negative; the
	// release publishes total 0. That is the documented clamp case and
	// must not fail the audit.
	s := &fakeSyn{
		views: []*marginal.Table{table([]int{0}, -3, -2)},
		total: 0, eps: 1,
	}
	r := audit.Check(s, audit.Options{NonnegErr: 1000})
	for _, f := range r.Findings {
		if f.Invariant == "total" && f.Severity == audit.Error {
			t.Fatalf("clamped total flagged as error:\n%s", r)
		}
	}
}

func TestEmptyAndNilViews(t *testing.T) {
	if r := audit.Check(&fakeSyn{total: 1, eps: 1}, audit.Options{}); r.OK() {
		t.Fatal("empty synopsis passed audit")
	}
	s := &fakeSyn{views: []*marginal.Table{nil}, total: 1, eps: 1}
	if r := audit.Check(s, audit.Options{}); r.OK() {
		t.Fatal("nil view passed audit")
	}
}

// FuzzAuditReport feeds arbitrary bytes through core.Load and, when a
// synopsis comes out, audits it. Neither step may panic, and the
// report must always render.
func FuzzAuditReport(f *testing.F) {
	var buf bytes.Buffer
	if err := buildReal(&testing.T{}, 3, 1).Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"format":"priview-synopsis-v1","epsilon":1,"total":4,"views":[{"attrs":[0,1],"cells":[1,1,1,1]}]}`))
	f.Add([]byte(`{"format":"priview-synopsis-v1"}`))
	f.Add([]byte("not json"))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := core.Load(data)
		if err != nil {
			return
		}
		r := audit.Check(s, audit.Options{})
		if r == nil {
			t.Fatal("nil report")
		}
		_ = r.String()
		_ = r.OK()
		_ = r.Err()
		crossCheck(t, s, 1e-6*math.Max(math.Abs(s.Total()), 1))
	})
}

// referenceSweep is Check's consistency sweep written as a plain loop:
// Project both views of every overlapping pair onto their shared
// attributes, then marginal.MaxAbsDiff. It returns the pair count and
// the consistency findings Check must report, in order.
func referenceSweep(views []*marginal.Table, tol float64) (int, []audit.Finding) {
	usable := make([]bool, len(views))
	for i, v := range views {
		usable[i] = v != nil && len(v.Cells) == 1<<uint(len(v.Attrs))
		for j := 0; usable[i] && j < len(v.Cells); j++ {
			usable[i] = !math.IsNaN(v.Cells[j]) && !math.IsInf(v.Cells[j], 0)
		}
	}
	pairs := 0
	var found []audit.Finding
	for i := range views {
		if !usable[i] {
			continue
		}
		for j := i + 1; j < len(views); j++ {
			if !usable[j] {
				continue
			}
			sharedMask := views[i].Mask().Intersect(views[j].Mask())
			if sharedMask.Empty() {
				continue
			}
			shared := sharedMask.Attrs()
			pairs++
			gap := marginal.MaxAbsDiff(views[i].Project(shared), views[j].Project(shared))
			if gap > tol {
				found = append(found, audit.Finding{
					Severity: audit.Error, Invariant: "consistency", View: i, Value: gap,
					Detail: fmt.Sprintf("views %d and %d disagree on shared attrs %v by %v (tol %v)", i, j, shared, gap, tol),
				})
			}
		}
	}
	return pairs, found
}

// crossCheck audits s at consistency tolerance tol and fails t unless
// the report's pair count and consistency findings equal the reference
// sweep's, in order, with identical texts and bit-identical values.
func crossCheck(t *testing.T, s audit.Synopsis, tol float64) {
	t.Helper()
	r := audit.Check(s, audit.Options{ConsistencyTol: tol})
	pairs, want := referenceSweep(s.Views(), tol)
	if r.Pairs != pairs {
		t.Errorf("Pairs = %d, reference sweep %d", r.Pairs, pairs)
	}
	var got []audit.Finding
	for _, f := range r.Findings {
		if f.Invariant == "consistency" {
			got = append(got, f)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d consistency findings, reference sweep %d:\n%s", len(got), len(want), r)
	}
	for k, w := range want {
		g := got[k]
		if g.Severity != w.Severity || g.View != w.View || g.Detail != w.Detail ||
			math.Float64bits(g.Value) != math.Float64bits(w.Value) {
			t.Fatalf("consistency finding %d = %+v, reference sweep %+v", k, g, w)
		}
	}
}

// randomSynopsis draws 2–14 exact marginals of data over minDim to
// maxDim of its attributes, so pairs come disjoint, overlapping, nested
// and equal, then damages some views: noise below tol, a cell pushed
// past it, a NaN cell, a wrong cell count, or no view at all.
func randomSynopsis(rng *noise.Stream, data *dataset.Dataset, tol float64, minDim, maxDim int) *fakeSyn {
	views := make([]*marginal.Table, 2+rng.Intn(13))
	for i := range views {
		v := data.Marginal(rng.Perm(data.Dim())[:minDim+rng.Intn(maxDim-minDim+1)])
		switch rng.Intn(8) {
		case 0:
			for k := range v.Cells {
				v.Cells[k] += 1e-3 * tol * rng.NormFloat64()
			}
		case 1:
			v.Cells[rng.Intn(len(v.Cells))] += tol * (1 + 10*rng.Float64())
		case 2:
			v.Cells[rng.Intn(len(v.Cells))] = math.NaN()
		case 3:
			v.Cells = v.Cells[:len(v.Cells)-1]
		case 4:
			v = nil
		}
		views[i] = v
	}
	return &fakeSyn{views: views, total: float64(data.Len()), eps: 1}
}

// benchRelease is the benchmark's release shape, built in-process at a
// small N: ε = 1 over a C3(8,·) design on Kosarak's d = 32 attributes,
// 173 views with 13,687 overlapping pairs whatever N is.
var benchRelease = sync.OnceValue(func() *core.Synopsis {
	data := synth.Kosarak(2000, 1)
	dg := covering.Best(32, 8, 3, 1, 1)
	return core.BuildSynopsis(data, core.Config{Epsilon: 1, Design: dg}, noise.NewStream(1))
})

// damagedRelease is the benchmark's release with view i's first cell
// raised by i, so every overlapping pair disagrees on its shared
// marginal's first cell: every pair fails the audit.
func damagedRelease() *fakeSyn {
	rel := benchRelease()
	views := make([]*marginal.Table, len(rel.Views()))
	for i, v := range rel.Views() {
		views[i] = v.Clone()
		views[i].Cells[0] += float64(i)
	}
	return &fakeSyn{views: views, total: rel.Total(), eps: rel.Epsilon()}
}

// TestCheckMatchesPairwiseReference pins Check's consistency sweep to
// its definition: on random synopses, on noisy and damaged copies of the
// benchmark's release, on copies with gaps within rounding of the
// tolerance, and on the release at a tolerance no pair clears, the
// report holds exactly the pairs and the findings of the plain
// Project-and-compare loop.
func TestCheckMatchesPairwiseReference(t *testing.T) {
	rng := noise.NewStream(11)
	data := synth.Uniform(12, 500, 0.3, 11)
	tol := 1e-6 * float64(data.Len())
	for k := 0; k < 300; k++ {
		crossCheck(t, randomSynopsis(rng, data, tol, 1, 8), tol)
	}
	// Views of 15–17 attributes share wide sets, so a pair's bound sums
	// up to 2^17 coefficients.
	wide := synth.Uniform(19, 300, 0.3, 12)
	tol = 1e-6 * float64(wide.Len())
	for k := 0; k < 3; k++ {
		crossCheck(t, randomSynopsis(rng, wide, tol, 15, 17), tol)
	}

	rel := benchRelease()
	for k := 0; k < 4; k++ {
		views := make([]*marginal.Table, len(rel.Views()))
		for i, v := range rel.Views() {
			views[i] = v.Clone()
			if k > 0 && rng.Intn(8) == 0 {
				views[i].Cells[rng.Intn(len(v.Cells))] += float64(k) * rng.NormFloat64()
			}
		}
		if k == 3 {
			views[rng.Intn(len(views))].Cells[0] = math.NaN()
		}
		s := &fakeSyn{views: views, total: rel.Total(), eps: rel.Epsilon()}
		crossCheck(t, s, 1e-6*math.Max(math.Abs(rel.Total()), 1))
	}

	// One cell moved by tol·(1 ± 5e-10) puts the gaps of its view's
	// pairs within rounding of tol, where the spectral screen must
	// leave the verdict to the exact comparison.
	tol = 1e-6 * math.Max(math.Abs(rel.Total()), 1)
	for k := 0; k < 16; k++ {
		views := slices.Clone(rel.Views())
		i := rng.Intn(len(views))
		views[i] = views[i].Clone()
		views[i].Cells[rng.Intn(len(views[i].Cells))] += tol * (1 + (rng.Float64()-0.5)*1e-9)
		crossCheck(t, &fakeSyn{views: views, total: rel.Total(), eps: rel.Epsilon()}, tol)
	}
	// Below the screen's rounding margin no pair clears, so every pair
	// takes the exact path.
	crossCheck(t, rel, 1e-12)
}

// TestCheckAllocations bounds the audit's allocations on the benchmark's
// release shape: the consistency screen fills one coefficient slab per
// Check and allocates nothing per pair it clears, so the whole audit
// allocates well under once per pair.
func TestCheckAllocations(t *testing.T) {
	s := benchRelease()
	pairs := audit.Check(s, audit.Options{}).Pairs
	allocs := testing.AllocsPerRun(3, func() { audit.Check(s, audit.Options{}) })
	if allocs >= float64(pairs)/4 {
		t.Errorf("audit.Check allocated %v times for %d pairs, want < %d", allocs, pairs, pairs/4)
	}
}

// reportSink keeps BenchmarkCheck's result live.
var reportSink *audit.Report

// BenchmarkCheck audits the benchmark's release shape: clean, where
// every pair passes, and damaged, where every pair fails.
func BenchmarkCheck(b *testing.B) {
	for _, bc := range []struct {
		name string
		s    audit.Synopsis
	}{{"clean", benchRelease()}, {"damaged", damagedRelease()}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				reportSink = audit.Check(bc.s, audit.Options{})
			}
		})
	}
}
