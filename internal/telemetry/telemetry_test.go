package telemetry

import (
	"context"
	"fmt"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// Add adjusts the gauge by d (negative to decrease), by a CAS retry:
// the concurrent writer the scrape stress test drives.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

func TestCounterBasics(t *testing.T) {
	c := NewCounter()
	if got := c.Value(); got != 0 {
		t.Fatalf("fresh counter = %d, want 0", got)
	}
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
}

func TestGaugeSetAdd(t *testing.T) {
	g := NewGauge()
	g.Set(2.5)
	g.Add(-1.25)
	if got := g.Value(); got < 1.24 || got > 1.26 {
		t.Fatalf("gauge = %v, want 1.25", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	buckets, count, sum := h.snapshot()
	want := []uint64{2, 1, 1, 1} // le=1:{0.5,1} le=2:{1.5} le=4:{3} +Inf:{100}
	for i, w := range want {
		if buckets[i] != w {
			t.Fatalf("bucket %d = %d, want %d (all %v)", i, buckets[i], w, buckets)
		}
	}
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	if sum < 105.9 || sum > 106.1 {
		t.Fatalf("sum = %v, want 106", sum)
	}
}

func TestVecInterning(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("pv_test_total", "test", "release")
	a1 := v.With("alpha")
	a2 := v.With("alpha")
	b := v.With("beta")
	if a1 != a2 {
		t.Fatal("same label tuple returned distinct counters")
	}
	if a1 == b {
		t.Fatal("distinct label tuples share a counter")
	}
	a1.Add(3)
	if got := v.With("alpha").Value(); got != 3 {
		t.Fatalf("interned counter = %d, want 3", got)
	}
}

func TestRegistrationIdempotentAndChecked(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("pv_once_total", "one")
	c2 := r.Counter("pv_once_total", "one")
	if c1 != c2 {
		t.Fatal("re-registering the same counter returned a new instance")
	}
	mustPanic(t, "kind change", func() { r.Gauge("pv_once_total", "one") })
	mustPanic(t, "label change", func() { r.CounterVec("pv_once_total", "one", "x") })
	mustPanic(t, "bad name", func() { r.Counter("0bad", "x") })
	mustPanic(t, "bad label", func() { r.CounterVec("pv_ok_total", "x", "0bad") })
	mustPanic(t, "reserved le", func() { r.HistogramVec("pv_h", "x", nil, "le") })
	mustPanic(t, "descending buckets", func() { r.Histogram("pv_h2", "x", []float64{2, 1}) })
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic, got none", what)
		}
	}()
	fn()
}

func TestOnScrapeRefreshesGauges(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("pv_depth", "queue depth")
	depth := 0
	r.OnScrape(func() { g.Set(float64(depth)) })
	depth = 7
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "pv_depth 7\n") {
		t.Fatalf("scrape hook did not refresh gauge:\n%s", sb.String())
	}
}

// TestRoundTrip renders a registry with every family kind and labels
// needing escapes, parses it back, and checks the values survive.
func TestRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("pv_plain_total", "plain").Add(12)
	r.CounterVec("pv_labeled_total", "labeled", "release").With(`we"ird\nam` + "\n" + `e`).Add(3)
	r.Gauge("pv_gauge", "a gauge").Set(-1.5)
	h := r.HistogramVec("pv_lat_seconds", "latency", []float64{0.01, 0.1}, "route")
	h.With("/v1/marginal").Observe(0.05)
	h.With("/v1/marginal").Observe(5)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	fams, err := ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("round-trip parse: %v\n%s", err, sb.String())
	}
	if s := fams["pv_plain_total"].Sample("pv_plain_total", nil); s == nil || s.Value != 12 {
		t.Fatalf("pv_plain_total = %+v, want 12", s)
	}
	lab := fams["pv_labeled_total"].Sample("pv_labeled_total", map[string]string{"release": `we"ird\nam` + "\n" + `e`})
	if lab == nil || lab.Value != 3 {
		t.Fatalf("escaped label round-trip failed: %+v\n%s", lab, sb.String())
	}
	cnt := fams["pv_lat_seconds"].Sample("pv_lat_seconds_count", map[string]string{"route": "/v1/marginal"})
	if cnt == nil || cnt.Value != 2 {
		t.Fatalf("histogram count = %+v, want 2", cnt)
	}
}

// TestConcurrentScrapeStress is the satellite's -race gate: 12 writer
// goroutines hammer counters, gauges and a histogram while scrapers
// render and re-parse the exposition; every scrape must stay
// well-formed (cumulative buckets, no torn samples).
func TestConcurrentScrapeStress(t *testing.T) {
	r := NewRegistry()
	vec := r.CounterVec("pv_stress_total", "stress", "worker")
	g := r.Gauge("pv_stress_gauge", "stress")
	h := r.Histogram("pv_stress_seconds", "stress", []float64{0.001, 0.01, 0.1})
	const writers = 12
	const perWriter = 2000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		handle := vec.With(fmt.Sprintf("w%d", w))
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				handle.Inc()
				g.Add(1)
				h.Observe(float64(i%100) / 1000)
			}
		}(w)
	}
	stop := make(chan struct{})
	var scrapeWG sync.WaitGroup
	for s := 0; s < 3; s++ {
		scrapeWG.Add(1)
		go func() {
			defer scrapeWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				srv := httptest.NewRecorder()
				r.Handler().ServeHTTP(srv, httptest.NewRequest("GET", "/metrics", nil))
				if srv.Code != 200 {
					t.Errorf("scrape status %d", srv.Code)
					return
				}
				if _, err := ParseText(srv.Body); err != nil {
					t.Errorf("mid-stress scrape does not parse: %v", err)
					return
				}
				time.Sleep(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	close(stop)
	scrapeWG.Wait()
	var total uint64
	for w := 0; w < writers; w++ {
		total += vec.With(fmt.Sprintf("w%d", w)).Value()
	}
	if total != writers*perWriter {
		t.Fatalf("lost increments: %d, want %d", total, writers*perWriter)
	}
	if h.Count() != writers*perWriter {
		t.Fatalf("histogram lost observations: %d, want %d", h.Count(), writers*perWriter)
	}
}

func TestTraceStages(t *testing.T) {
	ctx, tr := StartTrace(context.Background())
	FromContext(ctx).Stage("cache.fill", 20*time.Millisecond)
	FromContext(ctx).Stage("reconstruct.maxent", 15*time.Millisecond)
	stages := tr.Stages()
	if len(stages) != 2 || stages[0].Name != "cache.fill" {
		t.Fatalf("stages = %+v", stages)
	}
	sum := tr.Summary()
	if !strings.HasPrefix(sum, "cache.fill=20ms") || !strings.Contains(sum, "reconstruct.maxent=15ms") {
		t.Fatalf("summary = %q", sum)
	}
	if tr.Elapsed() < 0 {
		t.Fatal("negative elapsed")
	}
}

func TestTraceNilSafe(t *testing.T) {
	var tr *Trace
	tr.Stage("x", time.Second) // must not panic
	if tr.Stages() != nil || tr.Summary() != "" || tr.Elapsed() != 0 {
		t.Fatal("nil trace is not inert")
	}
	if FromContext(context.Background()) != nil {
		t.Fatal("FromContext on a bare context should be nil")
	}
}
