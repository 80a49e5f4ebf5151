// Package telemetry is the repo's unified operational-metrics layer: a
// stdlib-only registry of counters, gauges and fixed-bucket histograms
// with Prometheus text-format exposition, plus the request-scoped trace
// spans the server threads through qcache → core → reconstruct.
//
// Design constraints, in order:
//
//   - Hot-path increments are allocation-free. Vec types intern one
//     child per label-value tuple at setup time and hand out typed
//     handles (*Counter, *Gauge, *Histogram); the serving path only
//     touches those handles with atomic operations. Verified by the
//     zero-alloc gate in bench_test.go and the hotalloc lint.
//   - Subsystems own handles, not structs. qcache, admission, the
//     release registry and the client hold *Counter fields that are
//     either standalone (NewCounter, for use without a registry) or
//     interned children of a shared Registry — their JSON stats
//     surfaces read the same counters /metrics exposes, so the two can
//     never disagree.
//   - Scrape-time gauges. Values that are snapshots of live state
//     (cache entries/bytes, queue depth, admitted inflight) are
//     refreshed by OnScrape hooks immediately before rendering rather
//     than pushed on every mutation.
//
// Everything is safe for concurrent use.
package telemetry

import (
	"fmt"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64. The zero value is ready
// to use when embedded; pointer fields should use NewCounter or a
// CounterVec child.
type Counter struct {
	v atomic.Uint64
}

// NewCounter returns a standalone counter not attached to any registry
// — the default for subsystems constructed without telemetry wiring, so
// their hot paths never branch on "is metrics configured".
func NewCounter() *Counter { return new(Counter) }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 that can go up and down, stored as bits in one
// atomic word.
type Gauge struct {
	bits atomic.Uint64
}

// NewGauge returns a standalone gauge not attached to any registry.
func NewGauge() *Gauge { return new(Gauge) }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// metricKind discriminates the three family types in exposition.
type metricKind int

const (
	counterKind metricKind = iota
	gaugeKind
	histogramKind
)

func (k metricKind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind:
		return "gauge"
	case histogramKind:
		return "histogram"
	}
	panic("telemetry: unknown metric kind")
}

// child is one (label values → metric) binding inside a family.
type child struct {
	labelValues []string
	counter     *Counter
	gauge       *Gauge
	hist        *Histogram
}

// family is one named metric with a fixed label schema and interned
// children per label-value tuple.
type family struct {
	name    string
	help    string
	kind    metricKind
	labels  []string
	buckets []float64 // histogramKind only

	mu       sync.Mutex
	children map[string]*child
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. One Registry serves one process; the server mounts
// Handler at GET /metrics.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	hooks    []func()
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// OnScrape registers fn to run immediately before every exposition
// render. Hooks refresh gauges whose truth lives in subsystem state
// (cache occupancy, queue depth, admitted inflight) so a scrape always
// sees a current snapshot without per-mutation pushes. Hooks run
// outside the registry lock, in registration order, and must not
// block.
func (r *Registry) OnScrape(fn func()) {
	if fn == nil {
		panic("telemetry: OnScrape called with nil hook")
	}
	r.mu.Lock()
	r.hooks = append(r.hooks, fn)
	r.mu.Unlock()
}

// register creates (or returns the existing, schema-checked) family.
func (r *Registry) register(name, help string, kind metricKind, labels []string, buckets []float64) *family {
	checkMetricName(name)
	for _, l := range labels {
		checkLabelName(name, l)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("telemetry: metric %s re-registered with a different schema", name))
		}
		for i := range labels {
			if f.labels[i] != labels[i] {
				panic(fmt.Sprintf("telemetry: metric %s re-registered with different label names", name))
			}
		}
		return f
	}
	f := &family{
		name:     name,
		help:     help,
		kind:     kind,
		labels:   append([]string(nil), labels...),
		buckets:  buckets,
		children: make(map[string]*child),
	}
	r.families[name] = f
	return f
}

// childKey joins label values with an unprintable separator; label
// values are free-form UTF-8 so 0xFF (never valid UTF-8) cannot
// collide two distinct tuples.
func childKey(values []string) string {
	return strings.Join(values, "\xff")
}

// get interns (or returns) the child for the given label values.
func (f *family) get(values []string) *child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("telemetry: metric %s accessed with wrong label count", f.name))
	}
	key := childKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	c := &child{labelValues: append([]string(nil), values...)}
	switch f.kind {
	case counterKind:
		c.counter = NewCounter()
	case gaugeKind:
		c.gauge = NewGauge()
	case histogramKind:
		c.hist = NewHistogram(f.buckets)
	}
	f.children[key] = c
	return c
}

// Counter registers (or returns) a label-less counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, counterKind, nil, nil).get(nil).counter
}

// Gauge registers (or returns) a label-less gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, help, gaugeKind, nil, nil).get(nil).gauge
}

// Histogram registers (or returns) a label-less histogram with the
// given upper bucket bounds (see NewHistogram for the bound contract).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	checkBuckets(buckets)
	return r.register(name, help, histogramKind, nil, buckets).get(nil).hist
}

// CounterVec is a counter family with labels; With interns per-tuple
// children at setup time so serving-path increments are handle-only.
type CounterVec struct{ f *family }

// CounterVec registers (or returns) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if len(labels) == 0 {
		panic(fmt.Sprintf("telemetry: CounterVec %s needs at least one label (use Counter)", name))
	}
	return &CounterVec{f: r.register(name, help, counterKind, labels, nil)}
}

// With returns the interned counter for the given label values,
// creating it on first use. Call at setup time and keep the handle; the
// same tuple always returns the same counter, so values accumulate
// across component reloads.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.get(values).counter
}

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// GaugeVec registers (or returns) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	if len(labels) == 0 {
		panic(fmt.Sprintf("telemetry: GaugeVec %s needs at least one label (use Gauge)", name))
	}
	return &GaugeVec{f: r.register(name, help, gaugeKind, labels, nil)}
}

// With returns the interned gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.get(values).gauge
}

// HistogramVec is a histogram family with labels; every child shares
// the family's bucket bounds.
type HistogramVec struct{ f *family }

// HistogramVec registers (or returns) a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if len(labels) == 0 {
		panic(fmt.Sprintf("telemetry: HistogramVec %s needs at least one label (use Histogram)", name))
	}
	checkBuckets(buckets)
	return &HistogramVec{f: r.register(name, help, histogramKind, labels, buckets)}
}

// With returns the interned histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.get(values).hist
}

// Handler returns the GET /metrics endpoint: Prometheus text format,
// after running the scrape hooks.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := r.WritePrometheus(w); err != nil {
			// The scrape connection died mid-write; there is no one left
			// to report the failure to.
			return
		}
	})
}

// snapshotFamilies returns the families sorted by name and their
// children sorted by label-value tuple — the deterministic exposition
// order the golden test pins.
func (r *Registry) snapshotFamilies() []*family {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// sortedChildren returns the family's children ordered by label-value
// tuple.
func (f *family) sortedChildren() []*child {
	f.mu.Lock()
	kids := make([]*child, 0, len(f.children))
	for _, c := range f.children {
		kids = append(kids, c)
	}
	f.mu.Unlock()
	sort.Slice(kids, func(i, j int) bool {
		a, b := kids[i].labelValues, kids[j].labelValues
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return kids
}

// checkMetricName enforces the Prometheus metric-name charset
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func checkMetricName(name string) {
	if name == "" {
		panic("telemetry: empty metric name")
	}
	for i := 0; i < len(name); i++ {
		b := name[i]
		ok := b == '_' || b == ':' ||
			(b >= 'a' && b <= 'z') || (b >= 'A' && b <= 'Z') ||
			(i > 0 && b >= '0' && b <= '9')
		if !ok {
			panic(fmt.Sprintf("telemetry: invalid metric name %s", name))
		}
	}
}

// checkLabelName enforces the label-name charset [a-zA-Z_][a-zA-Z0-9_]*
// and rejects the reserved names exposition itself emits.
func checkLabelName(metric, label string) {
	if label == "" {
		panic(fmt.Sprintf("telemetry: empty label name on metric %s", metric))
	}
	if label == "le" {
		panic(fmt.Sprintf("telemetry: label name %q on metric %s is reserved for histogram buckets", "le", metric))
	}
	if strings.HasPrefix(label, "__") {
		panic(fmt.Sprintf("telemetry: label name %s on metric %s is reserved (double underscore prefix)", label, metric))
	}
	for i := 0; i < len(label); i++ {
		b := label[i]
		ok := b == '_' ||
			(b >= 'a' && b <= 'z') || (b >= 'A' && b <= 'Z') ||
			(i > 0 && b >= '0' && b <= '9')
		if !ok {
			panic(fmt.Sprintf("telemetry: invalid label name %s on metric %s", label, metric))
		}
	}
}
