package main

import (
	"path/filepath"
	"testing"
)

// TestBenchSmoke runs every workload at a small N with 1 s phases, untraced
// and traced, and checks that each emits every metric BENCHMARK.json names
// with its unit and that every answer passed the oracle.
func TestBenchSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binaries and runs every workload")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := readJSON(filepath.Join(root, "BENCHMARK.json"), &spec); err != nil {
		t.Fatal(err)
	}
	for _, trace := range []bool{false, true} {
		want := spec.EndToEnd
		if trace {
			want = spec.PerLayer
		}
		// 6 s is two seconds per serve rep: a 1 s open and a 1 s closed phase.
		res, err := measureAll(root, workloads, options{seed: 2, seconds: 6, runs: 1, trace: trace, n: 100_000})
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range workloads {
			o := res.Runs[0].Workloads[w.name]
			if !o.Correct || o.Failed != 0 || o.Attempted == 0 {
				t.Errorf("%s (trace=%v): correct=%v, %d of %d failed: %v", w.name, trace, o.Correct, o.Failed, o.Attempted, o.errs)
			}
			line := o.line(trace)
			if len(line.Metrics) != len(want) {
				t.Errorf("%s (trace=%v): %d metrics, BENCHMARK.json names %d", w.name, trace, len(line.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := line.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s (trace=%v): metric %s = %+v, want unit %s", w.name, trace, m.Name, got, m.Unit)
				}
			}
		}
	}
}
