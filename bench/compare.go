package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// metricSpec is one metric entry of BENCHMARK.json; per-layer entries
// have no bound.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json -compare reads: the gated
// end-to-end metrics with their bounds, and the per-layer metrics.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func readJSON(path string, v any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// verdict compares one (metric, workload) pair across runs. A pair whose
// run-to-run spread (interquartile distance over median, either side) is
// wider than the bound is unresolved unless every change run beats every
// base run; a median worse by more than the bound is regressed; a gain
// needs the change to win at least 9 in 10 of the runs paired in order,
// and the medians to differ by more than the base's interquartile
// distance.
func verdict(base, change []float64, bound float64, higherBetter bool) string {
	sign := 1.0
	if higherBetter {
		sign = -1
	}
	// better(a, b): a reads better than b.
	better := func(a, b float64) bool { return sign*(a-b) < 0 }
	mb, mc := pyMedian(base), pyMedian(change)
	allBetter := true
	for _, c := range change {
		for _, b := range base {
			allBetter = allBetter && better(c, b)
		}
	}
	if math.Max(spread(base), spread(change)) > bound {
		if allBetter {
			return "improved"
		}
		return "unresolved"
	}
	if sign*(mc-mb)/mb > bound {
		return "regressed"
	}
	pairs := min(len(base), len(change))
	wins := 0
	for i := 0; i < pairs; i++ {
		if better(change[i], base[i]) {
			wins++
		}
	}
	q1, q3 := quartiles(base)
	if pairs > 0 && float64(wins) >= 0.9*float64(pairs) && sign*(mb-mc) > q3-q1 {
		return "improved"
	}
	return "unchanged"
}

// compareFiles renders one row per (workload, metric of BENCHMARK.json)
// found in both result files, with a verdict for the gated metrics.
func compareFiles(specPath, basePath, changePath string) (string, error) {
	var spec benchSpec
	var base, change resultFile
	for path, v := range map[string]any{specPath: &spec, basePath: &base, changePath: &change} {
		if err := readJSON(path, v); err != nil {
			return "", err
		}
	}
	collect := func(rf *resultFile) map[string]map[string][]float64 {
		out := make(map[string]map[string][]float64)
		for _, run := range rf.Runs {
			for wl, o := range run.Workloads {
				if out[wl] == nil {
					out[wl] = make(map[string][]float64)
				}
				for name, m := range o.Metrics {
					out[wl][name] = append(out[wl][name], m.Value)
				}
			}
		}
		return out
	}
	bv, cv := collect(&base), collect(&change)
	wls := make([]string, 0, len(bv))
	for wl := range bv {
		if cv[wl] != nil {
			wls = append(wls, wl)
		}
	}
	sort.Strings(wls)
	var w strings.Builder
	fmt.Fprintf(&w, "base %s (%d runs, %s)\nchange %s (%d runs, %s)\n",
		basePath, len(base.Runs), base.Host.Commit, changePath, len(change.Runs), change.Host.Commit)
	fmt.Fprintf(&w, "%-12s %-28s %12s %12s %8s %8s %7s  %s\n",
		"workload", "metric", "base", "change", "delta", "spread", "bound", "verdict")
	for _, wl := range wls {
		for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
			b, c := bv[wl][m.Name], cv[wl][m.Name]
			if len(b) == 0 || len(c) == 0 {
				continue
			}
			mb, mc := pyMedian(b), pyMedian(c)
			// Per-layer metrics have no bound: they locate where a change
			// acted and carry no verdict of their own.
			bound, v := "-", "-"
			if m.Bound > 0 {
				bound, v = fmt.Sprintf("%.0f%%", 100*m.Bound), verdict(b, c, m.Bound, m.Better == "higher")
			}
			spr := "-"
			if s := math.Max(spread(b), spread(c)); !math.IsInf(s, 1) {
				spr = fmt.Sprintf("%.1f%%", 100*s)
			}
			fmt.Fprintf(&w, "%-12s %-28s %12.6g %12.6g %+7.1f%% %8s %7s  %s\n",
				wl, m.Name, mb, mc, 100*ratio(mc-mb, mb), spr, bound, v)
		}
	}
	return w.String(), nil
}
