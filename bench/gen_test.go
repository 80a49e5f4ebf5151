package main

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"

	"priview/internal/attrset"
	"priview/internal/covering"
	"priview/internal/noise"
)

var testDesign = covering.Best(dataD, viewSize, coverage, 1, 1)

// draw takes n requests from a fresh mix of workload name built from seed.
func draw(t *testing.T, name string, seed int64, n int) []request {
	t.Helper()
	w, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	m := w.newMix(noise.NewStream(seed), testDesign)
	return append(m.prime(), nextN(m, n)...)
}

func sameRequests(a, b []request) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].path != b[i].path || !bytes.Equal(a[i].body, b[i].body) {
			return false
		}
	}
	return true
}

func TestGeneratorsReproduceFromSeed(t *testing.T) {
	for _, name := range []string{"serve-hot", "serve-cold", "serve-batch"} {
		a, b := draw(t, name, 7, 200), draw(t, name, 7, 200)
		if !sameRequests(a, b) {
			t.Errorf("%s: the same seed gave different requests", name)
		}
		if sameRequests(a, draw(t, name, 8, 200)) {
			t.Errorf("%s: seeds 7 and 8 gave the same requests", name)
		}
	}

	a := arrivals(noise.NewStream(3), 1000, 2*time.Second)
	b := arrivals(noise.NewStream(3), 1000, 2*time.Second)
	if len(a) != len(b) {
		t.Fatalf("arrivals: %d vs %d from one seed", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d: %v vs %v from one seed", i, a[i], b[i])
		}
	}
	if math.Abs(float64(len(a))-2000) > 200 {
		t.Fatalf("%d arrivals in 2 s at 1000/s", len(a))
	}

	z := newZipf(100, 1.1)
	r1, r2 := noise.NewStream(5), noise.NewStream(5)
	counts := make([]int, 100)
	for i := 0; i < 10000; i++ {
		p := z.pick(r1)
		if p != z.pick(r2) {
			t.Fatalf("zipf pick %d differs for one seed", i)
		}
		counts[p]++
	}
	if counts[0] < counts[1] || counts[1] < counts[10] || counts[10] < counts[99] {
		t.Fatalf("zipf counts not decreasing by rank: %d %d %d %d", counts[0], counts[1], counts[10], counts[99])
	}
}

func TestColdRequestsAreFreshUncoveredAndExactlyMixed(t *testing.T) {
	reqs := draw(t, "serve-cold", 1, 1000)
	seen := make(map[attrset.Set]bool)
	sizes := make(map[int]int)
	for i, r := range reqs {
		s := r.sets[0]
		if testDesign.CoversSet(s) {
			t.Fatalf("request %d asks covered set %v", i, s)
		}
		key := attrset.MustFromAttrs(s)
		if seen[key] {
			t.Fatalf("request %d repeats %v", i, s)
		}
		seen[key] = true
		sizes[len(s)]++
		if i%10 == 9 && (sizes[6]*10 != 3*(i+1) || sizes[7]*10 != 5*(i+1)) {
			t.Fatalf("after %d requests the sizes are %v, want 30/50/20%%", i+1, sizes)
		}
	}
}

func TestBatchComposition(t *testing.T) {
	for _, r := range draw(t, "serve-batch", 1, 20) {
		var body struct {
			Queries []struct {
				Attrs []int `json:"attrs"`
			} `json:"queries"`
		}
		if err := json.Unmarshal(r.body, &body); err != nil {
			t.Fatal(err)
		}
		if len(body.Queries) != batchSize || len(r.sets) != batchSize {
			t.Fatalf("batch of %d queries, want %d", len(body.Queries), batchSize)
		}
		distinct := make(map[attrset.Set]bool)
		covered, six := 0, 0
		for _, q := range r.sets {
			distinct[attrset.MustFromAttrs(q)] = true
			if testDesign.CoversSet(q) && len(q) <= 3 {
				covered++
			}
			if len(q) == 6 {
				six++
			}
		}
		if len(distinct) > batchSize-8 {
			t.Fatalf("%d distinct queries: the 8 in-batch duplicates are missing", len(distinct))
		}
		if covered < 16 || six < 8 {
			t.Fatalf("%d covered 2–3-way and %d 6-way queries, want at least 16 and 8", covered, six)
		}
	}
}

func TestTraceFlagTakesAValue(t *testing.T) {
	got := normalizeArgs([]string{"--workload", "build", "--trace", "1", "--seed", "2", "-trace"})
	want := []string{"--workload", "build", "-trace=1", "--seed", "2", "-trace"}
	if len(got) != len(want) {
		t.Fatalf("normalizeArgs = %q, want %q", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("normalizeArgs = %q, want %q", got, want)
		}
	}
}
