package core

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"priview/internal/covering"
	"priview/internal/dataset"
	"priview/internal/noise"
)

// The golden end-to-end test pins the numerical output of the full
// pipeline — seeded dataset → noised views → consistency → query
// reconstruction — bit for bit. It exists so that representation
// refactors (such as the attrset bitmask unification) can prove they
// changed no arithmetic: any reordering of float operations in the
// consistency projection, the constraint preparation or the solvers
// shows up as an exact-compare failure here.
//
// Regenerate testdata/golden_synopsis.json by running the test with
// PRIVIEW_UPDATE_GOLDEN=1 — only legitimate when an intentional
// numerical change has been reviewed.

type goldenQuery struct {
	Attrs  []int     `json:"attrs"`
	Method string    `json:"method"`
	Cells  []float64 `json:"cells"`
}

type goldenFile struct {
	Total   float64       `json:"total"`
	Queries []goldenQuery `json:"queries"`
}

const goldenPath = "testdata/golden_synopsis.json"

func goldenDataset() *dataset.Dataset {
	// Deterministic correlated records from a fixed linear congruential
	// generator: no dependence on math/rand's generator, whose sequence
	// is outside this repo's control.
	const d = 12
	const n = 4000
	records := make([]uint64, n)
	state := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		state = state*6364136223846793005 + 1442695040888963407
		return state >> 11
	}
	for i := range records {
		r := next()
		rec := r & ((1 << d) - 1)
		// Correlate attributes 0-1 and 4-5 so reconstruction has real
		// structure to recover.
		if r&1 == 1 {
			rec |= 0b11
		}
		if r&2 == 2 {
			rec |= 0b110000
		}
		records[i] = rec
	}
	return dataset.New(d, records)
}

func goldenSynopsis() *Synopsis {
	dg := covering.Best(12, 4, 2, 7, 2)
	cfg := Config{Epsilon: 1.0, Design: dg}
	return BuildSynopsis(goldenDataset(), cfg, noise.NewStream(42))
}

func goldenQueries() []struct {
	attrs  []int
	method ReconstructMethod
} {
	return []struct {
		attrs  []int
		method ReconstructMethod
	}{
		{[]int{0}, CME},
		{[]int{0, 1}, CME},
		{[]int{0, 1, 4, 5}, CME},
		{[]int{2, 7, 11}, CME},
		{[]int{0, 3, 6, 9}, CME},
		{[]int{0, 1, 4, 5}, CLN},
		{[]int{2, 7, 11}, CLN},
		{[]int{2, 7, 11}, CLP},
		{[]int{2, 7, 11}, LP},
	}
}

func TestGoldenEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("golden end-to-end run is slow; run without -short")
	}
	syn := goldenSynopsis()
	got := goldenFile{Total: syn.Total()}
	for _, q := range goldenQueries() {
		tab := syn.QueryMethod(q.attrs, q.method)
		got.Queries = append(got.Queries, goldenQuery{
			Attrs: q.attrs, Method: q.method.String(),
			Cells: append([]float64(nil), tab.Cells...),
		})
	}

	if os.Getenv("PRIVIEW_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(&got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden file updated: %s", goldenPath)
		return
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with PRIVIEW_UPDATE_GOLDEN=1): %v", err)
	}
	var want goldenFile
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	// Exact comparison, deliberately: the golden file's float64 values
	// survive the JSON round-trip bit for bit, so any difference means
	// the pipeline's arithmetic changed.
	//lint:ignore floatcmp golden test pins bit-identical output across refactors
	if got.Total != want.Total {
		t.Errorf("total = %v, golden %v", got.Total, want.Total)
	}
	if len(got.Queries) != len(want.Queries) {
		t.Fatalf("%d queries, golden has %d", len(got.Queries), len(want.Queries))
	}
	for i, g := range got.Queries {
		w := want.Queries[i]
		if g.Method != w.Method {
			t.Fatalf("query %d method %s, golden %s", i, g.Method, w.Method)
		}
		if len(g.Cells) != len(w.Cells) {
			t.Fatalf("query %d (%v %s): %d cells, golden %d", i, g.Attrs, g.Method, len(g.Cells), len(w.Cells))
		}
		for c := range g.Cells {
			//lint:ignore floatcmp golden test pins bit-identical output across refactors
			if g.Cells[c] != w.Cells[c] {
				t.Errorf("query %d (%v %s) cell %d = %v, golden %v",
					i, g.Attrs, g.Method, c, g.Cells[c], w.Cells[c])
			}
		}
	}
}
