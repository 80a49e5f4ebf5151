package experiments

import (
	"fmt"

	"priview/internal/core"
	"priview/internal/covering"
	"priview/internal/noise"
)

// fig3Ks are the marginal sizes evaluated for the reconstruction and
// non-negativity comparisons.
var fig3Ks = []int{4, 6, 8}

// RunFig3 reproduces Figure 3: the reconstruction estimators — CME
// (maximum entropy), LP (linear programming without consistency), CLP
// (consistency then LP), CLN (least squares) and CME* (maximum entropy
// without noise) — on Kosarak with its t=3 design and AOL with its t=2
// design, both at ε = 1.
func RunFig3(cfg Config) []Row {
	cfg = cfg.orDefaults()
	var rows []Row
	kos := kosarakSetup(cfg)
	rows = append(rows, runFig3Dataset(cfg, kos, kos.c3)...)
	aol := aolSetup(cfg)
	rows = append(rows, runFig3Dataset(cfg, aol, aol.c2)...)
	return rows
}

func runFig3Dataset(cfg Config, ds largeDataset, design *covering.Design) []Row {
	const eps = 1.0
	root := noise.NewStream(cfg.Seed).Derive("fig3-" + ds.name)
	nf := float64(ds.data.Len())
	var rows []Row
	type variant struct {
		label string
		note  string
		cfg   core.Config
	}
	variants := []variant{
		{"CME", "", core.Config{Epsilon: eps, Design: design, Method: core.CME}},
		{"LP", "", core.Config{Epsilon: eps, Design: design, Method: core.LP, SkipPostprocess: true}},
		{"CLP", "", core.Config{Epsilon: eps, Design: design, Method: core.CLP}},
		{"CLN", "", core.Config{Epsilon: eps, Design: design, Method: core.CLN}},
		{"CME*", "no-noise", core.Config{Design: design, Method: core.CME, NoNoise: true}},
	}
	// Synopses are k-independent; build once per (variant, run).
	built := make([][]*core.Synopsis, len(variants))
	for i, v := range variants {
		built[i] = make([]*core.Synopsis, cfg.Runs)
		for run := 0; run < cfg.Runs; run++ {
			built[i][run] = core.BuildSynopsis(ds.data, v.cfg,
				root.DeriveIndexed(v.label, run))
		}
	}
	// The LP-family estimators cost seconds per 8-way simplex solve, so
	// they are evaluated on a subsample of the query sets (the error
	// distributions are wide enough that a dozen queries pin down the
	// ordering); reduced configurations additionally stop at k=6.
	ks := fig3Ks
	if cfg.Queries <= 10 {
		ks = []int{4, 6}
	}
	lpQueryCap := func(k int) int {
		switch {
		case k >= 8:
			return 6
		case k >= 6:
			return 12
		default:
			return cfg.Queries
		}
	}
	for _, k := range ks {
		queries := sampleQuerySets(ds.data.Dim(), k, cfg.Queries, root.DeriveIndexed("queries", k))
		truths := trueMarginals(ds.data, queries)
		for i, v := range variants {
			i := i
			qs, ts := queries, truths
			note := joinNotes(design.Name(), v.note)
			if v.cfg.Method == core.LP || v.cfg.Method == core.CLP {
				if cap := lpQueryCap(k); len(qs) > cap {
					qs, ts = qs[:cap], ts[:cap]
					note = joinNotes(note, fmt.Sprintf("(%d queries)", cap))
				}
			}
			rows = append(rows, Row{
				Experiment: "fig3", Dataset: ds.name, Method: v.label,
				Epsilon: eps, K: k, Metric: "L2n",
				Stats: evalL2(func(run int) synopsis {
					return built[i][run]
				}, qs, ts, nf, cfg.Runs),
				Note: note,
			})
		}
	}
	return rows
}

func joinNotes(a, b string) string {
	if b == "" {
		return a
	}
	return a + " " + b
}
