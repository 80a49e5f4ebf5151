package experiments

import (
	"priview/internal/consistency"
	"priview/internal/core"
	"priview/internal/covering"
	"priview/internal/noise"
)

// RunFig4 reproduces Figure 4: non-negativity strategies — None,
// Simple, Global, Ripple_1 (Consistency + Ripple + Consistency) and
// Ripple_3 (three Ripple+Consistency passes) — on Kosarak (t=3 design)
// and AOL (t=2 design) at ε = 1, with maximum-entropy reconstruction.
func RunFig4(cfg Config) []Row {
	cfg = cfg.orDefaults()
	var rows []Row
	kos := kosarakSetup(cfg)
	rows = append(rows, runFig4Dataset(cfg, kos, kos.c3)...)
	aol := aolSetup(cfg)
	rows = append(rows, runFig4Dataset(cfg, aol, aol.c2)...)
	return rows
}

func runFig4Dataset(cfg Config, ds largeDataset, design *covering.Design) []Row {
	const eps = 1.0
	root := noise.NewStream(cfg.Seed).Derive("fig4-" + ds.name)
	nf := float64(ds.data.Len())
	var rows []Row
	type variant struct {
		label string
		cfg   core.Config
	}
	variants := []variant{
		{"None", core.Config{Epsilon: eps, Design: design, Nonneg: consistency.NonnegNone}},
		{"Simple", core.Config{Epsilon: eps, Design: design, Nonneg: consistency.NonnegSimple}},
		{"Global", core.Config{Epsilon: eps, Design: design, Nonneg: consistency.NonnegGlobal}},
		{"Ripple1", core.Config{Epsilon: eps, Design: design, Nonneg: consistency.NonnegRipple, NonnegRounds: 1}},
		{"Ripple3", core.Config{Epsilon: eps, Design: design, Nonneg: consistency.NonnegRipple, NonnegRounds: 3}},
	}
	// Synopses are k-independent; build once per (variant, run). Within
	// a run, every variant post-processes the same noisy views (same
	// derived noise stream), isolating the non-negativity strategy.
	built := make([][]*core.Synopsis, len(variants))
	for i, v := range variants {
		built[i] = make([]*core.Synopsis, cfg.Runs)
		for run := 0; run < cfg.Runs; run++ {
			built[i][run] = core.BuildSynopsis(ds.data, v.cfg,
				root.DeriveIndexed("views", run))
		}
	}
	for _, k := range fig3Ks {
		queries := sampleQuerySets(ds.data.Dim(), k, cfg.Queries, root.DeriveIndexed("queries", k))
		truths := trueMarginals(ds.data, queries)
		for i, v := range variants {
			i := i
			rows = append(rows, Row{
				Experiment: "fig4", Dataset: ds.name, Method: v.label,
				Epsilon: eps, K: k, Metric: "L2n",
				Stats: evalL2(func(run int) synopsis {
					return built[i][run]
				}, queries, truths, nf, cfg.Runs),
				Note: design.Name(),
			})
		}
	}
	return rows
}
