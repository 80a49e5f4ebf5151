package experiments

import (
	"fmt"

	"priview/internal/consistency"
	"priview/internal/core"
	"priview/internal/noise"
)

// RunAblation measures the design choices DESIGN.md calls out, beyond
// what the paper's own figures already ablate (Fig. 3 ablates the
// estimator, Fig. 4 the non-negativity strategy, Fig. 6 the design):
//
//   - consistency: the consistency step vs querying the raw noisy views
//     directly;
//   - ripple-θ: sensitivity to the Ripple tolerance across four orders
//     of magnitude, with Ripple switched on.
//
// All runs use the Kosarak setup with its t=2 design at ε = 1.
func RunAblation(cfg Config) []Row {
	cfg = cfg.orDefaults()
	ds := kosarakSetup(cfg)
	const eps = 1.0
	root := noise.NewStream(cfg.Seed).Derive("ablation")
	nf := float64(ds.data.Len())
	design := ds.c2

	type variant struct {
		group string
		label string
		cfg   core.Config
	}
	variants := []variant{
		{"consistency", "FullPipeline", core.Config{Epsilon: eps, Design: design}},
		{"consistency", "RawViews", core.Config{Epsilon: eps, Design: design, SkipPostprocess: true}},
		{"consistency", "InverseVariance", core.Config{Epsilon: eps, Design: design, WeightedConsistency: true}},
		{"noise", "Laplace", core.Config{Epsilon: eps, Design: design}},
		{"noise", "Gaussian(δ=1e-6)", core.Config{Epsilon: eps, Delta: 1e-6, Noise: core.GaussianNoise, Design: design}},
	}
	for _, theta := range []float64{0.05, 0.5, 5, 50} {
		variants = append(variants, variant{
			"ripple-theta", fmt.Sprintf("theta=%g", theta),
			core.Config{Epsilon: eps, Design: design, Nonneg: consistency.NonnegRipple, RippleTheta: theta},
		})
	}

	built := make([][]*core.Synopsis, len(variants))
	for i, v := range variants {
		built[i] = make([]*core.Synopsis, cfg.Runs)
		for run := 0; run < cfg.Runs; run++ {
			// Same noise stream per run across variants, isolating the
			// ablated choice.
			built[i][run] = core.BuildSynopsis(ds.data, v.cfg, root.DeriveIndexed("views", run))
		}
	}

	var rows []Row
	for _, k := range []int{4, 8} {
		queries := sampleQuerySets(32, k, cfg.Queries, root.DeriveIndexed("queries", k))
		truths := trueMarginals(ds.data, queries)
		for i, v := range variants {
			i := i
			rows = append(rows, Row{
				Experiment: "ablation", Dataset: "Kosarak",
				Method:  v.group + "/" + v.label,
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
