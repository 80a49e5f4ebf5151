package experiments

import (
	"priview/internal/baselines"
	"priview/internal/core"
	"priview/internal/covering"
	"priview/internal/dataset/synth"
	"priview/internal/noise"
)

// fig1Epsilons and fig1Ks are the settings of the MSNBC comparison.
var (
	fig1Epsilons = []float64{1.0, 0.1}
	fig1Ks       = []int{2, 4, 6, 8}
)

// maxFourierLPK caps the FourierLP variant: beyond k=4 its LP carries
// ~2^{d+1} dense constraints and adds nothing to the comparison (the
// paper reports Fourier and FourierLP as essentially identical). In
// reduced configurations the cap tightens to k=2 to keep iteration fast.
func maxFourierLPK(cfg Config) int {
	if cfg.Queries <= 30 {
		return 2
	}
	return 4
}

// RunFig1 reproduces Figure 1: every method on the MSNBC-like d=9
// dataset, ε ∈ {1, 0.1}, k ∈ {2,4,6,8}, normalized L2 candlesticks.
func RunFig1(cfg Config) []Row {
	cfg = cfg.orDefaults()
	n := cfg.N
	if n <= 0 {
		n = synth.MSNBCN
	}
	data := synth.MSNBC(n, cfg.Seed)
	root := noise.NewStream(cfg.Seed).Derive("fig1")
	var rows []Row

	design := covering.Best(9, 6, 2, cfg.Seed, 2) // the paper's C2(6,3)
	nf := float64(data.Len())

	for _, eps := range fig1Epsilons {
		for _, k := range fig1Ks {
			queries := sampleQuerySets(9, k, cfg.Queries, root.DeriveIndexed("queries", k))
			truths := trueMarginals(data, queries)
			add := func(method string, note string, build func(run int) synopsis) {
				rows = append(rows, Row{
					Experiment: "fig1", Dataset: "MSNBC", Method: method,
					Epsilon: eps, K: k, Metric: "L2n",
					Stats: evalL2(build, queries, truths, nf, cfg.Runs),
					Note:  note,
				})
			}
			epsKey := int(eps * 1000)

			add("Uniform", "", func(run int) synopsis {
				return baselines.NewUniform(data.Len())
			})
			add("Flat", "", func(run int) synopsis {
				return baselines.NewFlat(data, eps, root.DeriveIndexed("flat", run*10000+epsKey))
			})
			add("DataCube", "", func(run int) synopsis {
				return baselines.NewDataCube(data, eps, root.DeriveIndexed("cube", run*10000+epsKey))
			})
			add("Direct", "", func(run int) synopsis {
				return baselines.NewDirect(data, eps, k, true, root.DeriveIndexed("direct", run*10000+epsKey*10+k))
			})
			add("Fourier", "", func(run int) synopsis {
				return baselines.NewFourier(data, eps, k, true, root.DeriveIndexed("fourier", run*10000+epsKey*10+k))
			})
			if k <= maxFourierLPK(cfg) {
				add("FourierLP", "", func(run int) synopsis {
					flp, err := baselines.NewFourierLP(data, eps, k, root.DeriveIndexed("flp", run*10000+epsKey*10+k))
					if err != nil {
						// LP repair failure falls back to plain Fourier.
						return baselines.NewFourier(data, eps, k, true, root.DeriveIndexed("flp-fb", run))
					}
					return flp
				})
			}
			add("MWEM", "", func(run int) synopsis {
				sweeps := 100
				if cfg.Queries <= 30 { // reduced mode
					sweeps = 20
				}
				return baselines.NewMWEM(data, eps, baselines.MWEMConfig{
					K: k, T: baselines.DefaultMWEMRounds(9), ReplaySweeps: sweeps,
				}, root.DeriveIndexed("mwem", run*10000+epsKey*10+k))
			})
			// Matrix mechanism: the paper plots its expected error.
			mm := baselines.NewMatrixMechanism(data, eps, k)
			rows = append(rows, Row{
				Experiment: "fig1", Dataset: "MSNBC", Method: "MatrixMech",
				Epsilon: eps, K: k, Metric: "L2n",
				Stats: constantCandlestick(mm.ExpectedNormalizedL2()),
				Note:  "expected",
			})
			for i, gamma := range []float64{0.5, 0.25, 0.125} {
				name := []string{"Learning1", "Learning2", "Learning3"}[i]
				g := gamma
				add(name, "", func(run int) synopsis {
					return baselines.NewLearning(data, eps, k, g, true, root.DeriveIndexed("learn", run*10000+epsKey*10+k+i*100))
				})
				// Green stars: approximation error only, no noise.
				add(name, "no-noise", func(run int) synopsis {
					return baselines.NewLearning(data, eps, k, g, false, root.Derive("learn-nn"))
				})
			}
			add("PriView", design.Name(), func(run int) synopsis {
				return core.BuildSynopsis(data, core.Config{Epsilon: eps, Design: design},
					root.DeriveIndexed("priview", run*10000+epsKey*10+k))
			})
		}
	}
	return rows
}
