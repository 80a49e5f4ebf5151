package experiments

import (
	"priview/internal/baselines"
	"priview/internal/core"
	"priview/internal/covering"
	"priview/internal/dataset"
	"priview/internal/dataset/synth"
	"priview/internal/noise"
)

var (
	fig2Epsilons = []float64{1.0, 0.1}
	fig2Ks       = []int{4, 6, 8}
)

// largeDataset bundles one of the paper's two big datasets with its
// covering designs.
type largeDataset struct {
	name string
	data *dataset.Dataset
	c2   *covering.Design
	c3   *covering.Design
}

func kosarakSetup(cfg Config) largeDataset {
	n := cfg.N
	if n <= 0 {
		n = synth.KosarakN
	}
	return largeDataset{
		name: "Kosarak",
		data: synth.Kosarak(n, cfg.Seed),
		c2:   covering.Best(32, 8, 2, cfg.Seed, 4),
		c3:   covering.Best(32, 8, 3, cfg.Seed, 4),
	}
}

func aolSetup(cfg Config) largeDataset {
	n := cfg.N
	if n <= 0 {
		n = synth.AOLN
	}
	return largeDataset{
		name: "AOL",
		data: synth.AOL(n, cfg.Seed),
		c2:   covering.Best(45, 8, 2, cfg.Seed, 4),
		c3:   covering.Best(45, 8, 3, cfg.Seed, 4),
	}
}

// RunFig2 reproduces Figure 2: PriView (with and without noise) against
// Direct, Fourier, the analytically expected Flat, and Uniform on the
// Kosarak (d=32) and AOL (d=45) datasets, reporting both normalized L2
// error and Jensen–Shannon divergence.
func RunFig2(cfg Config) []Row {
	cfg = cfg.orDefaults()
	var rows []Row
	for _, ds := range []largeDataset{kosarakSetup(cfg), aolSetup(cfg)} {
		rows = append(rows, runFig2Dataset(cfg, ds)...)
	}
	return rows
}

func runFig2Dataset(cfg Config, ds largeDataset) []Row {
	root := noise.NewStream(cfg.Seed).Derive("fig2-" + ds.name)
	d := ds.data.Dim()
	nf := float64(ds.data.Len())
	var rows []Row

	// PriView synopses are k-independent: build once per (design, eps,
	// run) and reuse for every query size. The no-noise variants are
	// also eps-independent.
	designs := []*covering.Design{ds.c2, ds.c3}
	noNoise := make([]*core.Synopsis, len(designs))
	for i, dg := range designs {
		noNoise[i] = core.BuildSynopsis(ds.data, core.Config{Design: dg, NoNoise: true}, nil)
	}
	for epsIdx, eps := range fig2Epsilons {
		epsKey := int(eps * 1000)
		priview := make([][]*core.Synopsis, len(designs))
		for i, dg := range designs {
			priview[i] = make([]*core.Synopsis, cfg.Runs)
			for run := 0; run < cfg.Runs; run++ {
				priview[i][run] = core.BuildSynopsis(ds.data, core.Config{Epsilon: eps, Design: dg},
					root.DeriveIndexed("pv-"+dg.Name(), run*100000+epsKey))
			}
		}
		for _, k := range fig2Ks {
			queries := sampleQuerySets(d, k, cfg.Queries, root.DeriveIndexed("queries", k))
			truths := trueMarginals(ds.data, queries)
			addBoth := func(method, note string, build func(run int) synopsis) {
				l2, js := evalBoth(build, queries, truths, nf, cfg.Runs)
				rows = append(rows,
					Row{Experiment: "fig2", Dataset: ds.name, Method: method,
						Epsilon: eps, K: k, Metric: "L2n", Stats: l2, Note: note},
					Row{Experiment: "fig2", Dataset: ds.name, Method: method,
						Epsilon: eps, K: k, Metric: "JS", Stats: js, Note: note},
				)
			}

			addBoth("Uniform", "", func(run int) synopsis {
				return baselines.NewUniform(ds.data.Len())
			})
			addBoth("Direct", "", func(run int) synopsis {
				return baselines.NewDirect(ds.data, eps, k, true, root.DeriveIndexed("direct", run*100000+epsKey*10+k))
			})
			addBoth("Fourier", "", func(run int) synopsis {
				return baselines.NewFourier(ds.data, eps, k, true, root.DeriveIndexed("fourier", run*100000+epsKey*10+k))
			})
			// Flat cannot run at this scale; plot its expected error,
			// capped at 1 as in the paper.
			rows = append(rows, Row{
				Experiment: "fig2", Dataset: ds.name, Method: "Flat",
				Epsilon: eps, K: k, Metric: "L2n",
				Stats: constantCandlestick(baselines.FlatExpectedNormalizedL2(d, eps, ds.data.Len())),
				Note:  "expected",
			})
			for i, dg := range designs {
				i, design := i, dg
				addBoth("PriView", design.Name(), func(run int) synopsis {
					return priview[i][run]
				})
				// The C_t^* no-noise series isolates coverage error; it
				// does not depend on eps, so emit it once.
				if epsIdx == 0 {
					addBoth("PriView*", design.Name()+" no-noise", func(run int) synopsis {
						return noNoise[i]
					})
				}
			}
		}
	}
	return rows
}
