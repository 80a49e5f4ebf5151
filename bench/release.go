package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"time"

	"priview/internal/audit"
	"priview/internal/consistency"
	"priview/internal/core"
	"priview/internal/covering"
	"priview/internal/dataset"
	"priview/internal/marginal"
	"priview/internal/noise"
	"priview/internal/snapshot"
)

// buildTimes times the release pipeline through the public function of
// each layer, on the bench's side of the call.
type buildTimes struct {
	read, plan, coreBuild, countBusy, perturbBusy, overallBusy, rippleBusy,
	audit, write, snapRead time.Duration
}

func since(t time.Time, into *time.Duration) { *into += time.Since(t) }

// writeDataset writes data in the line format `priview build -in` reads.
func writeDataset(data *dataset.Dataset, path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	if _, err := data.WriteTo(w); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return w.Flush()
}

func readDataset(path string) (*dataset.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return dataset.ReadFrom(f)
}

func readSnapshot(path string) (*core.Synopsis, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return snapshot.Read(f)
}

// releaseConfig is the configuration every release in the benchmark is
// built with: ε = 1 over a C3(8,·) design, the paper's Kosarak setting.
func releaseConfig(design *covering.Design) core.Config {
	//lint:ignore budgetlit the benchmark's release is a fixed measurement input, not a privacy claim
	return core.Config{Epsilon: 1, Design: design}
}

// buildRelease builds the served synopsis in-process, writes it as a v2
// snapshot at out and returns the snapshot as read back, which is what
// the server loads and what the oracle answers from. The same seed gives
// the same synopsis at every commit. With layers non-nil the pipeline is
// replayed stage by stage and timed (see replay).
func buildRelease(data *dataset.Dataset, dataPath string, designSeed, noiseSeed int64, out string, layers *buildTimes) (*core.Synopsis, error) {
	if layers != nil {
		var err error
		t := time.Now()
		if data, err = readDataset(dataPath); err != nil {
			return nil, err
		}
		since(t, &layers.read)
	}
	t := time.Now()
	design := covering.Best(data.Dim(), viewSize, coverage, designSeed, restarts)
	if layers != nil {
		since(t, &layers.plan)
	}
	cfg := releaseConfig(design)
	t = time.Now()
	syn := core.BuildSynopsis(data, cfg, noise.NewStream(noiseSeed))
	if layers != nil {
		since(t, &layers.coreBuild)
		replay(data, syn, noiseSeed, layers)
		t = time.Now()
	}
	if err := audit.Check(syn, audit.Options{}).Err(); err != nil {
		return nil, fmt.Errorf("in-process release: %w", err)
	}
	if layers != nil {
		since(t, &layers.audit)
		t = time.Now()
	}
	if err := snapshot.WriteFile(snapshot.OS{}, out, syn); err != nil {
		return nil, err
	}
	if layers != nil {
		since(t, &layers.write)
		t = time.Now()
	}
	ref, err := readSnapshot(out)
	if layers != nil {
		since(t, &layers.snapRead)
	}
	return ref, err
}

// replay runs BuildSynopsis's stages one call at a time on one goroutine
// and sums each layer's busy time: counting every view, perturbing it,
// and the consistency / Ripple / consistency post-processing. Its
// output is discarded; syn only supplies the design and budget.
func replay(data *dataset.Dataset, syn *core.Synopsis, noiseSeed int64, layers *buildTimes) {
	design := syn.Design()
	scale := noise.LaplaceMechScale(float64(design.W()), syn.Epsilon())
	stream := noise.NewStream(noiseSeed)
	views := make([]*marginal.Table, design.W())
	for i, block := range design.Blocks {
		t := time.Now()
		views[i] = data.Marginal(block)
		since(t, &layers.countBusy)
		t = time.Now()
		views[i].AddLaplace(stream.DeriveIndexed("view", i), scale)
		since(t, &layers.perturbBusy)
	}
	t := time.Now()
	consistency.Overall(views)
	since(t, &layers.overallBusy)
	t = time.Now()
	for _, v := range views {
		consistency.Apply(consistency.NonnegRipple, v, consistency.DefaultRippleTheta)
	}
	since(t, &layers.rippleBusy)
	t = time.Now()
	consistency.Overall(views)
	since(t, &layers.overallBusy)
}

// checkBuilt is the oracle for a release built by `priview build`: it
// must decode, pass its audit with no Error finding, have one view per
// design block, and publish a total within maxTotalError of the true N.
func checkBuilt(path string, n int) (*core.Synopsis, error) {
	syn, err := readSnapshot(path)
	if err != nil {
		return nil, err
	}
	rep := audit.Check(syn, audit.Options{})
	if err := rep.Err(); err != nil {
		return nil, err
	}
	if rep.Views != wantViews {
		return nil, fmt.Errorf("%s: %d views, want %d", path, rep.Views, wantViews)
	}
	if rel := math.Abs(syn.Total()-float64(n)) / float64(n); !(rel < maxTotalError) {
		return nil, fmt.Errorf("%s: total %.1f is %.2f%% from N=%d", path, syn.Total(), 100*rel, n)
	}
	return syn, nil
}
