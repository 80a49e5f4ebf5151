// Package core implements the PriView mechanism (§4 of the paper): it
// plans a set of views from a covering design, publishes Laplace-noised
// marginal tables for them, post-processes the tables for mutual
// consistency and non-negativity, and answers arbitrary k-way marginal
// queries from the resulting synopsis by maximum-entropy reconstruction
// (or the alternative estimators evaluated in Fig. 3).
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"

	"priview/internal/attrset"
	"priview/internal/consistency"
	"priview/internal/covering"
	"priview/internal/dataset"
	"priview/internal/marginal"
	"priview/internal/noise"
	"priview/internal/reconstruct"
)

// ReconstructMethod selects how marginals not covered by a single view
// are estimated (§4.3). CME is the paper's proposed method.
type ReconstructMethod int

const (
	// CME: maximum entropy over consistent views (the default).
	CME ReconstructMethod = iota
	// CLN: least-squares (minimum L2 norm) over consistent views.
	CLN
	// LP: max-error linear programming over the raw noisy views,
	// without a consistency step.
	LP
	// CLP: the LP estimator after the consistency pre-processing step.
	CLP
)

// String implements fmt.Stringer for experiment labels, and names the
// estimator on the wire.
func (m ReconstructMethod) String() string {
	switch m {
	case CME:
		return "CME"
	case CLN:
		return "CLN"
	case LP:
		return "LP"
	case CLP:
		return "CLP"
	default:
		return fmt.Sprintf("ReconstructMethod(%d)", int(m))
	}
}

// ParseMethod is the case-insensitive inverse of String: it returns the
// estimator s names, or an error when s names none.
func ParseMethod(s string) (ReconstructMethod, error) {
	for m := CME; m <= CLP; m++ {
		if strings.EqualFold(s, m.String()) {
			return m, nil
		}
	}
	return CME, fmt.Errorf("unknown method %q (want CME, CLN, LP or CLP)", s)
}

// NoiseKind selects the perturbation mechanism for the views.
type NoiseKind int

const (
	// LaplaceNoise is the paper's mechanism: pure ε-DP, per-view scale
	// w/ε (L1 sensitivity w — each record touches one cell per view).
	LaplaceNoise NoiseKind = iota
	// GaussianNoise is an (ε, δ)-DP extension: because each record
	// touches exactly one cell per view, the view collection's L2
	// sensitivity is √w rather than w, so Gaussian noise needs only
	// σ = √(2w·ln(1.25/δ))/ε per cell — for large designs (w ≫
	// ln(1/δ)) this beats Laplace's w/ε scale substantially. Requires
	// Delta > 0.
	GaussianNoise
)

// Config controls synopsis construction and querying.
type Config struct {
	// Epsilon is the total privacy budget, split uniformly across the
	// design's views. Required.
	Epsilon float64
	// Noise selects Laplace (default, pure ε-DP as in the paper) or
	// Gaussian ((ε, Delta)-DP, exploiting the √w L2 sensitivity).
	Noise NoiseKind
	// Delta is the (ε, δ) slack for GaussianNoise; ignored for Laplace.
	Delta float64
	// Design is the view set. Required (use PlanDesign to choose one).
	Design *covering.Design
	// Nonneg selects the negative-entry correction applied between
	// consistency passes; defaults to Ripple, the paper's method.
	Nonneg consistency.NonnegMethod
	// RippleTheta is the Ripple tolerance θ (default
	// consistency.DefaultRippleTheta).
	RippleTheta float64
	// NonnegRounds is i in the paper's Ripple_i: how many
	// (non-negativity + consistency) passes follow the initial
	// consistency step. Default 1; the paper finds more rounds add
	// nothing.
	NonnegRounds int
	// SkipPostprocess disables consistency and non-negativity entirely,
	// used for the "None" series in Fig. 4 and the raw-LP estimator.
	SkipPostprocess bool
	// WeightedConsistency uses inverse-variance averaging in the
	// consistency steps. Identical to the paper's plain mean when all
	// views share one size; strictly better when block sizes are mixed
	// (e.g. greedy designs with some short blocks).
	WeightedConsistency bool
	// Method selects the reconstruction estimator (default CME).
	Method ReconstructMethod
	// Reconstruct tunes the iterative solvers.
	Reconstruct reconstruct.Options
	// NoNoise builds the synopsis without Laplace noise: the paper's
	// C_t^* series isolating coverage error from noise error.
	NoNoise bool
}

// Typed configuration errors, matched with errors.Is. Validate returns
// them (possibly wrapped with position detail); BuildSynopsis panics
// with the same messages for backward compatibility with callers that
// treat a bad Config as a programming error.
var (
	// ErrConfigDesign reports a missing covering design.
	ErrConfigDesign = errors.New("core: Config.Design is required")
	// ErrConfigEpsilon reports a non-positive privacy budget on a noisy
	// build.
	ErrConfigEpsilon = errors.New("core: Config.Epsilon must be positive")
	// ErrConfigDelta reports a Gaussian build without a usable δ.
	ErrConfigDelta = errors.New("core: GaussianNoise requires Delta in (0,1)")
)

// Validate checks the configuration without building anything: the
// design and budget requirements, and — the repo-wide d < 64 invariant,
// enforced here at the boundary instead of by a panic deep inside the
// consistency or table layers — that every design block packs into an
// attrset (attributes in [0, 64), no duplicates). Errors wrap the typed
// sentinels above and attrset.ErrRange/ErrDuplicate for errors.Is.
func (c Config) Validate() error {
	if c.Design == nil {
		return ErrConfigDesign
	}
	if !c.NoNoise {
		if c.Epsilon <= 0 {
			return ErrConfigEpsilon
		}
		if c.Noise == GaussianNoise && !(c.Delta > 0 && c.Delta < 1) {
			return ErrConfigDelta
		}
	}
	for i, block := range c.Design.Blocks {
		if _, err := attrset.FromAttrs(block); err != nil {
			return fmt.Errorf("core: design block %d: %w", i, err)
		}
	}
	return nil
}

func (c Config) nonnegRounds() int {
	if c.NonnegRounds <= 0 {
		return 1
	}
	return c.NonnegRounds
}

func (c Config) rippleTheta() float64 {
	if c.RippleTheta <= 0 {
		return consistency.DefaultRippleTheta
	}
	return c.RippleTheta
}

// Synopsis is the published object: post-processed view marginals from
// which any k-way marginal can be reconstructed without further access
// to the data.
type Synopsis struct {
	cfg      Config
	views    []*marginal.Table // post-processed (consistent, non-negative)
	rawViews []*marginal.Table // as published, before post-processing
	total    float64           // common total count N_V of the views
}

// BuildSynopsis constructs the PriView synopsis for the dataset. This is
// the only function that touches the raw data; everything downstream
// operates on the noisy views. The noise source determines the Laplace
// draws; pass a seeded stream for reproducible experiments.
func BuildSynopsis(data *dataset.Dataset, cfg Config, src noise.Source) *Synopsis {
	if err := cfg.Validate(); err != nil {
		//lint:ignore panicmsg every Config.Validate error is built from a "core:"-prefixed sentinel
		panic(err.Error())
	}
	if cfg.Design.D != data.Dim() {
		panic(fmt.Sprintf("core: design over %d attributes, dataset has %d", cfg.Design.D, data.Dim()))
	}
	w := cfg.Design.W()
	views := make([]*marginal.Table, w)
	// Perturbation: each record contributes one count to each view, so
	// the collection has L1 sensitivity w (Laplace) and L2 sensitivity
	// √w (Gaussian).
	perturb := func(*marginal.Table) {}
	if !cfg.NoNoise {
		switch cfg.Noise {
		case LaplaceNoise:
			scale := noise.LaplaceMechScale(float64(w), cfg.Epsilon)
			perturb = func(t *marginal.Table) { t.AddLaplace(src, scale) }
		case GaussianNoise:
			if !(cfg.Delta > 0 && cfg.Delta < 1) {
				panic("core: GaussianNoise requires Delta in (0,1)")
			}
			sigma := noise.GaussianMechSigma(math.Sqrt(float64(w)), cfg.Epsilon, cfg.Delta)
			perturb = func(t *marginal.Table) { t.AddGaussian(src, sigma) }
		default:
			panic(fmt.Sprintf("core: unknown noise kind %d", int(cfg.Noise)))
		}
	}
	// Views are independent scans, so they are counted in parallel; the
	// noise is then drawn from src in block order, so one seed publishes
	// one release whatever the CPU count.
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i, block := range cfg.Design.Blocks {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, block []int) {
			defer wg.Done()
			defer func() { <-sem }()
			views[i] = data.Marginal(block)
		}(i, block)
	}
	wg.Wait()
	for _, t := range views {
		perturb(t)
	}
	s := &Synopsis{cfg: cfg, rawViews: cloneViews(views), views: views}
	s.postprocess()
	return s
}

// FromViews assembles a synopsis directly from already-noisy view
// tables (e.g. read from disk); post-processing is applied according to
// the config. The design in cfg must describe the views' attribute
// sets.
func FromViews(views []*marginal.Table, cfg Config) *Synopsis {
	s := &Synopsis{cfg: cfg, rawViews: cloneViews(views), views: cloneViews(views)}
	s.postprocess()
	return s
}

func cloneViews(vs []*marginal.Table) []*marginal.Table {
	out := make([]*marginal.Table, len(vs))
	for i, v := range vs {
		out[i] = v.Clone()
	}
	return out
}

// postprocess runs Consistency, then NonnegRounds × (non-negativity +
// Consistency) — the paper's Consistency + Ripple + Consistency
// schedule for the default round count. Both exits clamp the published
// total at zero: under heavy Laplace noise the mean view total can go
// negative, and a raw-LP synopsis (SkipPostprocess) must not publish a
// negative record count through Total() any more than a post-processed
// one.
func (s *Synopsis) postprocess() {
	s.total = clampTotal(meanTotal(s.views))
	if s.cfg.SkipPostprocess {
		return
	}
	reconcile := consistency.Overall
	if s.cfg.WeightedConsistency {
		reconcile = consistency.OverallWeighted
	}
	reconcile(s.views)
	for round := 0; round < s.cfg.nonnegRounds(); round++ {
		if s.cfg.Nonneg != consistency.NonnegNone {
			for _, v := range s.views {
				consistency.Apply(s.cfg.Nonneg, v, s.cfg.rippleTheta())
			}
		}
		reconcile(s.views)
	}
	s.total = clampTotal(meanTotal(s.views))
}

// clampTotal floors a published total at zero; negative counts are a
// noise artifact, not information.
func clampTotal(total float64) float64 {
	if total < 0 {
		return 0
	}
	return total
}

func meanTotal(views []*marginal.Table) float64 {
	if len(views) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range views {
		sum += v.Total()
	}
	return sum / float64(len(views))
}

// Name renders the method label used in the figures, e.g.
// "PriView(C2(8,20))".
func (s *Synopsis) Name() string {
	if s.cfg.Design != nil {
		return fmt.Sprintf("PriView(%s)", s.cfg.Design.Name())
	}
	return "PriView"
}

// Total returns N_V, the common total count of the consistent views.
func (s *Synopsis) Total() float64 { return s.total }

// Views returns the post-processed view tables. Callers must not mutate
// them.
func (s *Synopsis) Views() []*marginal.Table { return s.views }

// Query reconstructs the marginal table over attrs using the configured
// estimator. Marginals fully covered by a view are answered by direct
// summation; otherwise the under-determined system induced by the views
// is resolved by the configured method.
func (s *Synopsis) Query(attrs []int) *marginal.Table {
	return s.QueryMethod(attrs, s.cfg.Method)
}

// QueryMethod is Query with an explicit estimator, leaving the synopsis
// configuration untouched — callers serving concurrent requests with
// different estimators use this. It is safe for concurrent use: all
// reconstruction paths read the views without mutating them. When the
// preferred solver fails numerically the fallback-chain answer is
// returned (see QueryMethodContext); QueryMethod never returns NaN.
func (s *Synopsis) QueryMethod(attrs []int, method ReconstructMethod) *marginal.Table {
	t, err := s.QueryMethodContext(context.Background(), attrs, method)
	if t == nil {
		// Unreachable: context.Background is never canceled, and every
		// numerical failure degrades to a non-nil fallback table.
		panic(fmt.Sprintf("core: %v", err))
	}
	return t
}

// QueryMethodContext is QueryMethod with cooperative cancellation and
// graceful numerical degradation.
//
// Cancellation: the caller's deadline or cancellation is threaded into
// the iterative solvers, which abandon the reconstruction and surface
// reconstruct.ErrDeadline or reconstruct.ErrCanceled (both also
// matching the context sentinels under errors.Is); the table is nil.
//
// Numerical failures never poison the answer: constraints carrying
// NaN/Inf are dropped, and a solver that detects instability
// (reconstruct.ErrNumerical) is replaced by the next estimator in its
// fallback chain — MaxEnt, then least squares (see fallbackChain) —
// with a uniform table as the final resort. In that degraded regime
// the returned table is non-nil AND the error is non-nil, matching
// reconstruct.ErrNumerical — the table is a usable (finite, non-NaN)
// answer and the error records that it came from a fallback. A query
// whose ctx stays live therefore always returns a finite table.
func (s *Synopsis) QueryMethodContext(ctx context.Context, attrs []int, method ReconstructMethod) (*marginal.Table, error) {
	if err := reconstruct.ContextErr(ctx); err != nil {
		return nil, err
	}
	canonical := marginal.New(attrs).Attrs
	// A one-shot constraint group: QueryBatch runs the identical code
	// with the group shared across requests, which is what keeps single
	// and batched answers bit-for-bit equal.
	sh := &solveShared{syn: s, attrs: canonical, raw: method == LP}
	return sh.solve(ctx, method)
}

// fallbackChain orders the estimators tried for a query: the requested
// method first, then the served iterative solvers in the paper's
// MaxEnt → least-squares preference order. The LP methods fall back
// onto the same chain (their constraint system is shared).
func fallbackChain(method ReconstructMethod) []ReconstructMethod {
	switch method {
	case CME:
		return []ReconstructMethod{CME, CLN}
	case CLN:
		return []ReconstructMethod{CLN, CME}
	case LP, CLP:
		return []ReconstructMethod{method, CME, CLN}
	default:
		panic(fmt.Sprintf("core: unknown reconstruction method %d", int(method)))
	}
}

// Epsilon returns the privacy budget the synopsis was built with (0 for
// a no-noise synopsis).
func (s *Synopsis) Epsilon() float64 { return s.cfg.Epsilon }

// Design returns the covering design behind the views (may be nil for
// synopses assembled from ad-hoc views).
func (s *Synopsis) Design() *covering.Design { return s.cfg.Design }
