// Package priview is a from-scratch Go implementation of PriView
// (Qardaji, Yang, Li — SIGMOD 2014): practical differentially private
// release of marginal contingency tables for high-dimensional binary
// data.
//
// PriView publishes a private synopsis — Laplace-noised marginal tables
// over a strategically chosen collection of attribute subsets ("views",
// drawn from a covering design), post-processed for mutual consistency
// and non-negativity — from which any k-way marginal can then be
// reconstructed offline by maximum-entropy estimation, with error orders
// of magnitude below adding noise to each marginal directly.
//
// # Quick start
//
//	data := priview.NewDataset(32, records)     // d ≤ 64 binary attrs
//	plan := priview.PlanDesign(32, data.Len(), 1.0, seed)
//	syn := priview.Build(data, priview.Config{
//		Epsilon: 1.0,
//		Design:  plan.Design,
//	}, seed)
//	table := syn.Query([]int{3, 7, 19, 30})     // any k-way marginal
//
// Building the synopsis is the only operation that touches the raw
// data; Query is pure post-processing and satisfies ε-differential
// privacy end to end by the post-processing property.
//
// The internal packages additionally implement every baseline the paper
// compares against (Flat, Direct, Fourier ± LP repair, Data Cubes,
// Matrix Mechanism, MWEM, learning-based) and a harness regenerating
// each of the paper's tables and figures; see DESIGN.md and
// cmd/priview-bench.
package priview

import (
	"priview/internal/accuracy"
	"priview/internal/consistency"
	"priview/internal/core"
	"priview/internal/covering"
	"priview/internal/dataset"
	"priview/internal/marginal"
	"priview/internal/noise"
	"priview/internal/reconstruct"
)

// Dataset is a d-dimensional binary dataset (d ≤ 64); records are bit
// strings packed into uint64, bit i holding attribute i.
type Dataset = dataset.Dataset

// NewDataset wraps records (one uint64 per row) as a dataset over dim
// binary attributes. Bits at positions ≥ dim are ignored.
func NewDataset(dim int, records []uint64) *Dataset {
	return dataset.New(dim, records)
}

// Table is a marginal contingency table over a sorted attribute set;
// cell index bit j holds the value of the j-th attribute.
type Table = marginal.Table

// Design is a (w, ℓ, t)-covering design: w attribute blocks of size ≤ ℓ
// jointly containing every t-subset of the d attributes.
type Design = covering.Design

// BestDesign constructs a small covering design for d attributes with
// blocks of ℓ and coverage t, choosing the best among an affine-plane
// construction, a binary subspace cover, a group construction and
// randomized greedy restarts. The result is verified before being
// returned.
func BestDesign(d, ell, t int, seed int64) *Design {
	return covering.Best(d, ell, t, seed, 4)
}

// WorkloadDesign builds a view set tailored to a known marginal
// workload: every listed attribute set (each of size ≤ ell) ends up
// fully inside one view, so those marginals are answered with zero
// coverage error; unlisted marginals still reconstruct via maximum
// entropy. Use this instead of PlanDesign when the queries of interest
// are known up front.
func WorkloadDesign(d, ell int, workload [][]int, seed int64) (*Design, error) {
	return covering.BestWorkloadCover(d, ell, workload, seed, 4)
}

// Plan is a chosen design plus its predicted Eq. 5 noise error.
type Plan = core.Plan

// PlanDesign chooses a covering design per the paper's §4.5 guidance:
// ℓ=8 and the largest t ∈ {2,3,4} whose predicted noise error stays
// within the target band. n may be a noisy estimate of the record count
// (see NoisyCount).
func PlanDesign(d, n int, eps float64, seed int64) Plan {
	return core.PlanDesign(d, n, eps, seed)
}

// NoisyCount estimates the dataset size with a small slice of privacy
// budget (the paper suggests ε=0.001) for use by PlanDesign.
func NoisyCount(data *Dataset, eps float64, seed int64) float64 {
	return core.NoisyCount(data, eps, noise.NewStream(seed))
}

// NonnegMethod selects the negative-entry correction strategy.
type NonnegMethod = consistency.NonnegMethod

// Non-negativity strategies (§4.4 and Fig. 4). Ripple is the paper's
// method and the default.
const (
	NonnegNone   = consistency.NonnegNone
	NonnegSimple = consistency.NonnegSimple
	NonnegGlobal = consistency.NonnegGlobal
	NonnegRipple = consistency.NonnegRipple
)

// ReconstructMethod selects the estimator for marginals not covered by
// a single view (§4.3).
type ReconstructMethod = core.ReconstructMethod

// Reconstruction estimators. CME (maximum entropy) is the paper's
// proposed method and the default.
const (
	CME = core.CME
	CLN = core.CLN
	LP  = core.LP
	CLP = core.CLP
)

// SolverOptions tunes the iterative reconstruction solvers.
type SolverOptions = reconstruct.Options

// Config controls synopsis construction; see the field docs on
// core.Config. Epsilon and Design are required.
type Config = core.Config

// Synopsis is a published PriView synopsis: consistent, non-negative
// view marginals answering arbitrary k-way marginal queries.
type Synopsis = core.Synopsis

// Build constructs the differentially private synopsis. This is the
// only operation that reads the raw data. The seed determines the
// Laplace noise; use different seeds for independent releases (each
// release consumes its own ε budget).
func Build(data *Dataset, cfg Config, seed int64) *Synopsis {
	return core.BuildSynopsis(data, cfg, noise.NewStream(seed))
}

// FromViews assembles a synopsis from externally supplied noisy view
// tables (e.g. loaded from disk) and applies the configured
// post-processing.
func FromViews(views []*Table, cfg Config) *Synopsis {
	return core.FromViews(views, cfg)
}

// L2Error returns the L2 distance between two tables over the same
// attribute set — the paper's error distance.
func L2Error(a, b *Table) float64 { return accuracy.L2Error(a, b) }

// JSDivergence returns the Jensen–Shannon divergence between the
// normalized tables — the paper's second error measure.
func JSDivergence(a, b *Table) float64 { return accuracy.JSDivergence(a, b) }
