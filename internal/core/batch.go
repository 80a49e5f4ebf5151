// Batched querying: answer many marginal requests in one call, sharing
// the per-attribute-set solver precompute across estimators and fanning
// the independent solves over a worker pool. This is the substrate for
// the paper's evaluation workload — "answer all ≤k-way marginals" — and
// for every consumer that wants the full low-order marginal set at
// once (cache warming, load generation, synthesis).
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"priview/internal/attrset"
	"priview/internal/marginal"
	"priview/internal/reconstruct"
	"priview/internal/telemetry"
)

// BatchRequest names one marginal in a QueryBatch call.
type BatchRequest struct {
	// Attrs is the queried attribute set, order-insensitive. Duplicates
	// and out-of-range indices are rejected with the attrset typed
	// errors before any solving starts.
	Attrs []int
	// Method selects the estimator; the zero value is CME. Callers
	// wanting the synopsis's configured default fill in
	// Synopsis.DefaultMethod().
	Method ReconstructMethod
}

// BatchResult is the answer to one BatchRequest, in request order.
type BatchResult struct {
	// Table is the reconstructed marginal; always non-nil when the
	// batch as a whole succeeded.
	Table *marginal.Table
	// Err is nil for a clean answer. When the solve degraded it matches
	// reconstruct.ErrNumerical and Table still holds a finite, usable
	// fallback — the same contract as QueryMethodContext.
	Err error
}

// Degraded reports whether the answer came from the numerical fallback
// chain rather than the requested estimator.
func (r BatchResult) Degraded() bool { return errors.Is(r.Err, reconstruct.ErrNumerical) }

// BatchOptions tunes QueryBatch's parallelism. The worker count never
// affects the answers: each solve is deterministic and runs on one
// goroutine.
type BatchOptions struct {
	// Workers bounds the goroutines fanning over distinct
	// (attribute-set, method) solves; 0 means GOMAXPROCS.
	Workers int
}

// BatchItemError locates one invalid request inside a rejected batch.
type BatchItemError struct {
	// Index is the position of the offending request in the batch.
	Index int
	// Err is the validation failure; attribute-set problems match
	// attrset.ErrRange / attrset.ErrDuplicate.
	Err error
}

// BatchError rejects a whole batch containing invalid requests: no
// request is solved, and Items carries one typed error per offending
// index so callers can report every problem at once.
type BatchError struct {
	Items []BatchItemError
}

// Error implements error, naming every offending index.
func (e *BatchError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "core: invalid batch (%d of %d requests):", len(e.Items), e.total())
	for i, it := range e.Items {
		if i == 4 && len(e.Items) > 5 {
			fmt.Fprintf(&b, " ... and %d more", len(e.Items)-i)
			break
		}
		fmt.Fprintf(&b, " [%d] %v;", it.Index, it.Err)
	}
	return strings.TrimSuffix(b.String(), ";")
}

func (e *BatchError) total() int {
	max := 0
	for _, it := range e.Items {
		if it.Index+1 > max {
			max = it.Index + 1
		}
	}
	return max
}

// valid reports whether m names a known estimator without consulting
// fallbackChain, which panics on unknown methods.
func (m ReconstructMethod) valid() bool {
	switch m {
	case CME, CLN, LP, CLP:
		return true
	}
	return false
}

// DefaultMethod returns the estimator Query uses when the caller does
// not name one (Config.Method).
func (s *Synopsis) DefaultMethod() ReconstructMethod { return s.cfg.Method }

// solveKey identifies one distinct solve within a batch.
type solveKey struct {
	mask   attrset.Set
	method ReconstructMethod
}

// sharedKey identifies one covering-view constraint group: requests
// over the same canonical attribute set against the same view source
// share all solver-independent precompute.
type sharedKey struct {
	mask attrset.Set
	raw  bool
}

// QueryBatch answers many marginal requests in one call.
//
// Requests are validated and canonicalized up front; any invalid
// request rejects the whole batch with a *BatchError naming every
// offending index, and nothing is solved. Identical (attribute-set,
// method) pairs are deduplicated — they cost one solve and the
// duplicates receive clones — and requests sharing a canonical
// attribute set share one constraint-group precompute (covered-view
// lookup, constraint projection, RestrictIndices tables) across
// estimators. The distinct solves then fan across opt.Workers
// goroutines; each solve runs on the one worker that took it.
//
// Results are bit-for-bit identical to a sequential QueryMethodContext
// loop over the same requests, at any worker count: both paths run the
// same prepared solvers.
//
// Cancellation: when ctx is canceled or expires before every solve has
// finished, QueryBatch joins all its workers, discards partial output,
// and returns the reconstruct cancellation sentinel — never a
// partially-filled result slice. Per-item numerical degradation follows
// the QueryMethodContext contract via BatchResult.Err.
func (s *Synopsis) QueryBatch(ctx context.Context, reqs []BatchRequest, opt BatchOptions) ([]BatchResult, error) {
	if err := reconstruct.ContextErr(ctx); err != nil {
		return nil, err
	}
	// Validate everything before solving anything, collecting all
	// failures rather than stopping at the first.
	keys := make([]solveKey, len(reqs))
	var bad []BatchItemError
	for i, r := range reqs {
		set, err := attrset.FromAttrs(r.Attrs)
		switch {
		case err != nil:
			bad = append(bad, BatchItemError{Index: i, Err: err})
		case set.Card() > 30:
			bad = append(bad, BatchItemError{Index: i, Err: fmt.Errorf(
				"core: %d attributes exceeds the 30-attribute table cap", set.Card())})
		case !r.Method.valid():
			bad = append(bad, BatchItemError{Index: i, Err: fmt.Errorf(
				"core: unknown reconstruction method %d", int(r.Method))})
		default:
			keys[i] = solveKey{mask: set, method: r.Method}
		}
	}
	if len(bad) > 0 {
		return nil, &BatchError{Items: bad}
	}
	// Dedupe identical (attribute set, method) pairs and group distinct
	// solves by their constraint group.
	type uniqueSolve struct {
		key    solveKey
		shared *solveShared
		table  *marginal.Table
		err    error
	}
	index := make(map[solveKey]int, len(reqs))
	groups := make(map[sharedKey]*solveShared)
	var uniques []*uniqueSolve
	for i := range reqs {
		k := keys[i]
		if _, ok := index[k]; ok {
			continue
		}
		index[k] = len(uniques)
		gk := sharedKey{mask: k.mask, raw: k.method == LP}
		sh := groups[gk]
		if sh == nil {
			sh = &solveShared{syn: s, attrs: k.mask.Attrs(), raw: gk.raw}
			groups[gk] = sh
		}
		uniques = append(uniques, &uniqueSolve{key: k, shared: sh})
	}
	if len(uniques) == 0 {
		return []BatchResult{}, nil
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(uniques) {
		workers = len(uniques)
	}
	var next int64
	var wg sync.WaitGroup
	// A panicking solve must not kill the process from a goroutine no
	// caller can recover: each worker catches it, and the first one is
	// re-raised in the caller's goroutine once every worker has joined.
	var panicOnce sync.Once
	var panicMsg string
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panicOnce.Do(func() { panicMsg = fmt.Sprintf("%v\n%s", p, debug.Stack()) })
				}
			}()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= len(uniques) {
					return
				}
				u := uniques[i]
				// solve polls ctx itself, so a canceled batch drains the
				// remaining queue in O(1) per entry.
				u.table, u.err = u.shared.solve(ctx, u.key.method)
			}
		}()
	}
	wg.Wait()
	if panicMsg != "" {
		panic(fmt.Sprintf("core: batch solve panicked: %s", panicMsg))
	}
	// A canceled batch reports the context sentinel and nothing else:
	// solves that never ran hold the same sentinel, and partial tables
	// are discarded rather than returned as clean.
	for _, u := range uniques {
		if u.table == nil {
			return nil, u.err
		}
	}
	out := make([]BatchResult, len(reqs))
	taken := make([]bool, len(uniques))
	for i := range reqs {
		ui := index[keys[i]]
		u := uniques[ui]
		t := u.table
		if taken[ui] {
			// Duplicates cost one solve but must not alias one table.
			t = t.Clone()
		}
		taken[ui] = true
		out[i] = BatchResult{Table: t, Err: u.err}
	}
	return out, nil
}

// AllKWay returns one BatchRequest per non-empty subset of the d
// attributes with at most k elements — the paper's "answer all ≤k-way
// marginals" evaluation workload — in a deterministic order.
func AllKWay(d, k int, method ReconstructMethod) []BatchRequest {
	var reqs []BatchRequest
	var attrs []int
	var rec func(start int)
	rec = func(start int) {
		if len(attrs) > 0 {
			reqs = append(reqs, BatchRequest{Attrs: append([]int(nil), attrs...), Method: method})
		}
		if len(attrs) == k {
			return
		}
		for a := start; a < d; a++ {
			attrs = append(attrs, a)
			rec(a + 1)
			attrs = attrs[:len(attrs)-1]
		}
	}
	rec(0)
	return reqs
}

// solveShared is the per-(attribute-set, view-source) state every
// estimator answering the same canonical attribute set reuses: the
// covered-view fast path, the view-derived constraint system after
// non-finite filtering, the repaired total, and the
// reconstruct.Prepared solver precompute. Batches group their requests
// by this state so the constraint projections and RestrictIndices
// tables are built once per group; the sequential QueryMethodContext
// path runs a one-shot instance, so single and batched queries execute
// literally the same code and produce bit-identical answers.
type solveShared struct {
	syn   *Synopsis
	attrs []int // canonical: sorted, deduplicated
	raw   bool  // solve against rawViews (the LP estimator)

	once     sync.Once
	covered  *marginal.Table // finite direct projection, when a view covers attrs
	prep     *reconstruct.Prepared
	total    float64
	degraded error // numerical trouble found during preparation
}

// init builds the shared state; called once under sh.once.
func (sh *solveShared) init() {
	source := sh.syn.views
	if sh.raw {
		source = sh.syn.rawViews
	}
	if t := reconstruct.Covered(source, sh.attrs); t != nil {
		if reconstruct.FiniteTable(t) {
			sh.covered = t
			return
		}
		// The covering view is poisoned; reconstruct from whatever
		// healthy views remain instead of answering NaN.
		sh.degraded = &reconstruct.NumericalError{
			Solver: "direct", Iter: -1, Quantity: "covering view cell", Value: math.NaN(),
		}
	}
	cons := reconstruct.ConstraintsFromViews(source, sh.attrs)
	cons, dropped := reconstruct.DropNonFinite(cons)
	if dropped > 0 && sh.degraded == nil {
		sh.degraded = &reconstruct.NumericalError{
			Solver: "constraints", Iter: -1,
			Quantity: fmt.Sprintf("%d non-finite constraint table(s)", dropped), Value: math.NaN(),
		}
	}
	total := sh.syn.total
	if math.IsNaN(total) || math.IsInf(total, 0) {
		if sh.degraded == nil {
			sh.degraded = &reconstruct.NumericalError{Solver: "synopsis", Iter: -1, Quantity: "total", Value: total}
		}
		// Re-estimate from the surviving healthy constraints.
		total = meanTotal(cons)
		if math.IsNaN(total) || math.IsInf(total, 0) || total < 0 {
			total = 0
		}
	}
	sh.total = total
	sh.prep = reconstruct.Prepare(sh.attrs, total, cons)
}

// solve answers one estimator against the shared state, with the
// QueryMethodContext cancellation and degradation contract.
func (sh *solveShared) solve(ctx context.Context, method ReconstructMethod) (*marginal.Table, error) {
	if err := reconstruct.ContextErr(ctx); err != nil {
		return nil, err
	}
	// Only the caller that actually runs init charges the core.prepare
	// stage; joiners of an already-built shared state spent nothing.
	prepStart := time.Now()
	ran := false
	sh.once.Do(func() { ran = true; sh.init() })
	if ran {
		telemetry.FromContext(ctx).Stage("core.prepare", time.Since(prepStart))
	}
	if sh.covered != nil {
		t := sh.covered.Clone()
		if method == LP || sh.syn.cfg.SkipPostprocess {
			// Raw views may carry negatives even in the covered case.
			t.ClampNegatives()
		}
		return t, nil
	}
	degraded := sh.degraded // first numerical problem encountered
	var t *marginal.Table
	for _, m := range fallbackChain(method) {
		var err error
		t, err = sh.solveOnce(ctx, m, sh.syn.cfg.Reconstruct)
		if err == nil {
			break
		}
		if errors.Is(err, reconstruct.ErrCanceled) || errors.Is(err, reconstruct.ErrDeadline) {
			return nil, err
		}
		// Numerical trouble (or an LP solver failure — the LP is always
		// feasible, so those are numerical too): remember the first
		// cause and try the next estimator.
		if degraded == nil {
			degraded = err
		}
		t = nil
	}
	if t == nil {
		// Every estimator failed; a uniform table is the only answer
		// that is always finite and total-preserving.
		t = marginal.Uniform(sh.attrs, math.Max(sh.total, 0))
	}
	if degraded != nil && !errors.Is(degraded, reconstruct.ErrNumerical) {
		degraded = &reconstruct.NumericalError{
			Solver: method.String(), Iter: -1, Quantity: "solver failure", Value: math.NaN(), Err: degraded,
		}
	}
	return t, degraded
}

// solveOnce runs a single estimator without fallback, charging its
// wall clock to the request trace under the estimator's stage name.
func (sh *solveShared) solveOnce(ctx context.Context, method ReconstructMethod, opt reconstruct.Options) (*marginal.Table, error) {
	tr := telemetry.FromContext(ctx)
	var begin time.Time
	if tr != nil {
		begin = time.Now()
	}
	t, err := sh.dispatch(ctx, method, opt)
	if tr != nil {
		tr.Stage(reconstructStage(method), time.Since(begin))
	}
	return t, err
}

func (sh *solveShared) dispatch(ctx context.Context, method ReconstructMethod, opt reconstruct.Options) (*marginal.Table, error) {
	switch method {
	case CME:
		return sh.prep.MaxEnt(ctx, opt)
	case CLN:
		return sh.prep.LeastSquares(ctx, opt)
	case LP, CLP:
		return sh.prep.LinProg(ctx)
	default:
		panic(fmt.Sprintf("core: unknown reconstruction method %d", int(method)))
	}
}

// reconstructStage maps an estimator to its constant trace-stage label;
// constant strings keep the stage-label set closed (bounded series
// cardinality) and the recording allocation-free.
func reconstructStage(m ReconstructMethod) string {
	switch m {
	case CME:
		return "reconstruct.cme"
	case CLN:
		return "reconstruct.cln"
	case LP:
		return "reconstruct.lp"
	case CLP:
		return "reconstruct.clp"
	}
	return "reconstruct.other"
}
