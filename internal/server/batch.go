package server

import (
	"context"
	"fmt"

	"priview/internal/core"
)

// BatchQuerier is the batched query surface: answer many marginal
// requests in one call, deduplicating identical requests and sharing
// solver precompute across them. *core.Synopsis implements it; wrappers
// (CachedQuerier, Pinned and the leases embedding it) forward it explicitly.
type BatchQuerier interface {
	QueryBatch(ctx context.Context, reqs []core.BatchRequest, opt core.BatchOptions) ([]core.BatchResult, error)
}

// DefaultMethoder is implemented by Queriers that carry a configured
// default estimator (core.Synopsis does, via Config.Method). Both
// marginal routes and the warm path consult it so "no method named"
// means the synopsis's own default, not a hardcoded CME.
type DefaultMethoder interface {
	DefaultMethod() core.ReconstructMethod
}

// defaultMethod resolves the estimator used when a request names none:
// the querier's configured default when it exposes one, else CME (the
// paper's proposed method and core's zero-value default).
func defaultMethod(q Querier) core.ReconstructMethod {
	if dm, ok := q.(DefaultMethoder); ok {
		return dm.DefaultMethod()
	}
	return core.CME
}

// queryBatch answers reqs against q — natively when q implements
// BatchQuerier, else via the sequential fallback — so every call site
// serves both real synopses and minimal test Queriers.
func queryBatch(ctx context.Context, q Querier, reqs []core.BatchRequest, opt core.BatchOptions) ([]core.BatchResult, error) {
	if bq, ok := q.(BatchQuerier); ok {
		return bq.QueryBatch(ctx, reqs, opt)
	}
	return QueryBatchSequential(ctx, q, reqs)
}

// QueryBatchSequential answers reqs with a plain QueryMethodContext
// loop: no deduplication, no shared precompute, no parallelism. It is
// the semantic baseline QueryBatch is measured against (the two must
// agree bit-for-bit) and the fallback for Queriers that cannot batch.
// A request failing without a table — cancellation, or an internal
// failure of a non-core Querier — fails the whole batch, matching
// QueryBatch's no-partial-results contract.
func QueryBatchSequential(ctx context.Context, q Querier, reqs []core.BatchRequest) ([]core.BatchResult, error) {
	out := make([]core.BatchResult, len(reqs))
	for i, r := range reqs {
		t, err := q.QueryMethodContext(ctx, r.Attrs, r.Method)
		if t == nil {
			if err == nil {
				err = fmt.Errorf("server: querier returned no table for attrs %v", r.Attrs)
			}
			return nil, err
		}
		out[i] = core.BatchResult{Table: t, Err: err}
	}
	return out, nil
}
