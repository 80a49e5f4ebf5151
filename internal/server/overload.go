package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"time"

	"priview/internal/admission"
	"priview/internal/core"
)

// Deadline-propagation and priority headers — the contract between
// server.Client and the serving stack.
const (
	// DeadlineHeader carries the client's remaining context budget in
	// whole milliseconds. The server arms min(propagated, QueryTimeout)
	// as the request deadline, so work the client has already given up
	// on is never solved to completion server-side.
	DeadlineHeader = "X-Priview-Deadline-Ms"
	// PriorityHeader marks a request's traffic class; the value
	// PriorityHigh exempts it from brownout degradation.
	PriorityHeader = "X-Priview-Priority"
	// PriorityHigh is the PriorityHeader value for priority traffic.
	PriorityHigh = "high"
)

// maxPropagatedDeadline caps what a client header may arm, so a corrupt
// or hostile header cannot schedule absurdly long-lived requests.
const maxPropagatedDeadline = time.Hour

// parseDeadlineMs reads a DeadlineHeader value: positive whole
// milliseconds, capped at maxPropagatedDeadline. ok is false for absent
// or malformed values — the request then runs under the server's own
// QueryTimeout alone, exactly as if no header had been sent.
func parseDeadlineMs(v string) (time.Duration, bool) {
	if v == "" {
		return 0, false
	}
	ms, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
	if err != nil || ms <= 0 {
		return 0, false
	}
	d := time.Duration(ms) * time.Millisecond
	if d > maxPropagatedDeadline {
		d = maxPropagatedDeadline
	}
	return d, true
}

// overload bundles the overload-control machinery in front of every
// marginal request: the admission controller (the router's only load
// shedder), the per-method service-time EWMA feeding the deadline
// gate, and the brownout detector. It and its controller count into
// tel's series, so /metrics and the JSON stats read one set of
// numbers.
type overload struct {
	opt   Options
	ctrl  *admission.Controller
	svc   *admission.ServiceTime
	brown *admission.Brownout // nil = brownout disabled
	tel   *Metrics
}

// newOverload builds the machinery from opt, whose defaults the router
// has already filled in, counting into tel and refreshing tel's
// admission gauges at scrape time.
func newOverload(opt Options, tel *Metrics) *overload {
	o := &overload{
		opt: opt,
		ctrl: admission.NewController(opt.Admission, admission.Counters{
			Admitted:     tel.admAdmitted,
			Queued:       tel.admQueued,
			Shed:         tel.admShed,
			CoDelDropped: tel.admCoDel,
			Sojourn:      tel.admSojourn,
		}),
		svc: admission.NewServiceTime(nil),
		tel: tel,
	}
	if opt.Brownout != nil {
		o.brown = admission.NewBrownout(*opt.Brownout)
	}
	tel.Registry.OnScrape(func() {
		st := o.stats()
		tel.admLimit.Set(float64(st.Limit))
		tel.admInflight.Set(float64(st.Inflight))
		tel.admQueue.Set(float64(st.QueueDepth))
		if st.BrownoutActive {
			tel.brownoutActive.Set(1)
		} else {
			tel.brownoutActive.Set(0)
		}
	})
	return o
}

// admitted gates h behind the admission controller. Each request
// first feeds the brownout detector; while a brownout is active,
// non-priority requests are offered to tryCacheOnly before consuming
// an admission slot, so cache hits stay cheap exactly when capacity is
// scarce.
func (o *overload) admitted(h http.Handler, tryCacheOnly func(http.ResponseWriter, *http.Request) bool) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if o.brown != nil {
			o.brown.Note(o.ctrl.Overloaded())
			if o.brown.Active() && r.Header.Get(PriorityHeader) != PriorityHigh && tryCacheOnly(w, r) {
				return
			}
		}
		rel, err := o.ctrl.Acquire(r.Context())
		if err != nil {
			o.writeAcquireError(w, err)
			return
		}
		defer rel()
		h.ServeHTTP(w, r)
	})
}

// writeAcquireError maps a Controller.Acquire refusal onto the HTTP
// failure model: shed → 429 with the queue-depth-scaled hint, deadline
// expired while queued → 504, client gone while queued → 499.
func (o *overload) writeAcquireError(w http.ResponseWriter, err error) {
	var rej *admission.RejectedError
	switch {
	case errors.As(err, &rej):
		w.Header().Set("Retry-After", retryAfterSeconds(rej.RetryAfter))
		http.Error(w, "server overloaded, retry later", http.StatusTooManyRequests)
	case errors.Is(err, context.DeadlineExceeded):
		http.Error(w, "deadline expired waiting for admission", http.StatusGatewayTimeout)
	default:
		// The client went away while queued; the status is for logs only.
		w.WriteHeader(statusClientClosedRequest)
	}
}

// deadlined arms the per-request reconstruction budget: the smaller of
// the server's QueryTimeout and the client's propagated remaining
// deadline. The gate that rejects requests the budget cannot cover is
// admitDeadline, which the handlers run once they have parsed what the
// request will cost.
func (o *overload) deadlined(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		budget := o.opt.QueryTimeout
		if d, ok := parseDeadlineMs(r.Header.Get(DeadlineHeader)); ok && (budget <= 0 || d < budget) {
			budget = d
		}
		if budget <= 0 {
			h.ServeHTTP(w, r)
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), budget)
		defer cancel()
		h.ServeHTTP(w, r.WithContext(ctx))
	})
}

// admitDeadline is the deadline gate of both marginal routes. solves
// counts the request's n distinct solves per estimator; they fan over
// parallelism(workers, n) goroutines, so the request needs about (sum
// of per-solve EWMA estimates) / parallelism of wall clock. A request
// whose remaining deadline is below that is doomed — it would burn
// solver slots only to time out — so it is rejected in microseconds
// with 504 + Retry-After and admitDeadline returns false.
func (o *overload) admitDeadline(w http.ResponseWriter, r *http.Request, solves solveCounts, n, workers int) bool {
	deadline, ok := r.Context().Deadline()
	if !ok {
		return true
	}
	var est time.Duration
	for method, k := range solves {
		if k > 0 {
			est += time.Duration(k) * o.svc.Estimate(method)
		}
	}
	need := est / time.Duration(parallelism(workers, n))
	remain := time.Until(deadline)
	if need <= 0 || remain >= need {
		return true
	}
	o.tel.deadlineRejected.Add(1)
	w.Header().Set("Retry-After", retryAfterSeconds(admission.RetryAfter))
	http.Error(w, fmt.Sprintf("remaining deadline %v below expected service time %v (%d solves)",
		remain.Round(time.Millisecond), need.Round(time.Millisecond), n),
		http.StatusGatewayTimeout)
	return false
}

// parallelism is how many goroutines n distinct solves actually run on
// under a worker bound of workers (≤ 0 selects GOMAXPROCS).
func parallelism(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return max(1, min(workers, n))
}

// serveCacheOnly answers a request of route rt from q's memoized cache
// alone — the brownout serving mode, one all-hits loop for both marginal
// routes. The request is served only when every query is a cache hit:
// one cold query means one solve, which is exactly what brownout exists
// to avoid, so a miss is refused 503 + Retry-After. A request that does
// not parse returns false so the normal path keeps ownership of input
// errors (400s must look identical in and out of brownout); the body is
// buffered and restored for it to re-read. true means handled.
func (o *overload) serveCacheOnly(w http.ResponseWriter, r *http.Request, q Querier, rt marginalRoute) bool {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxMarginalsBody+1))
	//lint:ignore errdiscard the original body is replaced either way
	r.Body.Close()
	r.Body = io.NopCloser(bytes.NewReader(body))
	if err != nil {
		return false
	}
	reqs, bad := rt.parse(r, q, o.opt)
	r.Body = io.NopCloser(bytes.NewReader(body))
	if bad != nil {
		return false
	}
	cq, hit := q.(*CachedQuerier)
	results := make([]core.BatchResult, len(reqs))
	for i := 0; hit && i < len(reqs); i++ {
		results[i].Table, hit = cq.QueryCached(reqs[i].Attrs, reqs[i].Method)
	}
	if !hit {
		o.tel.brownoutRejected.Add(1)
		o.refuseBrownout(w)
		return true
	}
	o.tel.brownoutServed.Add(1)
	rt.write(w, o.opt.Logger, reqs, results)
	return true
}

// refuseBrownout writes the 503 brownout refusal with the controller's
// queue-depth-scaled Retry-After hint.
func (o *overload) refuseBrownout(w http.ResponseWriter) {
	w.Header().Set("Retry-After", retryAfterSeconds(o.ctrl.RetryAfter()))
	http.Error(w, "brownout: serving cached answers only, retry later", http.StatusServiceUnavailable)
}

// stats merges the middleware-owned counters into the controller's
// snapshot.
func (o *overload) stats() admission.Stats {
	st := o.ctrl.Stats()
	st.DeadlineRejected = o.tel.deadlineRejected.Value()
	st.BrownoutServed = o.tel.brownoutServed.Value()
	st.BrownoutRejected = o.tel.brownoutRejected.Value()
	st.BrownoutActive = o.brown != nil && o.brown.Active()
	return st
}
