package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"time"

	"priview/internal/attrset"
	"priview/internal/core"
	"priview/internal/covering"
	"priview/internal/reconstruct"
	"priview/internal/telemetry"
)

// marginalRoute is what distinguishes the two marginal routes, which
// are one query path. GET /v1/marginal carries one query in its query
// string and answers a bare object; POST /v1/marginals carries a JSON
// batch and answers {"results": [...]}. Validation (parseQuery),
// brownout's all-hits loop (overload.serveCacheOnly) and the solve step
// (Multi.serveMarginal) are shared, so a GET is a batch of one.
type marginalRoute struct {
	// op is the route's last path segment.
	op string
	// parse reads and validates a request into its queries against the
	// resolved release q. It writes nothing: the handler writes the
	// rejection, and brownout leaves it to the handler.
	parse func(r *http.Request, q Querier, opt Options) ([]core.BatchRequest, *inputError)
	// write answers the solved queries, in request order.
	write func(w http.ResponseWriter, logger *log.Logger, reqs []core.BatchRequest, results []core.BatchResult)
}

var (
	marginalGET   = marginalRoute{op: "marginal", parse: parseMarginal, write: writeMarginal}
	marginalsPOST = marginalRoute{op: "marginals", parse: parseMarginals, write: writeMarginals}
)

// maxMarginalsBody bounds the request body of POST /v1/marginals; a
// batch of MaxBatch queries over MaxK attributes fits in a small
// fraction of this.
const maxMarginalsBody = 1 << 20

// marginalsQuery is one query inside a batched request.
type marginalsQuery struct {
	Attrs  []int  `json:"attrs"`
	Method string `json:"method,omitempty"`
}

// marginalsRequest is the POST /v1/marginals body. Method is the
// default estimator for queries that name none; empty means the served
// synopsis's configured default.
type marginalsRequest struct {
	Queries []marginalsQuery `json:"queries"`
	Method  string           `json:"method,omitempty"`
}

// marginalResponse is a reconstructed marginal table. Degraded marks
// answers produced by the numerical fallback chain (a poisoned view or
// an unstable solver was bypassed); the cells are finite and usable but
// may come from a different estimator than requested.
type marginalResponse struct {
	Attrs    []int     `json:"attrs"`
	Method   string    `json:"method"`
	Total    float64   `json:"total"`
	Cells    []float64 `json:"cells"`
	Degraded bool      `json:"degraded,omitempty"`
}

// marginalsResponse answers a batch: one marginalResponse per query, in
// request order.
type marginalsResponse struct {
	Results []marginalResponse `json:"results"`
}

// batchErrorItem locates one invalid query inside a rejected batch.
type batchErrorItem struct {
	Index int    `json:"index"`
	Error string `json:"error"`
}

// batchErrorResponse is the 400 body for an invalid batch: a summary
// plus one entry per offending index, so a client fixes every problem
// in one round trip instead of peeling them off a bare 400 one at a
// time.
type batchErrorResponse struct {
	Error  string           `json:"error"`
	Errors []batchErrorItem `json:"errors"`
}

// inputError is a marginal request rejected before anything is solved:
// status with a plain-text body, or, when items is set, the per-index
// JSON 400 of an invalid batch.
type inputError struct {
	status int
	msg    string
	items  []batchErrorItem
}

func badRequest(format string, args ...any) *inputError {
	return &inputError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

func (e *inputError) write(w http.ResponseWriter, logger *log.Logger) {
	if e.items != nil {
		writeBatchError(w, logger, e.items)
		return
	}
	http.Error(w, e.msg, e.status)
}

// writeBatchError answers an invalid batch with the per-index 400 body.
func writeBatchError(w http.ResponseWriter, logger *log.Logger, items []batchErrorItem) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusBadRequest)
	resp := batchErrorResponse{
		Error:  fmt.Sprintf("invalid batch: %d invalid queries", len(items)),
		Errors: items,
	}
	if err := json.NewEncoder(w).Encode(resp); err != nil {
		logger.Printf("server: encoding batch error response: %v", err)
	}
}

// parseQuery validates one marginal query for both routes: the
// attribute list against the release's design (every maskable attribute
// without one) and the MaxK bound, then the estimator, where "" selects
// def. The error text is GET's 400 body and POST's per-index error.
func parseQuery(attrs []int, method string, def core.ReconstructMethod, dg *covering.Design, maxK int) (core.BatchRequest, error) {
	if len(attrs) == 0 {
		return core.BatchRequest{}, errors.New("attrs is required")
	}
	d := attrset.MaxAttr
	if dg != nil {
		d = dg.D
	}
	var set attrset.Set
	for _, a := range attrs {
		if a < 0 || a >= d {
			return core.BatchRequest{}, fmt.Errorf("attribute %d out of range (d=%d)", a, d)
		}
		if set.Contains(a) {
			return core.BatchRequest{}, fmt.Errorf("duplicate attribute %d", a)
		}
		set = set.Union(attrset.Of(a))
	}
	if set.Card() > maxK {
		return core.BatchRequest{}, fmt.Errorf("at most %d attributes per query", maxK)
	}
	if method != "" {
		m, err := core.ParseMethod(method)
		if err != nil {
			return core.BatchRequest{}, errors.New("unknown method (want CME, CLN, LP or CLP)")
		}
		def = m
	}
	return core.BatchRequest{Attrs: set.Attrs(), Method: def}, nil
}

// parseMarginal reads GET /v1/marginal's query string — attrs, a
// comma-separated index list, and an optional method — into its one
// query.
func parseMarginal(r *http.Request, q Querier, opt Options) ([]core.BatchRequest, *inputError) {
	if r.Method != http.MethodGet {
		return nil, &inputError{status: http.StatusMethodNotAllowed, msg: "method not allowed"}
	}
	params := r.URL.Query()
	raw := params.Get("attrs")
	if raw == "" {
		return nil, badRequest("attrs parameter is required (comma-separated indices)")
	}
	parts := strings.Split(raw, ",")
	attrs := make([]int, len(parts))
	for i, p := range parts {
		a, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, badRequest("bad attribute %q", p)
		}
		attrs[i] = a
	}
	req, err := parseQuery(attrs, params.Get("method"), q.DefaultMethod(), q.Design(), opt.MaxK)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	return []core.BatchRequest{req}, nil
}

// parseMarginals reads a POST /v1/marginals body into its queries,
// collecting every per-index problem instead of stopping at the first.
func parseMarginals(r *http.Request, q Querier, opt Options) ([]core.BatchRequest, *inputError) {
	if r.Method != http.MethodPost {
		return nil, &inputError{status: http.StatusMethodNotAllowed, msg: "method not allowed"}
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxMarginalsBody+1))
	if err != nil {
		return nil, badRequest("reading request body")
	}
	if len(body) > maxMarginalsBody {
		return nil, &inputError{status: http.StatusRequestEntityTooLarge, msg: "request body too large"}
	}
	var req marginalsRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, badRequest("decoding request: %v", err)
	}
	if len(req.Queries) == 0 {
		return nil, badRequest("queries is required (non-empty array)")
	}
	if len(req.Queries) > opt.MaxBatch {
		return nil, badRequest("at most %d queries per batch", opt.MaxBatch)
	}
	def := q.DefaultMethod()
	if req.Method != "" {
		m, err := core.ParseMethod(req.Method)
		if err != nil {
			return nil, &inputError{items: []batchErrorItem{{Index: -1,
				Error: fmt.Sprintf("unknown default method %q (want CME, CLN, LP or CLP)", req.Method)}}}
		}
		def = m
	}
	dg := q.Design()
	reqs := make([]core.BatchRequest, len(req.Queries))
	var items []batchErrorItem
	for i, query := range req.Queries {
		br, err := parseQuery(query.Attrs, query.Method, def, dg, opt.MaxK)
		if err != nil {
			items = append(items, batchErrorItem{Index: i, Error: err.Error()})
			continue
		}
		reqs[i] = br
	}
	if items != nil {
		return nil, &inputError{items: items}
	}
	return reqs, nil
}

// solveCounts tallies distinct solves per estimator, indexed by
// core.ReconstructMethod.
type solveCounts [core.CLP + 1]int

// countSolves counts the distinct (attribute set, method) pairs in reqs
// — the solves QueryBatch runs after deduplication — in total and per
// estimator. Validated requests carry canonical attribute lists, so a
// scan of the earlier requests finds the duplicates; without a
// per-request map, a one-query request pays for no batch bookkeeping.
func countSolves(reqs []core.BatchRequest) (n int, solves solveCounts) {
	for i, r := range reqs {
		dup := slices.ContainsFunc(reqs[:i], func(p core.BatchRequest) bool {
			return p.Method == r.Method && slices.Equal(p.Attrs, r.Attrs)
		})
		if !dup {
			n++
			solves[r.Method]++
		}
	}
	return n, solves
}

// describe names a request in log lines: one query by itself, a batch
// by its size and distinct solves.
func describe(reqs []core.BatchRequest, n int) string {
	if len(reqs) == 1 {
		return fmt.Sprintf("attrs=%v method=%s", reqs[0].Attrs, reqs[0].Method)
	}
	return fmt.Sprintf("batch=%d solves=%d", len(reqs), n)
}

// serveMarginal is the one solve-and-answer step behind both marginal
// routes: route rt parses the request against the resolved release q,
// the deadline gate is sized to the distinct solves spread over the
// request's solver parallelism, the trace rides the context down
// through qcache and core (which record their stage timings into it),
// the wall clock feeds the service-time estimate and the solve
// histograms, a failure is mapped onto the HTTP failure model, and rt
// writes the answers. Once input is validated every failure is the
// server's, not the client's; panics propagate to the recovery
// middleware (500).
func (m *Multi) serveMarginal(rt marginalRoute) func(http.ResponseWriter, *http.Request, Querier) {
	return func(w http.ResponseWriter, r *http.Request, q Querier) {
		reqs, bad := rt.parse(r, q, m.opt)
		if bad != nil {
			bad.write(w, m.opt.Logger)
			return
		}
		n, solves := countSolves(reqs)
		if !m.ov.admitDeadline(w, r, solves, n, m.opt.BatchWorkers) {
			return
		}
		ctx, tr := telemetry.StartTrace(r.Context())
		defer m.tel.finishTrace(tr, m.opt.Logger, m.opt.SlowQuery, r.URL.Path, func() string {
			return describe(reqs, n)
		})
		start := time.Now()
		results, err := q.QueryBatch(ctx, reqs, core.BatchOptions{Workers: m.opt.BatchWorkers})
		if err != nil {
			var be *core.BatchError
			switch {
			case errors.As(err, &be):
				items := make([]batchErrorItem, len(be.Items))
				for i, it := range be.Items {
					items[i] = batchErrorItem{Index: it.Index, Error: it.Err.Error()}
				}
				writeBatchError(w, m.opt.Logger, items)
			case errors.Is(err, reconstruct.ErrDeadline) || errors.Is(err, context.DeadlineExceeded):
				http.Error(w, "query deadline exceeded", http.StatusGatewayTimeout)
			case errors.Is(err, reconstruct.ErrCanceled) || errors.Is(err, context.Canceled):
				// The client went away; the status is for logs only.
				w.WriteHeader(statusClientClosedRequest)
			default:
				m.opt.Logger.Printf("server: %s failed: %v", describe(reqs, n), err)
				http.Error(w, "internal error", http.StatusInternalServerError)
			}
			return
		}
		// Only completed solves feed the estimate; a timed-out request
		// measures its own truncation, not the method's service time.
		// The wall clock is normalized to a per-solve time so batches and
		// singles train one estimate: n solves across p goroutines take
		// ~n/p solve-times. The solve histograms get the same value.
		perSolve := time.Duration(int64(time.Since(start)) * int64(parallelism(m.opt.BatchWorkers, n)) / int64(n))
		for method, k := range solves {
			if k > 0 {
				m.ov.svc.Observe(method, perSolve)
				m.tel.observeSolve(core.ReconstructMethod(method), perSolve)
			}
		}
		degraded := 0
		for _, res := range results {
			if res.Degraded() {
				degraded++
			}
		}
		if degraded > 0 {
			// The numerical fallback chain produced finite answers; serve
			// them, marked degraded, rather than failing the request.
			m.opt.Logger.Printf("server: %s answered with %d degraded", describe(reqs, n), degraded)
		}
		rt.write(w, m.opt.Logger, reqs, results)
	}
}

func newMarginalResponse(req core.BatchRequest, res core.BatchResult) marginalResponse {
	return marginalResponse{
		Attrs:    res.Table.Attrs,
		Method:   req.Method.String(),
		Total:    res.Table.Total(),
		Cells:    res.Table.Cells,
		Degraded: res.Degraded(),
	}
}

// writeMarginal answers GET /v1/marginal with its one result as a bare
// object.
func writeMarginal(w http.ResponseWriter, logger *log.Logger, reqs []core.BatchRequest, results []core.BatchResult) {
	writeJSON(w, logger, newMarginalResponse(reqs[0], results[0]))
}

// writeMarginals answers POST /v1/marginals with one result per query,
// in request order.
func writeMarginals(w http.ResponseWriter, logger *log.Logger, reqs []core.BatchRequest, results []core.BatchResult) {
	resp := marginalsResponse{Results: make([]marginalResponse, len(results))}
	for i, res := range results {
		resp.Results[i] = newMarginalResponse(reqs[i], res)
	}
	writeJSON(w, logger, resp)
}
