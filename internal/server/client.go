package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"priview/internal/core"
	"priview/internal/marginal"
	"priview/internal/reconstruct"
)

// DefaultClientTimeout bounds a single HTTP attempt for clients built
// with a nil *http.Client. http.DefaultClient has no timeout at all, so
// a wedged server would hang callers forever.
const DefaultClientTimeout = 30 * time.Second

// RetryPolicy controls the client's retry loop for idempotent requests.
// The zero value selects the defaults noted per field; MaxAttempts = 1
// disables retrying entirely.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries including the first
	// (default 3).
	MaxAttempts int
	// BaseDelay is the backoff before the first retry (default 100ms);
	// subsequent retries double it.
	BaseDelay time.Duration
	// MaxDelay caps the computed backoff (default 2s). A server-sent
	// Retry-After hint overrides the computed backoff and is capped at
	// 30s rather than MaxDelay — the server knows better.
	MaxDelay time.Duration
	// Seed makes the jitter deterministic for tests (0 selects a fixed
	// default seed; runs are reproducible either way).
	Seed uint64
	// RetryBudget, when positive, bounds retry amplification: every
	// successful request deposits RetryBudget tokens and every retry
	// withdraws one, so sustained retry traffic cannot exceed that
	// fraction of successful traffic (0.1 ≈ 10% extra load). When the
	// budget is empty the client returns the last error immediately —
	// wrapped so errors.Is(err, ErrRetryBudget) detects it — instead of
	// amplifying an outage into a retry storm. 0 disables the budget,
	// preserving plain MaxAttempts behavior.
	RetryBudget float64
	// RetryBurst caps the banked tokens and seeds the starting balance
	// (default 3 when RetryBudget is set) so cold-start transients still
	// get a few retries before any success has funded the budget.
	RetryBurst float64
}

func (p RetryPolicy) maxAttempts() int {
	if p.MaxAttempts <= 0 {
		return 3
	}
	return p.MaxAttempts
}

func (p RetryPolicy) baseDelay() time.Duration {
	if p.BaseDelay <= 0 {
		return 100 * time.Millisecond
	}
	return p.BaseDelay
}

func (p RetryPolicy) maxDelay() time.Duration {
	if p.MaxDelay <= 0 {
		return 2 * time.Second
	}
	return p.MaxDelay
}

// retryAfterCap bounds how long a server-sent Retry-After hint can make
// the client sleep; anything longer is treated as "give up this soon-ness
// isn't happening" rather than slept through.
const retryAfterCap = 30 * time.Second

// ErrRetryBudget marks errors returned when the retry budget refused
// another attempt; detect it with errors.Is.
var ErrRetryBudget = errors.New("server: retry budget exhausted")

// Client is a typed client for the priview-serve HTTP API. Its two
// requests, GET /v1/info and POST /v1/marginals, are pure reads that
// change nothing on the server, so transient connection errors and
// retryable statuses (429 and 5xx) are retried with exponential backoff
// and jitter, honoring Retry-After.
//
// Two overload-control behaviors are built in. Every attempt carries
// the caller's remaining context budget in the X-Priview-Deadline-Ms
// header so the server can decline work the client will abandon anyway,
// and a backoff that would outlive the remaining budget fails
// immediately instead of being slept through. Optionally,
// RetryPolicy.RetryBudget bounds retry amplification fleet-wide.
type Client struct {
	base     string
	hc       *http.Client
	policy   RetryPolicy
	rng      *jitterRand
	budget   *retryBudget // nil = no retry budget
	priority string
}

// retryBudget is the success-funded token bucket behind
// RetryPolicy.RetryBudget. Unlike a time-based bucket it refills on
// success, which is the point: when nothing succeeds, nothing funds
// further retries.
type retryBudget struct {
	mu     sync.Mutex
	tokens float64
	limit  float64 // cap on banked tokens
	earn   float64 // deposit per success
}

func (b *retryBudget) withdraw() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

func (b *retryBudget) deposit() {
	b.mu.Lock()
	b.tokens += b.earn
	if b.tokens > b.limit {
		b.tokens = b.limit
	}
	b.mu.Unlock()
}

// NewClient returns a client for a server at base (e.g.
// "http://localhost:8080"), retrying per policy; the zero RetryPolicy
// selects the defaults. httpClient may be nil for a default with a
// DefaultClientTimeout per-attempt timeout.
func NewClient(base string, httpClient *http.Client, policy RetryPolicy) *Client {
	if httpClient == nil {
		httpClient = &http.Client{Timeout: DefaultClientTimeout}
	}
	rng := &jitterRand{}
	seed := policy.Seed
	if seed == 0 {
		seed = 0x5deece66d
	}
	rng.state.Store(seed)
	c := &Client{
		base:   strings.TrimRight(base, "/"),
		hc:     httpClient,
		policy: policy,
		rng:    rng,
	}
	if policy.RetryBudget > 0 {
		burst := policy.RetryBurst
		if burst <= 0 {
			burst = 3
		}
		c.budget = &retryBudget{tokens: burst, limit: burst, earn: policy.RetryBudget}
	}
	return c
}

// SetPriority sets the traffic class sent in the X-Priview-Priority
// header on every request; PriorityHigh exempts this client from
// server-side brownout degradation. Call before sharing the client
// across goroutines.
func (c *Client) SetPriority(p string) { c.priority = p }

// InfoContext fetches the release metadata, honoring the caller's
// deadline across all retry attempts.
func (c *Client) InfoContext(ctx context.Context) (*Info, error) {
	var info Info
	if err := c.doJSON(ctx, http.MethodGet, "/v1/info", nil, &info); err != nil {
		return nil, err
	}
	return &info, nil
}

// MarginalsContext posts reqs to /v1/marginals and returns one answer
// per request, in request order, honoring the caller's deadline across
// all retry attempts, backoff sleeps included. Each request names its
// estimator; the zero Method is CME. As in core.BatchResult, a
// degraded answer (one the server's numerical fallback chain produced)
// carries its finite table and an Err matching
// reconstruct.ErrNumerical.
func (c *Client) MarginalsContext(ctx context.Context, reqs []core.BatchRequest) ([]core.BatchResult, error) {
	req := marginalsRequest{Queries: make([]marginalsQuery, len(reqs))}
	for i, r := range reqs {
		req.Queries[i] = marginalsQuery{Attrs: r.Attrs, Method: r.Method.String()}
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("server: encoding batch: %w", err)
	}
	var resp marginalsResponse
	if err := c.doJSON(ctx, http.MethodPost, "/v1/marginals", body, &resp); err != nil {
		return nil, err
	}
	if len(resp.Results) != len(reqs) {
		return nil, fmt.Errorf("server: response has %d results for %d queries", len(resp.Results), len(reqs))
	}
	out := make([]core.BatchResult, len(resp.Results))
	for i, r := range resp.Results {
		t := marginal.New(r.Attrs)
		if len(r.Cells) != t.Size() {
			return nil, fmt.Errorf("server: result %d has %d cells for %d attributes", i, len(r.Cells), len(r.Attrs))
		}
		copy(t.Cells, r.Cells)
		out[i].Table = t
		if r.Degraded {
			out[i].Err = fmt.Errorf("server: result %d came from the fallback chain: %w", i, reconstruct.ErrNumerical)
		}
	}
	return out, nil
}

// doJSON issues one API request (resending body each attempt) and
// decodes the 200 response into v, retrying transient failures per the
// policy. Only read-only requests may flow through here: retrying is
// safe precisely because they are idempotent — GET /v1/info and the
// pure-read POST /v1/marginals — do not route state-changing requests
// through this loop.
func (c *Client) doJSON(ctx context.Context, method, path string, reqBody []byte, v interface{}) error {
	var lastErr error
	hint := time.Duration(0)
	for attempt := 0; attempt < c.policy.maxAttempts(); attempt++ {
		if attempt > 0 {
			d := c.backoff(attempt, hint)
			if deadline, ok := ctx.Deadline(); ok {
				if remain := time.Until(deadline); remain <= d {
					// The backoff sleep alone would consume the caller's
					// whole remaining budget; fail now rather than burn
					// the rest of the deadline asleep.
					return fmt.Errorf("server: %v remaining for %v backoff: %w (last error: %v)",
						remain.Round(time.Millisecond), d.Round(time.Millisecond),
						context.DeadlineExceeded, lastErr)
				}
			}
			if c.budget != nil && !c.budget.withdraw() {
				return fmt.Errorf("%w after %d attempts (last error: %v)", ErrRetryBudget, attempt, lastErr)
			}
			if err := c.sleep(ctx, d); err != nil {
				return fmt.Errorf("server: giving up after %d attempts: %w (last error: %v)", attempt, err, lastErr)
			}
		}
		var bodyReader io.Reader
		if reqBody != nil {
			bodyReader = bytes.NewReader(reqBody)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, bodyReader)
		if err != nil {
			return fmt.Errorf("server: %w", err)
		}
		if reqBody != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		// Propagate the remaining budget so the server can fast-fail
		// work this client would abandon anyway.
		if deadline, ok := ctx.Deadline(); ok {
			if ms := time.Until(deadline).Milliseconds(); ms > 0 {
				req.Header.Set(DeadlineHeader, strconv.FormatInt(ms, 10))
			}
		}
		if c.priority != "" {
			req.Header.Set(PriorityHeader, c.priority)
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return fmt.Errorf("server: %w", ctx.Err())
			}
			// Connection-level failure of a read-only request: retry.
			lastErr = fmt.Errorf("server: %w", err)
			hint = 0
			continue
		}
		body, rerr := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
		if cerr := resp.Body.Close(); rerr == nil {
			rerr = cerr
		}
		if rerr != nil {
			lastErr = fmt.Errorf("server: reading response: %w", rerr)
			hint = 0
			continue
		}
		if resp.StatusCode == http.StatusOK {
			if err := json.Unmarshal(body, v); err != nil {
				return fmt.Errorf("server: decoding response: %w", err)
			}
			if c.budget != nil {
				c.budget.deposit()
			}
			return nil
		}
		statusErr := fmt.Errorf("server: %s: %s", resp.Status, strings.TrimSpace(string(body)))
		if !retryableStatus(resp.StatusCode) {
			return statusErr
		}
		lastErr = statusErr
		hint = parseRetryAfter(resp.Header.Get("Retry-After"), time.Now())
	}
	return fmt.Errorf("%w (after %d attempts)", lastErr, c.policy.maxAttempts())
}

// retryableStatus reports whether an idempotent request that drew this
// status is worth repeating: explicit backpressure (429) and transient
// server-side failures (5xx). Everything in the 4xx range besides 429
// reflects the request itself and will fail identically on retry.
func retryableStatus(code int) bool {
	switch code {
	case http.StatusTooManyRequests,
		http.StatusInternalServerError,
		http.StatusBadGateway,
		http.StatusServiceUnavailable,
		http.StatusGatewayTimeout:
		return true
	}
	return false
}

// parseRetryAfter reads a Retry-After header in either standard form:
// delay-seconds (the form this server emits) or HTTP-date, measured
// against now. Absent or unparseable values yield 0, falling back to
// computed backoff, and both forms are clamped to retryAfterCap — a
// skewed clock or hostile date must not schedule an hour-long sleep.
func parseRetryAfter(v string, now time.Time) time.Duration {
	v = strings.TrimSpace(v)
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0
		}
		return clampRetryAfter(time.Duration(secs) * time.Second)
	}
	t, err := http.ParseTime(v)
	if err != nil {
		return 0
	}
	return clampRetryAfter(t.Sub(now))
}

func clampRetryAfter(d time.Duration) time.Duration {
	if d < 0 {
		return 0
	}
	if d > retryAfterCap {
		return retryAfterCap
	}
	return d
}

// backoff computes the sleep before the attempt-th try (attempt ≥ 1):
// a server-sent Retry-After hint verbatim, else exponential growth from
// BaseDelay with half-interval jitter so synchronized clients desync.
func (c *Client) backoff(attempt int, hint time.Duration) time.Duration {
	if hint > 0 {
		if hint > retryAfterCap {
			hint = retryAfterCap
		}
		return hint
	}
	d := c.policy.baseDelay() << uint(attempt-1)
	if max := c.policy.maxDelay(); d > max || d <= 0 {
		d = max
	}
	// Jitter in [d/2, d).
	return d/2 + time.Duration(c.rng.next()%uint64(d/2+1))
}

// sleep waits for d or until ctx is done, whichever comes first.
func (c *Client) sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// jitterRand is a tiny deterministic splitmix64 PRNG for retry jitter.
// Jitter is not privacy-relevant randomness, so it must not draw from
// internal/noise (whose draws are attributable to a privacy budget); a
// fixed-seed generator keeps client behavior reproducible in
// fault-injection tests. The atomic counter makes it safe for
// concurrent use by a shared Client.
type jitterRand struct {
	state atomic.Uint64
}

func (r *jitterRand) next() uint64 {
	z := r.state.Add(0x9e3779b97f4a7c15)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
