// Package chaos provides deterministic fault injection for resilience
// testing of the PriView serving path. It offers two instruments:
//
//   - Transport, an http.RoundTripper that injects connection errors,
//     synthetic HTTP statuses, and latency in front of a real transport,
//     driven by a seeded PRNG so every run of a test observes the same
//     fault sequence;
//   - SlowSynopsis, a server.Querier wrapper that delays every marginal
//     query while honoring context cancellation, standing in for a
//     reconstruction too slow for its deadline.
//
// Determinism is the point: a chaos test that flakes is worse than no
// chaos test. Neither instrument draws from internal/noise — injected
// faults are not privacy-relevant randomness.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"priview/internal/core"
	"priview/internal/reconstruct"
	"priview/internal/server"
)

// ErrInjected is the connection-level failure Transport fabricates;
// tests assert on it with errors.Is.
var ErrInjected = errors.New("chaos: injected connection error")

// Transport is a fault-injecting http.RoundTripper. Probabilities are
// evaluated per request in order: connection error, then status
// injection, then latency + forwarding to the base transport. The
// zero value injects nothing and forwards to http.DefaultTransport.
type Transport struct {
	// Base performs real round trips (nil selects
	// http.DefaultTransport).
	Base http.RoundTripper
	// ErrProb is the probability of failing the request with
	// ErrInjected before it reaches the wire.
	ErrProb float64
	// StatusProb is the probability of answering with a synthetic
	// Status response instead of forwarding.
	StatusProb float64
	// Status is the synthetic status code (0 selects 503).
	Status int
	// RetryAfter, when positive, is written on synthetic responses as a
	// whole-seconds Retry-After header.
	RetryAfter time.Duration
	// Latency is added before every forwarded request, honoring the
	// request context (a canceled wait returns the context error).
	Latency time.Duration

	mu       sync.Mutex
	rng      uint64
	seeded   bool
	injected Injected
}

// Injected counts the faults a Transport has delivered.
type Injected struct {
	Errors   int // connection errors
	Statuses int // synthetic status responses
	Forwards int // requests forwarded to the base transport
}

// NewTransport returns a Transport with a deterministic fault sequence
// derived from seed. Configure the exported fields before first use.
func NewTransport(seed uint64) *Transport {
	t := &Transport{}
	t.seed(seed)
	return t
}

func (t *Transport) seed(seed uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rng = seed
	t.seeded = true
}

// next draws a uniform float64 in [0, 1) from the transport's splitmix64
// stream.
func (t *Transport) next() float64 {
	// Callers hold t.mu.
	if !t.seeded {
		t.rng = 1
		t.seeded = true
	}
	t.rng += 0x9e3779b97f4a7c15
	z := t.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

// Counts returns a snapshot of the fault counters.
func (t *Transport) Counts() Injected {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.injected
}

// RoundTrip implements http.RoundTripper.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.mu.Lock()
	draw := t.next()
	injectErr := t.ErrProb > 0 && draw < t.ErrProb
	injectStatus := !injectErr && t.StatusProb > 0 && draw < t.ErrProb+t.StatusProb
	switch {
	case injectErr:
		t.injected.Errors++
	case injectStatus:
		t.injected.Statuses++
	default:
		t.injected.Forwards++
	}
	t.mu.Unlock()

	if injectErr {
		return nil, fmt.Errorf("%w (%s %s)", ErrInjected, req.Method, req.URL.Path)
	}
	if injectStatus {
		status := t.Status
		if status == 0 {
			status = http.StatusServiceUnavailable
		}
		resp := &http.Response{
			StatusCode: status,
			Status:     fmt.Sprintf("%d %s", status, http.StatusText(status)),
			Proto:      "HTTP/1.1",
			ProtoMajor: 1,
			ProtoMinor: 1,
			Header:     make(http.Header),
			Body:       io.NopCloser(strings.NewReader("chaos: injected status")),
			Request:    req,
		}
		if t.RetryAfter > 0 {
			secs := int((t.RetryAfter + time.Second - 1) / time.Second)
			resp.Header.Set("Retry-After", strconv.Itoa(secs))
		}
		return resp, nil
	}
	if t.Latency > 0 {
		timer := time.NewTimer(t.Latency)
		defer timer.Stop()
		select {
		case <-timer.C:
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
	}
	base := t.Base
	if base == nil {
		base = http.DefaultTransport
	}
	return base.RoundTrip(req)
}

// SlowSynopsis wraps a server.Querier, delaying every marginal query by
// Delay while honoring context cancellation — the stand-in for a
// reconstruction that cannot meet its deadline. A batch of n queries
// waits n × Delay, the cost of solving them one after another.
// Cancellation surfaces through reconstruct.ContextErr, the same typed
// errors the real solvers return.
type SlowSynopsis struct {
	server.Querier
	// Delay is added per query in a batch.
	Delay time.Duration
}

// QueryBatch delays, then forwards to the wrapped synopsis.
func (s *SlowSynopsis) QueryBatch(ctx context.Context, reqs []core.BatchRequest, opt core.BatchOptions) ([]core.BatchResult, error) {
	if s.Delay > 0 {
		timer := time.NewTimer(s.Delay * time.Duration(len(reqs)))
		defer timer.Stop()
		select {
		case <-timer.C:
		case <-ctx.Done():
			return nil, reconstruct.ContextErr(ctx)
		}
	}
	return s.Querier.QueryBatch(ctx, reqs, opt)
}
