package chaos

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"priview/internal/core"
	"priview/internal/covering"
	"priview/internal/marginal"
	"priview/internal/reconstruct"
)

// faultPattern records which of n requests against a fresh transport
// draw an injected fault.
func faultPattern(t *testing.T, seed uint64, n int) []bool {
	t.Helper()
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer backend.Close()
	tr := NewTransport(seed)
	tr.ErrProb = 0.5
	hc := &http.Client{Transport: tr}
	out := make([]bool, n)
	for i := range out {
		resp, err := hc.Get(backend.URL)
		if err != nil {
			out[i] = true
			continue
		}
		if err := resp.Body.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func TestTransportDeterministic(t *testing.T) {
	a := faultPattern(t, 7, 32)
	b := faultPattern(t, 7, 32)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fault sequences diverge at request %d: same seed must inject identically", i)
		}
	}
	saw := map[bool]bool{}
	for _, v := range a {
		saw[v] = true
	}
	if !saw[true] || !saw[false] {
		t.Errorf("ErrProb=0.5 over 32 requests injected uniformly (%v); PRNG suspect", a)
	}
}

func TestTransportInjectedError(t *testing.T) {
	tr := NewTransport(1)
	tr.ErrProb = 1
	hc := &http.Client{Transport: tr}
	_, err := hc.Get("http://127.0.0.1:0/never-reached")
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if c := tr.Counts(); c.Errors != 1 || c.Forwards != 0 {
		t.Errorf("counts = %+v", c)
	}
}

func TestTransportStatusInjection(t *testing.T) {
	tr := NewTransport(1)
	tr.StatusProb = 1
	tr.RetryAfter = 1500 * time.Millisecond // rounds up to 2s
	hc := &http.Client{Transport: tr}
	resp, err := hc.Get("http://127.0.0.1:0/never-reached")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("status = %d, want 503 default", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "2" {
		t.Errorf("Retry-After = %q, want \"2\"", got)
	}
	if c := tr.Counts(); c.Statuses != 1 {
		t.Errorf("counts = %+v", c)
	}
}

func TestTransportLatencyHonorsContext(t *testing.T) {
	tr := NewTransport(1)
	tr.Latency = 10 * time.Second
	hc := &http.Client{Transport: tr}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://127.0.0.1:0/slow", nil)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := hc.Do(req); err == nil {
		t.Fatal("expected context error")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("latency sleep ignored cancellation: took %v", elapsed)
	}
}

// fakeQuerier answers every query with a fixed tiny table.
type fakeQuerier struct{}

func (fakeQuerier) QueryBatch(_ context.Context, reqs []core.BatchRequest, _ core.BatchOptions) ([]core.BatchResult, error) {
	out := make([]core.BatchResult, len(reqs))
	for i, r := range reqs {
		t := marginal.New(r.Attrs)
		t.Fill(1)
		out[i] = core.BatchResult{Table: t}
	}
	return out, nil
}
func (fakeQuerier) DefaultMethod() core.ReconstructMethod { return core.CME }
func (fakeQuerier) Epsilon() float64                      { return 1 }
func (fakeQuerier) Total() float64                        { return 1 }
func (fakeQuerier) Views() []*marginal.Table              { return nil }
func (fakeQuerier) Design() *covering.Design              { return nil }

func TestSlowSynopsisHonorsDeadline(t *testing.T) {
	slow := &SlowSynopsis{Querier: fakeQuerier{}, Delay: 10 * time.Second}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := slow.QueryBatch(ctx, []core.BatchRequest{{Attrs: []int{0}}}, core.BatchOptions{})
	if !errors.Is(err, reconstruct.ErrDeadline) {
		t.Fatalf("err = %v, want reconstruct.ErrDeadline", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("slow query ignored deadline: took %v", elapsed)
	}
}

func TestSlowSynopsisForwards(t *testing.T) {
	slow := &SlowSynopsis{Querier: fakeQuerier{}, Delay: time.Millisecond}
	res, err := slow.QueryBatch(context.Background(), []core.BatchRequest{{Attrs: []int{0, 1}}}, core.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res[0].Table; got.Size() != 4 {
		t.Errorf("forwarded table has %d cells, want 4", got.Size())
	}
}
