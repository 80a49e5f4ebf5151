package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"priview/internal/attrset"
	"priview/internal/core"
	"priview/internal/marginal"
)

// newClient is the load generator's HTTP client: at most `clients`
// keep-alive connections, so an open loop that outruns the server queues
// in the client and that wait is part of each request's latency.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     clients,
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		},
		Timeout: 60 * time.Second,
	}
}

// span is one request as the load generator saw it. Offsets are from the
// phase start; in a closed loop a request is due when it is sent.
type span struct {
	ID     int           `json:"id"`
	Due    time.Duration `json:"due_ns"`
	Sent   time.Duration `json:"sent_ns"`
	Done   time.Duration `json:"done_ns"`
	Status int           `json:"status"`
	Bytes  int           `json:"bytes"`
	ok     bool          // 200 with a body long enough to be an answer
	body   []byte        // kept for the oracle on every oracleEvery-th request
}

// latency is the request's time from when it was due; a failed request
// counts as +Inf, so it misses any latency limit.
func (s *span) latency() float64 {
	if !s.ok {
		return math.Inf(1)
	}
	return ms(s.Done - s.Due)
}

// phase is one measured (or priming) phase of a rep.
type phase struct {
	name  string
	dur   time.Duration
	reqs  []request
	spans []span
	cpu   time.Duration // load generator CPU over the phase
}

// send issues r and records the outcome into sp. The body is checked
// for status and length only; with keep it is also held for the oracle.
func send(c *http.Client, base string, r *request, start time.Time, sp *span, keep bool) {
	var req *http.Request
	var err error
	if r.body == nil {
		req, err = http.NewRequestWithContext(context.Background(), http.MethodGet, base+r.path, nil)
	} else {
		req, err = http.NewRequestWithContext(context.Background(), http.MethodPost, base+r.path, bytes.NewReader(r.body))
		req.Header.Set("Content-Type", "application/json")
	}
	sp.Sent = time.Since(start)
	if err != nil {
		sp.Done = sp.Sent
		return
	}
	resp, err := c.Do(req)
	if err != nil {
		sp.Done = time.Since(start)
		return
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	sp.Done = time.Since(start)
	sp.Status, sp.Bytes = resp.StatusCode, len(body)
	sp.ok = err == nil && resp.StatusCode == http.StatusOK && len(body) >= r.minLen &&
		bytes.HasSuffix(bytes.TrimSpace(body), []byte("}"))
	if sp.ok && keep {
		sp.body = body
	}
}

// runOpen sends p.reqs[i] at p.start+due[i] regardless of earlier
// responses (an open loop of independent users). Each request runs on
// its own goroutine; the client's connection cap is the only queue.
func runOpen(c *http.Client, base string, p *phase, due []time.Duration) {
	// The dispatcher keeps one thread, with the kernel's timer slack cut
	// from 50 µs to 1 ns, so each nanosleep ends when the request is due.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	// On failure the default slack stays: sends up to 50 µs late, not a
	// broken run.
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerslack, 1, 0)
	p.spans = make([]span, len(due))
	var wg sync.WaitGroup
	cpu0 := selfCPU()
	start := time.Now()
	for i := range due {
		for d := due[i] - time.Since(start); d > 0; d = due[i] - time.Since(start) {
			sleepPrecise(d)
		}
		p.spans[i] = span{ID: i, Due: due[i]}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			send(c, base, &p.reqs[i], start, &p.spans[i], i%oracleEvery == 0)
		}(i)
	}
	wg.Wait()
	p.cpu = selfCPU() - cpu0
}

const prSetTimerslack = 29 // PR_SET_TIMERSLACK, <linux/prctl.h>

// sleepPrecise blocks the calling thread in nanosleep(2). time.Sleep
// rounds sub-millisecond waits up to the runtime poller's 1 ms tick,
// which at 4,000 arrivals/s would make the generator, not the server,
// the median latency; nanosleep wakes within the thread's timer slack.
func sleepPrecise(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	//lint:ignore errdiscard EINTR only shortens the wait; the caller sleeps again until due
	_ = syscall.Nanosleep(&ts, nil)
}

// runClosed runs `clients` callers that each send their next request
// only after the previous answer, for p.dur, taking requests in order
// from p.reqs. A pool too small for the phase ends it early; the caller
// reports that, since the pool is sized from the workload's closedCap.
func runClosed(c *http.Client, base string, p *phase) (exhausted bool) {
	var next atomic.Int64
	var ranOut atomic.Bool
	per := make([][]span, clients)
	var wg sync.WaitGroup
	cpu0 := selfCPU()
	start := time.Now()
	for w := range per {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Since(start) < p.dur {
				i := int(next.Add(1) - 1)
				if i >= len(p.reqs) {
					ranOut.Store(true)
					return
				}
				sp := span{ID: i}
				send(c, base, &p.reqs[i], start, &sp, i%oracleEvery == 0)
				sp.Due = sp.Sent
				per[w] = append(per[w], sp)
			}
		}(w)
	}
	wg.Wait()
	p.cpu = selfCPU() - cpu0
	for _, s := range per {
		p.spans = append(p.spans, s...)
	}
	return ranOut.Load()
}

// runSequential sends p.reqs one at a time, keeping every body when
// keepAll. It drives the unmeasured steps: cache priming and the build
// workload's check that a fresh release serves correct answers.
func runSequential(c *http.Client, base string, p *phase, keepAll bool) {
	p.spans = make([]span, len(p.reqs))
	cpu0 := selfCPU()
	start := time.Now()
	for i := range p.reqs {
		sp := &p.spans[i]
		sp.ID = i
		send(c, base, &p.reqs[i], start, sp, keepAll)
		sp.Due = sp.Sent
	}
	p.cpu = selfCPU() - cpu0
}

// answer is one marginal as the server renders it.
type answer struct {
	Attrs    []int     `json:"attrs"`
	Total    float64   `json:"total"`
	Cells    []float64 `json:"cells"`
	Degraded bool      `json:"degraded"`
}

// oracle checks decoded answers against the bench's own copy of the
// served snapshot, queried in-process with the synopsis's default
// estimator — the same code path on the same views, so answers agree to
// rounding.
type oracle struct {
	ref  *core.Synopsis
	memo map[attrset.Set]*marginal.Table
}

func newOracle(ref *core.Synopsis) *oracle {
	return &oracle{ref: ref, memo: make(map[attrset.Set]*marginal.Table)}
}

// check decodes a sampled body of r and verifies every answer in it.
func (o *oracle) check(r *request, body []byte) error {
	var answers []answer
	if r.body == nil {
		var a answer
		if err := json.Unmarshal(body, &a); err != nil {
			return fmt.Errorf("%s: %w", r.path, err)
		}
		answers = []answer{a}
	} else {
		var b struct {
			Results []answer `json:"results"`
		}
		if err := json.Unmarshal(body, &b); err != nil {
			return fmt.Errorf("batch: %w", err)
		}
		answers = b.Results
	}
	if len(answers) != len(r.sets) {
		return fmt.Errorf("%d answers for %d queries", len(answers), len(r.sets))
	}
	for i, a := range answers {
		if err := o.compare(r.sets[i], a); err != nil {
			return fmt.Errorf("query %v: %w", r.sets[i], err)
		}
	}
	return nil
}

func (o *oracle) compare(attrs []int, a answer) error {
	if !slices.Equal(a.Attrs, attrs) {
		return fmt.Errorf("answered attrs %v", a.Attrs)
	}
	if len(a.Cells) != 1<<len(attrs) {
		return fmt.Errorf("%d cells, want %d", len(a.Cells), 1<<len(attrs))
	}
	if a.Degraded {
		return fmt.Errorf("degraded answer")
	}
	key := attrset.MustFromAttrs(attrs)
	want, ok := o.memo[key]
	if !ok {
		t, err := o.ref.QueryMethodContext(context.Background(), attrs, o.ref.DefaultMethod())
		if err != nil {
			return fmt.Errorf("reference: %w", err)
		}
		want = t
		o.memo[key] = t
	}
	tol := 1e-6 * math.Max(math.Abs(o.ref.Total()), 1)
	for i, v := range a.Cells {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("cell %d is %v", i, v)
		}
		if d := math.Abs(v - want.Cells[i]); !(d <= tol) {
			return fmt.Errorf("cell %d = %v, reference %v", i, v, want.Cells[i])
		}
	}
	return nil
}

// verify runs the oracle over a finished phase and returns the number
// of requests that failed: transport errors, non-200s, short bodies, and
// sampled answers that disagree with the reference.
func (o *oracle) verify(p *phase) (failed int, errs []error) {
	for i := range p.spans {
		sp := &p.spans[i]
		if !sp.ok {
			failed++
			if len(errs) < 3 {
				errs = append(errs, fmt.Errorf("%s request %d: status %d, %d bytes", p.name, sp.ID, sp.Status, sp.Bytes))
			}
			continue
		}
		if sp.body == nil {
			continue
		}
		if err := o.check(&p.reqs[sp.ID], sp.body); err != nil {
			sp.ok = false
			failed++
			errs = append(errs, fmt.Errorf("%s request %d: %w", p.name, sp.ID, err))
		}
		sp.body = nil
	}
	return failed, errs
}
