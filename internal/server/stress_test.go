package server_test

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"priview/internal/admission"
	"priview/internal/server"
)

// TestStressConcurrentMixed fires parallel marginal requests — valid,
// invalid, and oversized — at a fully armed server (deadline + shedding
// + recovery) and asserts the status-code partitioning: valid requests
// draw 200 or, under saturation, 429; malformed and oversized requests
// draw 400 or 429 (shedding rejects before validation, by design — a
// saturated server spends no cycles parsing); nothing else appears.
// Run under -race this doubles as the data-race gate for the whole
// serving path.
func TestStressConcurrentMixed(t *testing.T) {
	s := serve(t, buildSynopsis(t), nil, server.Options{
		MaxK:         4,
		QueryTimeout: 10 * time.Second,
		Admission:    admission.Config{Limit: 4, MaxQueue: 4},
		Logger:       quietLogger(),
	})
	ts := httptest.NewServer(s)
	defer ts.Close()

	type probe struct {
		path  string
		valid bool
	}
	probes := []probe{
		{"/v1/marginal?attrs=0,1,2", true},
		{"/v1/marginal?attrs=3,4&method=CLN", true},
		{"/v1/marginal?attrs=0,4,8&method=CLP", true},
		{"/v1/marginal?attrs=2,6", true},
		{"/v1/marginal?attrs=0,x", false},       // malformed
		{"/v1/marginal?attrs=5,5", false},       // duplicate
		{"/v1/marginal?attrs=0,99", false},      // out of range
		{"/v1/marginal?attrs=0,1,2,3,5", false}, // oversized for MaxK=4
	}

	const workers = 16
	const perWorker = 8
	var (
		mu       sync.Mutex
		byStatus = map[int]int{}
		problems []string
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				p := probes[(w+i)%len(probes)]
				resp, err := http.Get(ts.URL + p.path)
				if err != nil {
					mu.Lock()
					problems = append(problems, fmt.Sprintf("%s: %v", p.path, err))
					mu.Unlock()
					continue
				}
				body, err := io.ReadAll(resp.Body)
				if cerr := resp.Body.Close(); err == nil {
					err = cerr
				}
				if err != nil {
					mu.Lock()
					problems = append(problems, fmt.Sprintf("%s: reading body: %v", p.path, err))
					mu.Unlock()
					continue
				}
				ok := false
				switch resp.StatusCode {
				case http.StatusOK:
					ok = p.valid
				case http.StatusBadRequest:
					ok = !p.valid
				case http.StatusTooManyRequests:
					ok = true // shedding may reject anything under load
				}
				mu.Lock()
				byStatus[resp.StatusCode]++
				if !ok {
					problems = append(problems, fmt.Sprintf("%s: status %d (valid=%v): %s", p.path, resp.StatusCode, p.valid, body))
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	for _, p := range problems {
		t.Error(p)
	}
	if byStatus[http.StatusOK] == 0 {
		t.Errorf("no request succeeded under load: %v", byStatus)
	}
	if byStatus[http.StatusBadRequest] == 0 {
		t.Errorf("no invalid request drew 400: %v", byStatus)
	}
	t.Logf("status distribution: %v", byStatus)
}
