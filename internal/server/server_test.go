package server

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"priview/internal/core"
	"priview/internal/covering"
	"priview/internal/dataset/synth"
	"priview/internal/noise"
)

func testServer(t *testing.T) (*Multi, *core.Synopsis) {
	t.Helper()
	data := synth.MSNBC(5000, 1)
	dg := covering.Groups(9, 6)
	syn := core.BuildSynopsis(data, core.Config{Epsilon: 1, Design: dg}, noise.NewStream(2))
	return serveOne(syn, Options{}), syn
}

func get(t *testing.T, s *Multi, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

func TestHealth(t *testing.T) {
	s, _ := testServer(t)
	rec := get(t, s, "/healthz")
	if rec.Code != http.StatusOK {
		t.Errorf("status = %d", rec.Code)
	}
}

func TestInfo(t *testing.T) {
	s, syn := testServer(t)
	rec := get(t, s, "/v1/info")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var info struct {
		Epsilon float64 `json:"epsilon"`
		D       int     `json:"d"`
		Design  string  `json:"design"`
		Views   int     `json:"views"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info.Epsilon != 1 || info.D != 9 || info.Design != "C2(6,3)" || info.Views != len(syn.Views()) {
		t.Errorf("info = %+v", info)
	}
}

func TestMarginalQuery(t *testing.T) {
	s, syn := testServer(t)
	rec := get(t, s, "/v1/marginal?attrs=0,4,8")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var resp struct {
		Attrs  []int     `json:"attrs"`
		Method string    `json:"method"`
		Cells  []float64 `json:"cells"`
		Total  float64   `json:"total"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Cells) != 8 || resp.Method != "CME" {
		t.Errorf("resp = %+v", resp)
	}
	// Must match a direct query exactly (serving is pure
	// post-processing).
	direct := syn.Query([]int{0, 4, 8})
	for i := range direct.Cells {
		if math.Abs(direct.Cells[i]-resp.Cells[i]) > 1e-9 {
			t.Errorf("cell %d: HTTP %v vs direct %v", i, resp.Cells[i], direct.Cells[i])
		}
	}
}

func TestMarginalMethodSelection(t *testing.T) {
	s, _ := testServer(t)
	// The four served estimators, case-insensitively.
	accepted := map[string]string{
		"CME": "CME",
		"cme": "CME",
		"CLN": "CLN",
		"LP":  "LP",
		"CLP": "CLP",
	}
	for m, want := range accepted {
		rec := get(t, s, "/v1/marginal?attrs=0,5&method="+m)
		if rec.Code != http.StatusOK {
			t.Errorf("method %s: status %d: %s", m, rec.Code, rec.Body.String())
			continue
		}
		var resp struct {
			Method string `json:"method"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Method != want {
			t.Errorf("method %s: served as %q, want %q", m, resp.Method, want)
		}
	}
	// CME-dual names no estimator, in either spelling.
	for _, m := range []string{"nope", "CME-dual", "CMEDUAL"} {
		rec := get(t, s, "/v1/marginal?attrs=0,5&method="+m)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("method %s accepted: %d", m, rec.Code)
		}
		if got := strings.TrimSpace(rec.Body.String()); got != "unknown method (want CME, CLN, LP or CLP)" {
			t.Errorf("method %s: error text = %q must name every accepted method", m, got)
		}
	}
}

func TestMarginalValidation(t *testing.T) {
	s, _ := testServer(t)
	cases := map[string]string{
		"missing attrs":  "/v1/marginal",
		"bad attr":       "/v1/marginal?attrs=0,x",
		"duplicate":      "/v1/marginal?attrs=3,3",
		"out of range":   "/v1/marginal?attrs=0,99",
		"unknown method": "/v1/marginal?attrs=0&method=nope",
	}
	for name, path := range cases {
		if rec := get(t, s, path); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, rec.Code)
		}
	}
}

func TestMarginalMaxK(t *testing.T) {
	data := synth.MSNBC(2000, 2)
	dg := covering.Groups(9, 6)
	syn := core.BuildSynopsis(data, core.Config{Epsilon: 1, Design: dg}, noise.NewStream(3))
	s := serveOne(syn, Options{MaxK: 2})
	if rec := get(t, s, "/v1/marginal?attrs=0,1,2"); rec.Code != http.StatusBadRequest {
		t.Errorf("k=3 accepted with maxK=2: %d", rec.Code)
	}
	if rec := get(t, s, "/v1/marginal?attrs=0,1"); rec.Code != http.StatusOK {
		t.Errorf("k=2 rejected: %d", rec.Code)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	s, _ := testServer(t)
	req := httptest.NewRequest(http.MethodPost, "/v1/marginal?attrs=0", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST status = %d", rec.Code)
	}
}

func TestConcurrentQueries(t *testing.T) {
	s, _ := testServer(t)
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			paths := []string{
				"/v1/marginal?attrs=0,1,2",
				"/v1/marginal?attrs=3,4&method=CLN",
				"/v1/marginal?attrs=0,4,8&method=CLP",
				"/v1/info",
			}
			rec := get(t, s, paths[i%len(paths)])
			if rec.Code != http.StatusOK {
				errs <- rec.Body.String()
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Errorf("concurrent request failed: %s", e)
	}
}

// TestOneReleaseRoutes: a router whose default release is
// DefaultRelease serves it on the unprefixed routes, on /v1/default/…,
// and in /v1/releases; any other release name is unknown.
func TestOneReleaseRoutes(t *testing.T) {
	s, _ := testServer(t)
	for path, want := range map[string]int{
		"/readyz":                        http.StatusOK,
		"/v1/default/marginal?attrs=0,1": http.StatusOK,
		"/v1/default/info":               http.StatusOK,
		"/v1/default/stats":              http.StatusOK,
		"/v1/other/marginal?attrs=0,1":   http.StatusNotFound,
		"/v1/other/info":                 http.StatusNotFound,
		"/v1/other/stats":                http.StatusNotFound,
	} {
		if rec := get(t, s, path); rec.Code != want {
			t.Errorf("GET %s = %d, want %d: %s", path, rec.Code, want, rec.Body.String())
		}
	}
	rec := get(t, s, "/v1/releases")
	var releases struct {
		Default  string   `json:"default"`
		Releases []string `json:"releases"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &releases); err != nil {
		t.Fatal(err)
	}
	if releases.Default != DefaultRelease || len(releases.Releases) != 1 || releases.Releases[0] != DefaultRelease {
		t.Errorf("/v1/releases = %+v, want the one release %q as default", releases, DefaultRelease)
	}
}
