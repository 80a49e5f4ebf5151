package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"priview/internal/covering"
	"priview/internal/dataset/synth"
	"priview/internal/marginal"
	"priview/internal/noise"
	"priview/internal/reconstruct"
)

func buildSmall(t *testing.T, seed int64) *Synopsis {
	t.Helper()
	data := synth.MSNBC(2000, seed)
	dg := covering.Groups(9, 4)
	return BuildSynopsis(data, Config{Epsilon: 1, Design: dg}, noise.NewStream(seed))
}

func TestSaveRejectsNonFinite(t *testing.T) {
	cases := map[string]func(s *Synopsis){
		"nan cell":  func(s *Synopsis) { s.views[0].Cells[0] = math.NaN() },
		"+inf cell": func(s *Synopsis) { s.views[1].Cells[2] = math.Inf(1) },
		"-inf cell": func(s *Synopsis) { s.views[0].Cells[1] = math.Inf(-1) },
		"nan total": func(s *Synopsis) { s.total = math.NaN() },
	}
	for name, poison := range cases {
		s := buildSmall(t, 11)
		poison(s)
		var buf bytes.Buffer
		err := s.Save(&buf)
		if !errors.Is(err, ErrNonFinite) {
			t.Errorf("%s: Save err = %v, want ErrNonFinite", name, err)
		}
		if buf.Len() != 0 {
			t.Errorf("%s: Save wrote %d bytes before failing", name, buf.Len())
		}
	}
}

func TestLoadRejectsMalformedDocuments(t *testing.T) {
	view := func(attrs string, n int) string {
		cells := make([]string, n)
		for i := range cells {
			cells[i] = "1"
		}
		return fmt.Sprintf(`{"attrs":[%s],"cells":[%s]}`, attrs, strings.Join(cells, ","))
	}
	doc := func(body string) string {
		return `{"format":"priview-synopsis-v1","epsilon":1,"total":16,` + body + `}`
	}
	cases := map[string]string{
		"unsorted attrs":       doc(`"views":[` + view("1,0", 4) + `]`),
		"duplicate attr":       doc(`"views":[` + view("0,0", 4) + `]`),
		"negative attr":        doc(`"views":[` + view("-1,0", 4) + `]`),
		"attr beyond 64":       doc(`"views":[` + view("0,64", 4) + `]`),
		"duplicate views":      doc(`"views":[` + view("0,1", 4) + `,` + view("0,1", 4) + `]`),
		"cell count mismatch":  doc(`"views":[` + view("0,1,2", 4) + `]`),
		"negative epsilon":     `{"format":"priview-synopsis-v1","epsilon":-1,"total":16,"views":[` + view("0", 2) + `]}`,
		"attr outside design":  doc(`"design":{"d":2,"t":1,"l":1,"blocks":[[0],[1]]},"views":[` + view("0,5", 4) + `]`),
		"design attr range":    doc(`"design":{"d":3,"t":1,"l":1,"blocks":[[0,7]]},"views":[` + view("0,1", 4) + `]`),
		"design unsorted":      doc(`"design":{"d":3,"t":1,"l":1,"blocks":[[2,1]]},"views":[` + view("0,1", 4) + `]`),
		"design negative dim":  doc(`"design":{"d":-4,"t":1,"l":1,"blocks":[[0]]},"views":[` + view("0,1", 4) + `]`),
		"design dim beyond 64": doc(`"design":{"d":900,"t":1,"l":1,"blocks":[[0]]},"views":[` + view("0,1", 4) + `]`),
	}
	for name, raw := range cases {
		if _, err := Load([]byte(raw)); err == nil {
			t.Errorf("%s: Load accepted malformed document", name)
		}
	}
}

// TestLoadRejectsHugeAttrListCheaply feeds a view claiming 31 attributes
// with only a handful of cells; Load must reject it without attempting
// the 2^31-cell allocation the attrs list implies.
func TestLoadRejectsHugeAttrListCheaply(t *testing.T) {
	attrs := make([]string, 31)
	for i := range attrs {
		attrs[i] = fmt.Sprint(i)
	}
	raw := `{"format":"priview-synopsis-v1","epsilon":1,"total":1,"views":[{"attrs":[` +
		strings.Join(attrs, ",") + `],"cells":[1,2,3]}]}`
	if _, err := Load([]byte(raw)); err == nil {
		t.Fatal("Load accepted a 31-attribute view")
	}
}

// TestLoadZeroDesignIsNil checks that a document without a design block
// (or with the zero design an old Save produced for design-less
// synopses) loads with Design() == nil rather than an unusable
// zero-dimensional design.
func TestLoadZeroDesignIsNil(t *testing.T) {
	raw := `{"format":"priview-synopsis-v1","epsilon":1,"total":4,` +
		`"views":[{"attrs":[0,1],"cells":[1,1,1,1]}]}`
	s, err := Load([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	if s.Design() != nil {
		t.Fatalf("Design() = %+v, want nil", s.Design())
	}
	got := s.Query([]int{0})
	if got == nil || !reconstruct.FiniteTable(got) {
		t.Fatalf("query on design-less synopsis: %v", got)
	}
}

// TestQueryDegradesOnPoisonedView is the heart of the robustness
// contract: after a view is poisoned with NaN, queries return a finite
// fallback answer together with an error matching
// reconstruct.ErrNumerical — never a NaN marginal, never a hard
// failure.
func TestQueryDegradesOnPoisonedView(t *testing.T) {
	for _, method := range []ReconstructMethod{CME, CMEDual, CLN, CLP} {
		s := buildSmall(t, 7)
		// Poison every cell of one view so that any query touching it
		// must detect the damage.
		for i := range s.views[0].Cells {
			s.views[0].Cells[i] = math.NaN()
		}
		attrs := append([]int(nil), s.views[0].Attrs[:2]...)
		table, err := s.QueryMethodContext(context.Background(), attrs, method)
		if !errors.Is(err, reconstruct.ErrNumerical) {
			t.Errorf("%v: err = %v, want ErrNumerical", method, err)
		}
		if table == nil {
			t.Fatalf("%v: no fallback table", method)
		}
		if !reconstruct.FiniteTable(table) {
			t.Errorf("%v: fallback table has non-finite cells: %v", method, table.Cells)
		}
		if table.Total() < 0 {
			t.Errorf("%v: fallback total %v < 0", method, table.Total())
		}
	}
}

// TestQueryDegradesWhenAllViewsPoisoned exercises the last resort: with
// every view poisoned there are no usable constraints, and the answer
// must still be a finite (uniform) table plus ErrNumerical.
func TestQueryDegradesWhenAllViewsPoisoned(t *testing.T) {
	s := buildSmall(t, 9)
	for _, v := range s.views {
		for i := range v.Cells {
			v.Cells[i] = math.NaN()
		}
	}
	s.total = math.NaN()
	table, err := s.QueryMethodContext(context.Background(), []int{0, 1}, CME)
	if !errors.Is(err, reconstruct.ErrNumerical) {
		t.Fatalf("err = %v, want ErrNumerical", err)
	}
	if table == nil || !reconstruct.FiniteTable(table) {
		t.Fatalf("want finite fallback table, got %v", table)
	}
}

// TestQueryCleanSynopsisNotDegraded proves the degradation path stays
// dormant on healthy synopses: no error, finite answer.
func TestQueryCleanSynopsisNotDegraded(t *testing.T) {
	s := buildSmall(t, 13)
	for _, method := range []ReconstructMethod{CME, CMEDual, CLN} {
		table, err := s.QueryMethodContext(context.Background(), []int{0, 3, 6}, method)
		if err != nil {
			t.Errorf("%v: unexpected error %v", method, err)
		}
		if table == nil || !reconstruct.FiniteTable(table) {
			t.Errorf("%v: bad table %v", method, table)
		}
	}
}

// TestFallbackChain pins the estimators each method degrades through.
// CME-dual appears only when requested: it solves CME's problem, so it
// is no fallback for a served method.
func TestFallbackChain(t *testing.T) {
	for method, want := range map[ReconstructMethod][]ReconstructMethod{
		CME:     {CME, CLN},
		CLN:     {CLN, CME},
		LP:      {LP, CME, CLN},
		CLP:     {CLP, CME, CLN},
		CMEDual: {CMEDual, CME, CLN},
	} {
		if got := fallbackChain(method); !slices.Equal(got, want) {
			t.Errorf("fallbackChain(%v) = %v, want %v", method, got, want)
		}
	}
}

// TestSaveLoadStillRoundTripsAfterHardening guards against the
// validation rejecting real synopses.
func TestSaveLoadStillRoundTripsAfterHardening(t *testing.T) {
	s := buildSmall(t, 21)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	a, b := s.Query([]int{0, 2}), loaded.Query([]int{0, 2})
	if !marginal.Equal(a, b, 1e-9) {
		t.Fatal("round-tripped query differs")
	}
}
