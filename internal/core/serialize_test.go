package core

import (
	"bytes"
	"testing"

	"priview/internal/covering"
	"priview/internal/dataset/synth"
	"priview/internal/marginal"
	"priview/internal/noise"
)

func TestSynopsisRoundTrip(t *testing.T) {
	data := synth.MSNBC(5000, 1)
	dg := covering.Groups(9, 6)
	orig := BuildSynopsis(data, Config{Epsilon: 1, Design: dg}, noise.NewStream(2))

	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Total() != orig.Total() {
		t.Errorf("total %v != %v", loaded.Total(), orig.Total())
	}
	// Queries must agree exactly: the loaded views are identical and
	// reconstruction is deterministic.
	for _, attrs := range [][]int{{0, 1}, {0, 4, 8}, {2, 5, 7}} {
		a := orig.Query(attrs)
		b := loaded.Query(attrs)
		if !marginal.Equal(a, b, 1e-9) {
			t.Errorf("query %v differs after round trip", attrs)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"{}",
		`{"format":"wrong"}`,
		`{"format":"priview-synopsis-v1","views":[]}`,
		`{"format":"priview-synopsis-v1","views":[{"attrs":[0,1],"cells":[1]}]}`,
	}
	for _, c := range cases {
		if _, err := Load([]byte(c)); err == nil {
			t.Errorf("Load(%q) succeeded, want error", c)
		}
	}
}

func TestQueryMethodAfterLoad(t *testing.T) {
	data := synth.MSNBC(5000, 3)
	dg := covering.Groups(9, 4)
	orig := BuildSynopsis(data, Config{Epsilon: 1, Design: dg}, noise.NewStream(4))
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	got := loaded.QueryMethod([]int{0, 3, 6, 8}, CLN)
	if got.Size() != 16 {
		t.Errorf("size = %d", got.Size())
	}
}
