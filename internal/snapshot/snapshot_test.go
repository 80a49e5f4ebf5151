package snapshot

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"priview/internal/core"
	"priview/internal/covering"
	"priview/internal/dataset/synth"
	"priview/internal/marginal"
	"priview/internal/noise"
)

func buildSyn(seed int64) *core.Synopsis {
	data := synth.MSNBC(1000, seed)
	dg := covering.Groups(9, 4)
	return core.BuildSynopsis(data, core.Config{Epsilon: 1, Design: dg}, noise.NewStream(seed))
}

func TestV2RoundTrip(t *testing.T) {
	s := buildSyn(1)
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	loaded, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for _, attrs := range [][]int{{0, 1}, {2, 5, 7}} {
		if !marginal.Equal(s.Query(attrs), loaded.Query(attrs), 1e-9) {
			t.Errorf("query %v differs after v2 round trip", attrs)
		}
	}
}

// sameSynopsis compares two synopses exactly (zero tolerance): any
// accepted corruption that alters content must trip this.
func sameSynopsis(a, b *core.Synopsis) bool {
	if len(a.Views()) != len(b.Views()) {
		return false
	}
	av, bv := a.Views(), b.Views()
	for i := range av {
		if !marginal.Equal(av[i], bv[i], 0) {
			return false
		}
	}
	return marginal.Equal(
		marginal.Uniform([]int{0}, a.Total()),
		marginal.Uniform([]int{0}, b.Total()), 0)
}

// TestChecksumDetectsBitFlips flips bits across the serialized
// container and asserts that no flip can silently change the decoded
// synopsis: every mutation is either rejected (checksum, JSON parse or
// validation failure) or provably content-preserving (e.g. JSON's
// case-insensitive key matching tolerating a case flip in "format").
func TestChecksumDetectsBitFlips(t *testing.T) {
	s := buildSyn(2)
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	step := 1
	if len(raw) > 2048 {
		step = len(raw) / 2048
	}
	silent := 0
	for pos := 0; pos < len(raw); pos += step {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), raw...)
			mut[pos] ^= 1 << uint(bit)
			if bytes.Equal(mut, raw) {
				continue
			}
			loaded, err := Decode(mut)
			if err == nil && !sameSynopsis(s, loaded) {
				silent++
				t.Errorf("bit flip at byte %d bit %d silently changed the synopsis", pos, bit)
				if silent > 5 {
					t.Fatal("too many silent corruptions")
				}
			}
		}
	}
}

func TestReadBareV1(t *testing.T) {
	s := buildSyn(3)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("bare v1 rejected: %v", err)
	}
	if !marginal.Equal(s.Query([]int{0, 1}), loaded.Query([]int{0, 1}), 1e-9) {
		t.Error("v1 query differs")
	}
}

// TestGoldenV1Compat pins byte-for-byte stability of the v1 format:
// the checked-in golden file must load, and saving what was loaded must
// reproduce it exactly. If this fails, the on-disk format changed —
// readers in the wild would break. Build determinism (the same seed
// giving the same synopsis) is a separate property, pinned by
// internal/core's golden synopsis test.
func TestGoldenV1Compat(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "v1-golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Read(bytes.NewReader(golden))
	if err != nil {
		t.Fatalf("golden v1 file rejected: %v", err)
	}
	var buf bytes.Buffer
	if err := loaded.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), golden) {
		t.Fatalf("v1 serialization changed: re-saved %d bytes != golden %d bytes", buf.Len(), len(golden))
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":         nil,
		"not json":      []byte("hello"),
		"wrong format":  []byte(`{"format":"priview-synopsis-v9"}`),
		"empty payload": []byte(`{"format":"priview-synopsis-v2","checksum":"sha256:00"}`),
		"bad checksum": []byte(`{"format":"priview-synopsis-v2","checksum":"sha256:deadbeef",` +
			`"payload":{"format":"priview-synopsis-v1","epsilon":1,"total":2,"views":[{"attrs":[0],"cells":[1,1]}]}}`),
	}
	for name, raw := range cases {
		if _, err := Decode(raw); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := Decode(cases["bad checksum"]); !errors.Is(err, ErrChecksum) {
		t.Errorf("bad checksum: err = %v, want ErrChecksum", err)
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "syn.json")
	s := buildSyn(4)
	if err := WriteFile(OS{}, path, s); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFileFS(OS{}, path); err != nil {
		t.Fatal(err)
	}
	// Overwrite with a second synopsis; no temp files may remain.
	if err := WriteFile(OS{}, path, buildSyn(5)); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory has %d entries, want only the snapshot", len(entries))
	}
}

func TestStoreRotation(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 5; i++ {
		if _, err := st.Save(buildSyn(i)); err != nil {
			t.Fatal(err)
		}
	}
	names, err := st.Snapshots()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 3 {
		t.Fatalf("store kept %d snapshots, want 3: %v", len(names), names)
	}
	if names[0] != "snapshot-000005.json" {
		t.Fatalf("newest = %s", names[0])
	}
	res, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(res.Path) != "snapshot-000005.json" {
		t.Fatalf("loaded %s, want newest", res.Path)
	}
	if res.Report == nil || !res.Report.OK() {
		t.Fatalf("audit report: %v", res.Report)
	}
}

func TestStoreQuarantinesCorruptAndFallsBack(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := buildSyn(7)
	if _, err := st.Save(want); err != nil {
		t.Fatal(err)
	}
	newest, err := st.Save(buildSyn(8))
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the newest snapshot: truncate it mid-payload (a torn
	// write that escaped the atomic protocol, e.g. disk corruption).
	raw, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newest, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := st.Load()
	if err != nil {
		t.Fatalf("Load failed despite a good older snapshot: %v", err)
	}
	if filepath.Base(res.Path) != "snapshot-000001.json" {
		t.Fatalf("loaded %s, want the older good snapshot", res.Path)
	}
	if len(res.Quarantined) != 1 {
		t.Fatalf("quarantined %v, want exactly the corrupt file", res.Quarantined)
	}
	if _, err := os.Stat(newest + ".corrupt"); err != nil {
		t.Fatalf("corrupt file not renamed aside: %v", err)
	}
	if !marginal.Equal(want.Query([]int{0, 1}), res.Synopsis.Query([]int{0, 1}), 1e-9) {
		t.Error("fallback synopsis differs from what was saved")
	}
	// A second load must not re-trip over the quarantined file.
	if res2, err := st.Load(); err != nil || len(res2.Quarantined) != 0 {
		t.Fatalf("second load: res=%+v err=%v", res2, err)
	}
}

func TestStoreAllCorrupt(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	path, err := st.Save(buildSyn(9))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load(); err == nil {
		t.Fatal("Load succeeded with only a corrupt snapshot")
	}
}

// FuzzSnapshotLoad asserts Decode never panics, whatever the bytes.
func FuzzSnapshotLoad(f *testing.F) {
	s := buildSyn(6)
	var v2, v1 bytes.Buffer
	if err := Write(&v2, s); err != nil {
		f.Fatal(err)
	}
	if err := s.Save(&v1); err != nil {
		f.Fatal(err)
	}
	f.Add(v2.Bytes())
	f.Add(v1.Bytes())
	f.Add([]byte(`{"format":"priview-synopsis-v2","checksum":"sha256:ff","payload":{}}`))
	f.Add([]byte("}{"))
	f.Fuzz(func(t *testing.T, data []byte) {
		syn, err := Decode(data)
		if err == nil && syn == nil {
			t.Fatal("nil synopsis without error")
		}
	})
}
