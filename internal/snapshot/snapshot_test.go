package snapshot

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"sync"
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
			if err != nil {
				continue
			}
			if d := sameRelease(s, loaded); d != "" {
				silent++
				t.Errorf("bit flip at byte %d bit %d silently changed the synopsis: %s", pos, bit, d)
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
		_, err := Decode(raw)
		if err == nil {
			t.Errorf("%s: accepted", name)
		} else if name != "bad checksum" && !errors.Is(err, ErrFormat) {
			t.Errorf("%s: err = %v, want ErrFormat", name, err)
		}
	}
	if _, err := Decode(cases["bad checksum"]); !errors.Is(err, ErrChecksum) {
		t.Errorf("bad checksum: err = %v, want ErrChecksum", err)
	}
}

// sha256Sum is "sha256:<hex>" over b exactly as given.
func sha256Sum(b []byte) string {
	sum := sha256.Sum256(b)
	return "sha256:" + hex.EncodeToString(sum[:])
}

// compactSum is the checksum's definition: sha256 over the payload as
// json.Compact returns it.
func compactSum(t testing.TB, payload []byte) string {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, payload); err != nil {
		t.Fatal(err)
	}
	return sha256Sum(buf.Bytes())
}

// container wraps payload in a v2 envelope whose header declares sum.
func container(payload []byte, sum string) []byte {
	return []byte(`{"format":"` + FormatV2 + `","checksum":"` + sum + `","payload":` + string(payload) + `}`)
}

// v1Payload is s's bare v1 document without its trailing newline.
func v1Payload(t testing.TB, s *core.Synopsis) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return bytes.TrimSpace(buf.Bytes())
}

// notedPayload prepends to a v1 document a string field that holds
// spaces and the escapes \t, \" and \\, the last one right before the
// closing quote.
func notedPayload(v1 []byte) []byte {
	return append([]byte(`{"note":"a \" b\\ c\td \\",`), v1[1:]...)
}

// indented re-indents a JSON document with json.Indent.
func indented(t testing.TB, doc []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Indent(&buf, doc, "", "\t"); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestChecksumOverCompactedPayload pins the checksum to its definition,
// sha256 over the json.Compact-ed payload, whether Decode hashes a
// payload in place or compacts it first.
func TestChecksumOverCompactedPayload(t *testing.T) {
	v1 := v1Payload(t, buildSyn(10))
	noted := notedPayload(v1)
	for name, payload := range map[string][]byte{
		"indented":     indented(t, v1),
		"string field": noted,
		// Whitespace only after the string: a hasher that loses track
		// of where the string ends would take the rest as compact.
		"string field, then a space": bytes.Replace(noted, []byte(`\\",`), []byte(`\\", `), 1),
		"indented string field":      indented(t, noted),
	} {
		if _, err := Decode(container(payload, compactSum(t, payload))); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}

	// Flipping a byte inside the string field — the space after "a" —
	// changes a byte the checksum covers.
	raw := container(noted, compactSum(t, noted))
	i := bytes.Index(raw, []byte(`"a `)) + 2
	raw[i] = '_'
	if _, err := Decode(raw); !errors.Is(err, ErrChecksum) {
		t.Errorf("flipped string byte: err = %v, want ErrChecksum", err)
	}

	// A checksum over the indented bytes, not compacted, is not the
	// definition.
	ind := indented(t, v1)
	if _, err := Decode(container(ind, sha256Sum(ind))); !errors.Is(err, ErrChecksum) {
		t.Errorf("checksum over uncompacted payload: err = %v, want ErrChecksum", err)
	}
}

// TestDecodeRepeatedChecksumKey: a repeated "checksum" key decodes as a
// string field does — a later string overwrites, a later null is
// ignored, and a non-string anywhere is a format error.
func TestDecodeRepeatedChecksumKey(t *testing.T) {
	v1 := v1Payload(t, buildSyn(12))
	good := `"checksum":"` + compactSum(t, v1) + `"`
	doc := func(keys string) []byte {
		return []byte(`{"format":"` + FormatV2 + `",` + keys + `,"payload":` + string(v1) + `}`)
	}
	for _, keys := range []string{`"checksum":"sha256:00",` + good, good + `,"checksum":null`} {
		if _, err := Decode(doc(keys)); err != nil {
			t.Errorf("%s: %v", keys, err)
		}
	}
	for _, keys := range []string{`"checksum":5,` + good, good + `,"checksum":[]`} {
		if _, err := Decode(doc(keys)); !errors.Is(err, ErrFormat) {
			t.Errorf("%s: err = %v, want ErrFormat", keys, err)
		}
	}
}

// TestReadBareV1StrayEnvelopeKeys: a v1 document's "checksum" and
// "payload" keys belong to no container, so any JSON value there is
// ignored.
func TestReadBareV1StrayEnvelopeKeys(t *testing.T) {
	v1 := v1Payload(t, buildSyn(11))
	for _, stray := range []string{`"checksum":5`, `"checksum":null`, `"payload":[1,{"a":"b"}]`, `"checksum":{},"payload":"x"`} {
		doc := append([]byte("{"+stray+","), v1[1:]...)
		if _, err := Decode(doc); err != nil {
			t.Errorf("v1 with %s rejected: %v", stray, err)
		}
	}
}

// referenceWrite is Write as encoding/json wrote it: the checksum over
// json.Compact's output, and the container encoded from a struct whose
// json.RawMessage payload the encoder compacts once more.
func referenceWrite(w io.Writer, s *core.Synopsis) error {
	var payload, compact bytes.Buffer
	if err := s.Save(&payload); err != nil {
		return err
	}
	if err := json.Compact(&compact, payload.Bytes()); err != nil {
		return err
	}
	env := struct {
		Format   string          `json:"format"`
		Checksum string          `json:"checksum"`
		Payload  json.RawMessage `json:"payload"`
	}{FormatV2, sha256Sum(compact.Bytes()), json.RawMessage(bytes.TrimSpace(payload.Bytes()))}
	return json.NewEncoder(w).Encode(&env)
}

// TestWriteMatchesEncodingJSON: Write's output is byte for byte what
// referenceWrite gives, on a small synopsis and the benchmark's release
// shape.
func TestWriteMatchesEncodingJSON(t *testing.T) {
	for name, s := range map[string]*core.Synopsis{"small": buildSyn(1), "bench release": benchRelease()} {
		var got, want bytes.Buffer
		if err := Write(&got, s); err != nil {
			t.Fatal(err)
		}
		if err := referenceWrite(&want, s); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: Write's %d bytes differ from encoding/json's %d", name, got.Len(), want.Len())
		}
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

// FuzzSnapshotLoad holds Decode to referenceDecode on every input:
// the same outcome class (loads, ErrFormat, ErrChecksum or a core
// error), the same core.Load error text, and the same synopsis when
// both load.
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
	noted := notedPayload(v1Payload(f, s))
	ind := indented(f, noted)
	f.Add(container(ind, compactSum(f, ind)))
	f.Add(container(noted, compactSum(f, noted)))
	f.Add([]byte(`{"format":"priview-synopsis-v2","checksum":"sha256:ff","payload":{}}`))
	f.Add([]byte("}{"))
	for _, path := range []string{
		filepath.Join("testdata", "v1-golden.json"),
		filepath.Join("..", "core", "testdata", "golden_synopsis.json"),
	} {
		golden, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(golden)
	}
	for _, q := range envelopeQuirks(f) {
		f.Add([]byte(q.doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		syn, err := Decode(data)
		ref, refErr := referenceDecode(data)
		if got, want := decodeOutcome(err), decodeOutcome(refErr); got != want {
			t.Fatalf("Decode: %s (%v), reference: %s (%v)", got, err, want, refErr)
		}
		// Both hand the same payload to core.Load.
		if decodeOutcome(refErr) == failsCore && err.Error() != refErr.Error() {
			t.Fatalf("Decode err = %v, reference err = %v", err, refErr)
		}
		if err == nil {
			if d := sameRelease(syn, ref); d != "" {
				t.Fatalf("Decode and reference differ: %s", d)
			}
		}
	})
}

// benchRelease is the benchmark's release shape, built in-process at a
// small N: ε = 1 over a C3(8,·) design on Kosarak's d = 32 attributes,
// 173 views.
var benchRelease = sync.OnceValue(func() *core.Synopsis {
	data := synth.Kosarak(2000, 1)
	dg := covering.Best(32, 8, 3, 1, 1)
	return core.BuildSynopsis(data, core.Config{Epsilon: 1, Design: dg}, noise.NewStream(1))
})

// BenchmarkDecode verifies and decodes the benchmark's release shape as
// a v2 snapshot.
func BenchmarkDecode(b *testing.B) {
	var buf bytes.Buffer
	if err := Write(&buf, benchRelease()); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if synopsisSink, err = Decode(buf.Bytes()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWrite writes the benchmark's release shape as a v2
// snapshot.
func BenchmarkWrite(b *testing.B) {
	s := benchRelease()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Write(io.Discard, s); err != nil {
			b.Fatal(err)
		}
	}
}

// synopsisSink keeps BenchmarkDecode's result live.
var synopsisSink *core.Synopsis
