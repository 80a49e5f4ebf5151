package snapshot

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"priview/internal/core"
)

// quirkPayload is a small valid v1 document.
const quirkPayload = `{"format":"priview-synopsis-v1","epsilon":1,"total":4,` +
	`"design":{"d":3,"t":1,"l":2,"blocks":[[0,1],[1,2]]},` +
	`"views":[{"attrs":[0,1],"cells":[1,1,1,1]},{"attrs":[1,2],"cells":[2,0,1,1]}]}`

// Outcome classes of Decode.
const (
	loads         = "loads"
	failsFormat   = "ErrFormat"
	failsChecksum = "ErrChecksum"
	failsCore     = "core"
)

// decodeOutcome classifies Decode's error.
func decodeOutcome(err error) string {
	switch {
	case err == nil:
		return loads
	case errors.Is(err, ErrFormat):
		return failsFormat
	case errors.Is(err, ErrChecksum):
		return failsChecksum
	case strings.HasPrefix(err.Error(), "core: "):
		return failsCore
	}
	return err.Error()
}

// envelopeQuirk is one input and Decode's outcome class for it.
type envelopeQuirk struct {
	name string
	doc  string
	want string
}

// envelopeQuirks are the rules by which encoding/json's Unmarshal
// decodes a v2 envelope, which Decode keeps. Every input that loads
// decodes to quirkPayload's synopsis.
func envelopeQuirks(t testing.TB) []envelopeQuirk {
	sum := compactSum(t, []byte(quirkPayload))
	v2 := func(body string) string { return "{" + body + "}" }
	good := `"format":"priview-synopsis-v2","checksum":"` + sum + `"`
	ind := string(indented(t, []byte(quirkPayload)))
	// A payload that is valid JSON but fails core's decoding, and a
	// valid synopsis other than quirkPayload's.
	typeErr := strings.Replace(quirkPayload, `[1,1,1,1]`, `[{}]`, 1)
	typeErrInd := string(indented(t, []byte(typeErr)))
	other := strings.Replace(quirkPayload, `"total":4`, `"total":5`, 1)
	// A payload holding n nested arrays, the deepest n + 2 levels into
	// the container.
	deep := func(n int) string {
		return `{"x":` + strings.Repeat("[", n) + strings.Repeat("]", n) + "," + quirkPayload[1:]
	}
	return []envelopeQuirk{
		{"container", v2(good + `,"payload":` + quirkPayload), loads},
		{"keys in other cases", v2(`"FORMAT":"priview-synopsis-v2","Checksum":"` + sum + `","Payload":` + quirkPayload), loads},
		{"Kelvin sign in a key", v2("\"format\":\"priview-synopsis-v2\",\"chec\u212asum\":\"" + sum + `","payload":` + quirkPayload), loads},
		{"escaped format", v2(`"format":"priview-synopsis-\u00762","checksum":"` + sum + `","payload":` + quirkPayload), loads},
		{"escaped checksum", v2(`"format":"priview-synopsis-v2","checksum":"sha\u0032\u0035\u0036\u003a` + sum[len("sha256:"):] + `","payload":` + quirkPayload), loads},
		{"null payload", v2(`"format":"priview-synopsis-v2","checksum":"` + sha256Sum([]byte("null")) + `","payload":null`), failsCore},
		{"null payload, payload's checksum", v2(good + `,"payload":null`), failsChecksum},
		{"absent payload", v2(good), failsFormat},
		{"string payload", v2(`"format":"priview-synopsis-v2","checksum":"` + sha256Sum([]byte(`"x"`)) + `","payload":"x"`), failsCore},
		{"indented payload", v2(good + `,"payload":` + ind), loads},
		{"indented envelope", " {\n\t" + good + ",\r\n\"payload\" : " + quirkPayload + "\n}\n", loads},
		{"repeated payload, last wins", v2(good + `,"payload":{},"payload":` + quirkPayload), loads},
		{"repeated payload, last is wrong", v2(good + `,"payload":` + quirkPayload + `,"payload":{}`), failsChecksum},
		{"repeated format", v2(`"format":"x",` + good + `,"payload":` + quirkPayload), loads},
		{"null format", v2(good + `,"format":null,"payload":` + quirkPayload), loads},
		{"number format", v2(good + `,"format":2,"payload":` + quirkPayload), failsFormat},
		{"unknown key", v2(good + `,"note":[{"a":null}],"payload":` + quirkPayload), loads},
		{"invalid unknown value", v2(good + `,"note":[1,],"payload":` + quirkPayload), failsFormat},
		{"invalid payload", v2(good + `,"payload":{"a":01}`), failsFormat},
		{"trailing whitespace", v2(good+`,"payload":`+quirkPayload) + " \t\r\n", loads},
		{"trailing garbage", v2(good+`,"payload":`+quirkPayload) + " x", failsFormat},
		{"two documents", v2(good+`,"payload":`+quirkPayload) + "{}", failsFormat},
		{"bare v1", quirkPayload, loads},
		{"bare v1, trailing garbage", quirkPayload + "]", failsFormat},
		{"bare v1, number format", `{"format":1,` + quirkPayload[1:], failsFormat},
		{"bare v1, invalid view", strings.Replace(quirkPayload, `[1,1,1,1]`, `[1,1,1]`, 1), failsCore},
		{"empty", "", failsFormat},
		{"null", "null", failsFormat},
		{"array", "[" + quirkPayload + "]", failsFormat},
		{"nesting 10001", v2(good + `,"x":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `,"payload":` + quirkPayload), failsFormat},
		// A payload core cannot decode fails after the checksum, with
		// core.Load's error for the payload alone.
		{"payload type error", v2(`"format":"priview-synopsis-v2","checksum":"` + compactSum(t, []byte(typeErr)) + `","payload":` + typeErr), failsCore},
		{"payload type error, wrong checksum", v2(good + `,"payload":` + typeErr), failsChecksum},
		{"indented payload type error", v2(`"format":"priview-synopsis-v2","checksum":"` + compactSum(t, []byte(typeErr)) + `","payload":` + typeErrInd), failsCore},
		{"repeated payload, first has a type error", v2(good + `,"payload":` + typeErr + `,"payload":` + quirkPayload), loads},
		{"repeated payload, last is empty", v2(`"format":"priview-synopsis-v2","checksum":"` + sha256Sum([]byte("{}")) + `","payload":` + quirkPayload + `,"payload":{}`), failsCore},
		{"bare v1, stray payload", `{"payload":` + other + "," + quirkPayload[1:], loads},
		{"nesting 10000 in the payload", v2(`"format":"priview-synopsis-v2","checksum":"` + compactSum(t, []byte(deep(9998))) + `","payload":` + deep(9998)), loads},
		{"nesting 10001 in the payload", v2(good + `,"payload":` + deep(9999)), failsFormat},
		// Where Write puts the payload Decode hashes it while it decodes,
		// and uses that sum only when the payload decoded is exactly
		// those bytes; every other layout is hashed afterwards.
		{"whitespace before the closing brace", v2(good + `,"payload":` + quirkPayload + " \t"), loads},
		{"newline before the closing brace", v2(good+`,"payload":`+quirkPayload+"\n") + "\n", loads},
		{"indented container", string(indented(t, []byte(v2(good+`,"payload":`+quirkPayload)))), loads},
		{"payload first", v2(`"payload":` + quirkPayload + "," + good), loads},
		{"payload first, wrong checksum", v2(`"payload":` + other + "," + good), failsChecksum},
		{"repeated payload, both the same", v2(good + `,"payload":` + quirkPayload + `,"payload":` + quirkPayload), loads},
		{"repeated payload, first is wrong", v2(good + `,"payload":` + other + `,"payload":` + quirkPayload), loads},
		{"trailing brace", v2(good+`,"payload":`+quirkPayload) + "}", failsFormat},
		{"trailing bytes", v2(good+`,"payload":`+quirkPayload) + "\n0", failsFormat},
		{"payload byte flipped", v2(good + `,"payload":` + other), failsChecksum},
		{"payload byte flipped, whitespace before the brace", v2(good+`,"payload":`+other+"\n") + "\n", failsChecksum},
		{"bare v1, stray payload last", quirkPayload[:len(quirkPayload)-1] + `,"payload":` + other + "}", loads},
	}
}

// TestDecodeEnvelopeQuirks pins Decode's reading of the envelope to
// encoding/json's rules: keys fold, null leaves a field as it is, the
// last repeated payload wins, and nothing but whitespace may follow
// the document. A core error has referenceDecode's text: core.Load's
// for the payload alone.
func TestDecodeEnvelopeQuirks(t *testing.T) {
	want, err := core.Load([]byte(quirkPayload))
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range envelopeQuirks(t) {
		syn, err := Decode([]byte(q.doc))
		if got := decodeOutcome(err); got != q.want {
			t.Errorf("%s: outcome %s (%v), want %s", q.name, got, err, q.want)
			continue
		}
		if q.want == failsCore {
			if _, refErr := referenceDecode([]byte(q.doc)); fmt.Sprint(err) != fmt.Sprint(refErr) {
				t.Errorf("%s: err = %v, reference err = %v", q.name, err, refErr)
			}
		}
		if err == nil {
			if d := sameRelease(want, syn); d != "" {
				t.Errorf("%s: decoded a different synopsis: %s", q.name, d)
			}
		}
	}
}

// TestDecodeJoinsItsHash overwrites every input as soon as Decode
// returns. Under the race detector it fails if Decode returns while its
// goroutine still hashes the input. Besides the envelope quirks it
// decodes a container whose 1 MB payload fails at its first number, so
// that the hash outlasts the decode; the detector sees only the hash's
// copy of the last partial block, so the payload's length, 2^20 + 4,
// leaves one.
func TestDecodeJoinsItsHash(t *testing.T) {
	big := `{"format":"priview-synopsis-v2","checksum":"sha256:00","payload":[01` + strings.Repeat(",1", 1<<19) + "]}"
	docs := []envelopeQuirk{{"1 MB payload, invalid at its start", big, failsFormat}}
	for _, q := range append(docs, envelopeQuirks(t)...) {
		raw := []byte(q.doc)
		if _, err := Decode(raw); decodeOutcome(err) != q.want {
			t.Errorf("%s: outcome %s (%v), want %s", q.name, decodeOutcome(err), err, q.want)
		}
		for i := range raw { // element by element, where the race detector sees it
			raw[i] = 0
		}
	}
}

// referenceDecode is the reference FuzzSnapshotLoad holds Decode to:
// the envelope read by encoding/json, as Decode read it before it had a
// reader of its own, and the checksum over json.Compact's output. It
// hands the payload to the same core.Load.
func referenceDecode(raw []byte) (*core.Synopsis, error) {
	var env struct {
		Format   string          `json:"format"`
		Checksum stringField     `json:"checksum"`
		Payload  json.RawMessage `json:"payload"`
	}
	if err := json.Unmarshal(raw, &env); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	switch env.Format {
	case FormatV2:
		if err := env.Checksum.err; err != nil {
			return nil, fmt.Errorf("%w: checksum: %v", ErrFormat, err)
		}
		if len(env.Payload) == 0 {
			return nil, fmt.Errorf("%w: empty payload", ErrFormat)
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, env.Payload); err != nil {
			return nil, fmt.Errorf("%w: unhashable payload: %v", ErrChecksum, err)
		}
		if sum := sha256Sum(compact.Bytes()); sum != env.Checksum.s {
			return nil, fmt.Errorf("%w: payload hashes to %s, header declares %s", ErrChecksum, sum, env.Checksum.s)
		}
		return core.Load(env.Payload)
	case core.SynopsisFormatV1:
		return core.Load(raw)
	default:
		return nil, fmt.Errorf("%w: format %q", ErrFormat, env.Format)
	}
}

// stringField decodes a JSON value the way a string struct field does
// (a string sets it, null leaves it unchanged, a repeated key
// overwrites it) but keeps the first type error instead of failing the
// whole document, so that only a reader of the field rejects it.
type stringField struct {
	s   string
	err error
}

func (f *stringField) UnmarshalJSON(b []byte) error {
	if f.err == nil {
		f.err = json.Unmarshal(b, &f.s)
	}
	return nil
}

// sameRelease describes the first difference between two synopses, or
// returns "": ε, total, design and every view, floats by their bits.
func sameRelease(a, b *core.Synopsis) string {
	bits := math.Float64bits
	if bits(a.Epsilon()) != bits(b.Epsilon()) || bits(a.Total()) != bits(b.Total()) {
		return fmt.Sprintf("ε %v, total %v vs ε %v, total %v", a.Epsilon(), a.Total(), b.Epsilon(), b.Total())
	}
	if da, db := a.Design(), b.Design(); fmt.Sprint(da) != fmt.Sprint(db) {
		return fmt.Sprintf("design %v vs %v", da, db)
	}
	va, vb := a.Views(), b.Views()
	if len(va) != len(vb) {
		return fmt.Sprintf("%d views vs %d", len(va), len(vb))
	}
	for i := range va {
		if fmt.Sprint(va[i].Attrs) != fmt.Sprint(vb[i].Attrs) || len(va[i].Cells) != len(vb[i].Cells) {
			return fmt.Sprintf("view %d: attrs %v vs %v", i, va[i].Attrs, vb[i].Attrs)
		}
		for j, c := range va[i].Cells {
			if bits(c) != bits(vb[i].Cells[j]) {
				return fmt.Sprintf("view %d cell %d: %v vs %v", i, j, c, vb[i].Cells[j])
			}
		}
	}
	return ""
}
