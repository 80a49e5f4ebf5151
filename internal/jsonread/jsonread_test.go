package jsonread

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"strconv"
	"strings"
	"testing"
)

// TestStringMatchesUnmarshal holds String to encoding/json on the
// strings where unquoting has rules of its own: escapes, surrogate
// pairs and unpaired halves, invalid UTF-8, and a null.
func TestStringMatchesUnmarshal(t *testing.T) {
	for _, doc := range []string{
		`"plain"`, `""`, "\"\u00e9\"", `"\"\\\/\b\f\n\r\t"`, `"\u0041\u00e9\u212a"`,
		`"\ud83d\ude00"`, `"\ud800"`, `"\udc00x"`, `"\ud800A"`, `"\ud800\\u0041"`, `"\ud800\ud800\udc00"`,
		"\"\xff\xc3(\xe2\x82\"", "\"\xed\xa0\x80\"", `null`,
	} {
		got, want := "kept", "kept"
		if err := Parse([]byte(doc), func(r *Reader) error { return r.String(&got) }); err != nil {
			t.Errorf("%s: %v", doc, err)
		}
		if err := json.Unmarshal([]byte(doc), &want); err != nil {
			t.Fatalf("%s: encoding/json: %v", doc, err)
		}
		if got != want {
			t.Errorf("%s: got %+q, encoding/json %+q", doc, got, want)
		}
	}
}

// floatEdge is one number, and whether Float converts it itself (fast)
// or hands it to strconv.ParseFloat.
type floatEdge struct {
	in   string
	fast bool
}

// floatEdges are the numbers where an exact conversion can go wrong:
// the ends of Clinger's fast path and of the division, halfway cases
// that must round to even, the digit limits, zeros, and the forms only
// strconv converts.
var floatEdges = []floatEdge{
	// 2^53 − 1 is the last mantissa Clinger's path takes.
	{"9007199254740991", true}, {"9007199254740992", true}, {"9007199254740993", true},
	{"-9007199254740993", true}, {"900719925474099.1", true}, {"900719925474099.3", true},
	// Exact halfway cases above 2^53, each between an odd and an even
	// significand: 2^53+1, 2^53+3, 2^54+2, 2^52+½ (as 2^53+1 tenths),
	// 2^63+1024 and 2^63+3072, then one past a halfway case.
	{"9007199254740995", true}, {"18014398509481986", true}, {"18014398509481990", true},
	{"4503599627370496.5", true}, {"4503599627370497.5", true}, {"9007199254740993.0", true},
	{"9223372036854776832", true}, {"9223372036854778880", true}, {"9223372036854776833", true},
	{"-9223372036854776832", true}, {"922337203685477.6832", true},
	// A quotient whose low bits look like a tie: only the remainder
	// of the division rounds it up.
	{"-595.906224891607792", true},
	// 19 and 20 significant digits, and 19 and 20 fraction digits.
	{"1234567890123456789", true}, {"9999999999999999999", true}, {"12345678901234567890", false},
	{"18446744073709551615", false}, {"1.234567890123456789", true}, {"12345678901.234567891", false},
	{"0.1234567890123456789", true}, {"0.0000000000000000001", true}, {"0.00000000000000000001", false},
	{"0.1000000000000000000", true}, {"1.00000000000000000000", false}, {"0.12345678901234567891", false},
	// Leading zeros and zeros.
	{"0.000123", true}, {"-0.000123", true}, {"0", true}, {"-0", true}, {"0.0", true}, {"-0.0", true},
	{"0.0000000000000000000", true}, {"0.000000000000000000000000001", false},
	// Shortest round-trip forms like a snapshot's cells.
	{"1234.5678901234567", true}, {"-0.0012345678901234567", true}, {"123456789.12345679", true},
	{"0.1", true}, {"0.3", true}, {"2.5", true}, {"1", true}, {"-1", true},
	// Exponent forms take the fallback.
	{"1e2", false}, {"1E-5", false}, {"-2.5e+3", false}, {"0e0", false}, {"1.5e300", false},
	{"4.9e-324", false}, {"2.2250738585072014e-308", false}, {"1e-400", false}, {"1e21", false},
	// Out of range: both must fail.
	{"1e400", false}, {"-1e400", false}, {"1" + strings.Repeat("0", 400), false},
	// Digit runs shorter than, as long as and longer than one or two
	// eight-digit steps, in the integer part, the fraction and both.
	{"1234567", true}, {"12345678", true}, {"123456789", true},
	{"123456789012345", true}, {"1234567890123456", true}, {"12345678901234567", true},
	{"0.1234567", true}, {"0.12345678", true}, {"0.123456789", true},
	{"0.123456789012345", true}, {"0.1234567890123456", true}, {"0.12345678901234567", true},
	{"-1234567.1234567", true}, {"12345678.12345678", true}, {"123456789.123456789", true},
	{"-0.00000000", true}, {"0.0000000012345678", true}, {"99999999.99999999", true},
	// Numbers whose last eight-digit step ends exactly at the end of
	// the input.
	{"-12345678", true}, {"1234567812345678", true}, {"1.23456789", true}, {"-0.1234567812345678", true},
	// A non-digit inside an eight-byte window ends the number there,
	// and the grammar's failures: Float fails where strconv fails.
	{"1234567.8x", false}, {"12345678a", false}, {"1234567812345678.", false}, {"1234.567-", false},
	{"-", false}, {"1.", false}, {"01", false}, {".5", false}, {"1e", false},
	{"1.e5", false}, {"-.5", false}, {"1e+", false}, {"00.5", false},
	// 19 against 20 significant digits across eight-digit steps.
	{"12345678.90123456789", true}, {"12345678.901234567891", false},
	{"-9999999999999999999", true}, {"-99999999999999999999", false},
	{"0.00001234567890123456789", false}, {"1234567890123456789.0", false},
}

// TestFloatEdges holds where scanFloat stops to scanNumber on each
// edge. On an edge that is one JSON number it holds Float to
// strconv.ParseFloat, bit for bit and on errors, and checks which path
// converts it; any other edge Float must refuse.
func TestFloatEdges(t *testing.T) {
	for _, e := range floatEdges {
		if end, ok := checkScan(t, e.in); !ok || end < len(e.in) {
			var f float64
			if err := Parse([]byte(e.in), func(r *Reader) error { return r.Float(&f) }); err == nil {
				t.Errorf("%s: decoded as %v, want an error", e.in, f)
			}
			continue
		}
		checkFloat(t, e.in)
		if _, _, exact, _ := scanFloat([]byte(e.in), 0); exact != e.fast {
			t.Errorf("%s: converted without strconv = %v, want %v", e.in, exact, e.fast)
		}
	}
	for _, in := range []string{"1e400", "-1e400", "1" + strings.Repeat("0", 400)} {
		var f float64
		if err := Parse([]byte(in), func(r *Reader) error { return r.Float(&f) }); err == nil {
			t.Errorf("%.20s…: decoded as %v, want an error", in, f)
		}
	}
}

// TestFloatMatchesParseFloat holds Float to strconv.ParseFloat on 2^20
// random float64 values in their json.Marshal form, drawn from every
// bit pattern, from the scales a snapshot's cells take and from the
// integers past 2^53, and on random digit strings of up to 25 digits
// on either side of the point.
func TestFloatMatchesParseFloat(t *testing.T) {
	n := 1 << 20
	if testing.Short() {
		n = 1 << 14
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < n; i++ {
		var x float64
		switch i % 4 {
		case 0:
			if x = math.Float64frombits(rng.Uint64()); math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
		case 1:
			x = rng.NormFloat64() * math.Pow(10, float64(rng.IntN(12)))
		case 2:
			x = rng.Float64() * math.Pow(10, float64(rng.IntN(28)-7))
		default:
			x = float64(rng.Uint64() >> rng.IntN(12))
		}
		b, err := json.Marshal(x)
		if err != nil {
			t.Fatal(err)
		}
		checkFloat(t, string(b))
	}
	digits := func(k int) string {
		b := make([]byte, k)
		for i := range b {
			b[i] = byte('0' + rng.IntN(10))
		}
		return string(b)
	}
	for i := 0; i < n/4; i++ {
		s := digits(1 + rng.IntN(25))
		if len(s) > 1 && s[0] == '0' {
			s = "0"
		}
		if rng.IntN(2) == 0 {
			s += "." + digits(1+rng.IntN(25))
		}
		if rng.IntN(2) == 0 {
			s = "-" + s
		}
		checkFloat(t, s)
	}
}

// FuzzFloat holds scanFloat to scanNumber on every input, on where the
// number ends or the grammar fails, and Float to strconv.ParseFloat on
// every input that is one valid JSON number, bit for bit and on errors.
func FuzzFloat(f *testing.F) {
	for _, e := range floatEdges {
		f.Add(e.in)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if end, ok := checkScan(t, s); ok && end == len(s) {
			checkFloat(t, s)
		}
	})
}

// checkScan fails t unless scanFloat stops where scanNumber does on s,
// and accepts or rejects the number there as it does. It returns
// scanNumber's result.
func checkScan(t *testing.T, s string) (int, bool) {
	t.Helper()
	end, ok := scanNumber([]byte(s), 0)
	if _, gotEnd, _, gotOK := scanFloat([]byte(s), 0); gotEnd != end || gotOK != ok {
		t.Fatalf("%q: scanFloat ends at %d, %v; scanNumber at %d, %v", s, gotEnd, gotOK, end, ok)
	}
	return end, ok
}

// checkFloat fails t unless Float decodes the JSON number s as
// strconv.ParseFloat parses it.
func checkFloat(t *testing.T, s string) {
	t.Helper()
	var got float64
	err := Parse([]byte(s), func(r *Reader) error { return r.Float(&got) })
	want, wantErr := strconv.ParseFloat(s, 64)
	switch {
	case (err == nil) != (wantErr == nil):
		t.Fatalf("%s: Float err = %v, strconv err = %v", s, err, wantErr)
	case err == nil && math.Float64bits(got) != math.Float64bits(want):
		t.Fatalf("%s: Float = %v (%#x), strconv = %v (%#x)", s, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestDecodeRaw checks DecodeRaw on a value nested in a document: the
// bytes and compactness whether the decoder succeeds or not, the
// decoder's error offsets counted from the value, the skip's from the
// document, and the nesting limit counted across both.
func TestDecodeRaw(t *testing.T) {
	ints := func(r *Reader) error {
		var v []int
		return Slice(r, &v, 0, r.Int)
	}
	for _, c := range []struct {
		doc, raw  string
		compact   bool
		derr, err string
	}{
		{doc: `{"v":[1,2]}`, raw: `[1,2]`, compact: true},
		{doc: `{ "v" : [1, 2] }`, raw: `[1, 2]`},
		{doc: `{"v":[1,"x"],"w":1}`, raw: `[1,"x"]`, compact: true, derr: "jsonread: cannot decode string at offset 3 into int"},
		{doc: `{"v":[1,"x" ]}`, raw: `[1,"x" ]`, derr: "jsonread: cannot decode string at offset 3 into int"},
		{doc: `{"v":[1,"x"}`, derr: "jsonread: cannot decode string at offset 3 into int",
			err: `jsonread: invalid character '}' at offset 11 after array element`},
		{doc: `{"v":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`, derr: "jsonread: cannot decode array at offset 1 into int",
			raw: strings.Repeat("[", 9999) + strings.Repeat("]", 9999), compact: true},
		{doc: `{"v":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`, derr: "jsonread: exceeded max depth at offset 9999",
			err: "jsonread: exceeded max depth at offset 10004"},
	} {
		var (
			raw       []byte
			compact   bool
			derr, err error
		)
		perr := Parse([]byte(c.doc), func(r *Reader) error {
			return r.Object([]string{"v"}, func(string) error {
				raw, compact, derr, err = r.DecodeRaw(ints)
				return err
			})
		})
		name := c.doc[:min(len(c.doc), 20)]
		if fmt.Sprint(err) != fmt.Sprint(perr) {
			t.Errorf("%s: Parse err = %v, DecodeRaw err = %v", name, perr, err)
		}
		if got := errText(err); got != c.err {
			t.Errorf("%s: err = %q, want %q", name, got, c.err)
		}
		if got := errText(derr); got != c.derr {
			t.Errorf("%s: derr = %q, want %q", name, got, c.derr)
		}
		if string(raw) != c.raw || compact != c.compact {
			t.Errorf("%s: raw %.20q compact %v, want %.20q %v", name, raw, compact, c.raw, c.compact)
		}
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
