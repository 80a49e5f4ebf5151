package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// quirkBase is the body of a small valid v1 document; wrapped in braces
// it is also what Save writes for the synopsis it loads as.
const quirkBase = `"format":"priview-synopsis-v1","epsilon":1,"total":4,` +
	`"design":{"d":3,"t":1,"l":2,"blocks":[[0,1],[1,2]]},` +
	`"views":[{"attrs":[0,1],"cells":[1,1,1,1]},{"attrs":[1,2],"cells":[2,0,1,1]}]`

// loadQuirk is one document and what Load must make of it: the
// document Save writes for the loaded synopsis, or the start of the
// error. A decoding error starts "core: decoding synopsis:"; an error
// from Load's own validation is given in full.
type loadQuirk struct {
	name string
	doc  string
	want string
	err  string
}

const decodeErr = "core: decoding synopsis:"

// loadQuirks are the rules by which encoding/json's Unmarshal decodes a
// document into Load's schema, which Load keeps.
var loadQuirks = []loadQuirk{
	{name: "base", doc: "{" + quirkBase + "}", want: "{" + quirkBase + "}"},

	// Keys fold as bytes.EqualFold does; unknown keys are skipped, but
	// their values must still be valid JSON.
	{name: "keys in other cases", want: "{" + quirkBase + "}",
		doc: `{"FORMAT":"priview-synopsis-v1","Epsilon":1,"TOTAL":4,"Design":{"D":3,"T":1,"L":2,"BLOCKS":[[0,1],[1,2]]},` +
			`"Views":[{"ATTRS":[0,1],"Cells":[1,1,1,1]},{"attrs":[1,2],"cells":[2,0,1,1]}]}`},
	{name: "Kelvin sign and long s", want: "{" + quirkBase + "}",
		doc: "{\"format\":\"priview-synopsis-v1\",\"ep\u017filon\":1,\"total\":4,\"design\":{\"d\":3,\"t\":1,\"l\":2,\"bloc\u212as\":[[0,1],[1,2]]}," +
			"\"view\u017f\":[{\"attr\u017f\":[0,1],\"cell\u017f\":[1,1,1,1]},{\"attrs\":[1,2],\"cells\":[2,0,1,1]}]}"},
	{name: "escaped keys", want: "{" + quirkBase + "}",
		doc: `{"\u0066ormat":"priview-synopsis-v1","epsil\u006fn":1,"total":4,"design":{"d":3,"t":1,"l":2,"bloc\u212As":[[0,1],[1,2]]},` +
			`"views":[{"attrs":[0,1],"cells":[1,1,1,1]},{"attrs":[1,2],"cells":[2,0,1,1]}]}`},
	{name: "dotted and dotless i do not fold to i", doc: "{\"des\u0130gn\":{\"d\":3},\"des\u0131gn\":{\"d\":3}," + strings.Replace(quirkBase, `"design"`, `"x"`, 1) + "}",
		want: `{"format":"priview-synopsis-v1","epsilon":1,"total":4,"design":{"d":0,"t":0,"l":0,"blocks":null},` +
			`"views":[{"attrs":[0,1],"cells":[1,1,1,1]},{"attrs":[1,2],"cells":[2,0,1,1]}]}`},
	{name: "unknown keys skipped", doc: `{"extra":{"a":[1,2.5e-3,{"b":null}],"c":"\u00e9é","d":true,"e":false},` + quirkBase + `,"z":[]}`,
		want: "{" + quirkBase + "}"},
	{name: "invalid unknown value", doc: `{"extra":[1,],` + quirkBase + "}", err: decodeErr},
	{name: "invalid unknown number", doc: `{"extra":01,` + quirkBase + "}", err: decodeErr},
	{name: "invalid unknown literal", doc: `{"extra":nul,` + quirkBase + "}", err: decodeErr},

	// null leaves a scalar or a struct as it is and sets a slice to nil.
	{name: "null scalars and struct", want: "{" + quirkBase + "}",
		doc: "{" + quirkBase + `,"format":null,"epsilon":null,"total":null,"design":null,"design":{"d":null,"blocks":[[0,1],[1,2]]}}`},
	{name: "null views", doc: "{" + quirkBase + `,"views":null}`, err: "core: synopsis has no views"},
	{name: "null cells", doc: "{" + quirkBase + `,"views":[{"cells":null}]}`, err: "core: view 0 has 0 cells, want 4"},
	{name: "null blocks", doc: "{" + quirkBase + `,"design":{"blocks":null}}`,
		want: `{"format":"priview-synopsis-v1","epsilon":1,"total":4,"design":{"d":3,"t":1,"l":2,"blocks":null},` +
			`"views":[{"attrs":[0,1],"cells":[1,1,1,1]},{"attrs":[1,2],"cells":[2,0,1,1]}]}`},
	{name: "null elements", doc: strings.Replace("{"+quirkBase+"}", "[1,1,1,1]", "[1,null,1,null]", 1),
		want: strings.Replace("{"+quirkBase+"}", "[1,1,1,1]", "[1,0,1,0]", 1)},
	{name: "null attribute", doc: strings.Replace("{"+quirkBase+"}", `"attrs":[1,2]`, `"attrs":[1,null]`, 1),
		err: "core: view 1: "},

	// A repeated key decodes again into the same field.
	{name: "repeated scalar", doc: `{"total":9,"epsilon":3,` + quirkBase + "}", want: "{" + quirkBase + "}"},
	{name: "repeated design merges", want: "{" + quirkBase + "}",
		doc: "{" + strings.Replace(quirkBase, `"design":{"d":3,"t":1,"l":2,`, `"design":{"d":3,"t":1},"design":{"l":2,`, 1) + "}"},
	{name: "repeated views decode in place",
		doc: `{"format":"priview-synopsis-v1","epsilon":1,"total":4,` +
			`"views":[{"attrs":[0],"cells":[1,3]},{"attrs":[1],"cells":[2,2]},{"attrs":[2],"cells":[3,1]}],` +
			`"views":[{"attrs":[0],"cells":[1,3]}],` +
			`"views":[{},{"cells":[null,4]}]}`,
		want: `{"format":"priview-synopsis-v1","epsilon":1,"total":4,"design":{"d":0,"t":0,"l":0,"blocks":null},` +
			`"views":[{"attrs":[0],"cells":[1,3]},{"attrs":[1],"cells":[2,4]}]}`},
	{name: "repeated blocks decode in place", doc: "{" + quirkBase + `,"design":{"blocks":[[2]]},"design":{"blocks":[[0],[null,2]]}}`,
		want: strings.Replace("{"+quirkBase+"}", "[[0,1],[1,2]]", "[[0],[1,2]]", 1)},
	{name: "empty array starts afresh",
		doc: `{"format":"priview-synopsis-v1","epsilon":1,"total":4,` +
			`"views":[{"attrs":[0],"cells":[1,3]},{"attrs":[1],"cells":[2,2]}],"views":[],"views":[{},{"cells":[0,4]}]}`,
		err: "core: view 0 has 0 cells, want 1"},

	// Integers go through strconv.ParseInt, floats through
	// strconv.ParseFloat after the JSON number grammar.
	{name: "integer with a fraction", doc: strings.Replace("{"+quirkBase+"}", `"d":3`, `"d":3.0`, 1), err: decodeErr},
	{name: "integer with an exponent", doc: strings.Replace("{"+quirkBase+"}", `"d":3`, `"d":1e2`, 1), err: decodeErr},
	{name: "integer overflow", doc: strings.Replace("{"+quirkBase+"}", `"t":1`, `"t":9223372036854775808`, 1), err: decodeErr},
	{name: "integer minus zero", doc: strings.Replace("{"+quirkBase+"}", `"t":1`, `"t":-0`, 1),
		want: strings.Replace("{"+quirkBase+"}", `"t":1`, `"t":0`, 1)},
	{name: "float overflow", doc: strings.Replace("{"+quirkBase+"}", `"epsilon":1`, `"epsilon":1e400`, 1), err: decodeErr},
	{name: "float underflow", doc: strings.Replace("{"+quirkBase+"}", `"epsilon":1`, `"epsilon":1e-400`, 1),
		want: strings.Replace("{"+quirkBase+"}", `"epsilon":1`, `"epsilon":0`, 1)},
	{name: "float minus zero", doc: strings.Replace("{"+quirkBase+"}", `"total":4`, `"total":-0.0e+0`, 1),
		want: strings.Replace("{"+quirkBase+"}", `"total":4`, `"total":-0`, 1)},
	{name: "float exponent", doc: strings.Replace("{"+quirkBase+"}", `"total":4`, `"total":40E-1`, 1), want: "{" + quirkBase + "}"},
	{name: "NaN", doc: strings.Replace("{"+quirkBase+"}", `"total":4`, `"total":NaN`, 1), err: decodeErr},
	{name: "plus sign", doc: strings.Replace("{"+quirkBase+"}", `"total":4`, `"total":+4`, 1), err: decodeErr},
	{name: "leading zero", doc: strings.Replace("{"+quirkBase+"}", `"total":4`, `"total":04`, 1), err: decodeErr},
	{name: "hex float", doc: strings.Replace("{"+quirkBase+"}", `"total":4`, `"total":0x1p2`, 1), err: decodeErr},
	{name: "bare decimal point", doc: strings.Replace("{"+quirkBase+"}", `"total":4`, `"total":4.`, 1), err: decodeErr},
	{name: "bare exponent", doc: strings.Replace("{"+quirkBase+"}", `"total":4`, `"total":4e`, 1), err: decodeErr},

	// Strings reject control characters and unquote as Unmarshal does.
	{name: "control character", doc: strings.Replace("{"+quirkBase+"}", `-v1"`, "-v1\t\"", 1), err: decodeErr},
	{name: "escaped format", doc: strings.Replace("{"+quirkBase+"}", `-v1"`, `-\u0076\u0031"`, 1), want: "{" + quirkBase + "}"},
	{name: "escapes", doc: strings.Replace("{"+quirkBase+"}", `-v1"`, `-v1\b\f\n\r\t\"\\\/"`, 1),
		err: `core: unknown synopsis format "priview-synopsis-v1\b\f\n\r\t\"\\/"`},
	{name: "invalid UTF-8", doc: strings.Replace("{"+quirkBase+"}", `-v1"`, "-v1\xff\xc3\"", 1),
		err: "core: unknown synopsis format \"priview-synopsis-v1\uFFFD\uFFFD\""},
	{name: "surrogates", doc: strings.Replace("{"+quirkBase+"}", `-v1"`, `-v1\ud83d\ude00\ud800A\udc00\ud800"`, 1),
		err: "core: unknown synopsis format \"priview-synopsis-v1\U0001F600\uFFFDA\uFFFD\uFFFD\""},
	{name: "bad escape", doc: strings.Replace("{"+quirkBase+"}", `-v1"`, `-v1\x"`, 1), err: decodeErr},
	{name: "short unicode escape", doc: strings.Replace("{"+quirkBase+"}", `-v1"`, `-v1\u004"`, 1), err: decodeErr},

	// Structure: the nesting limit, whitespace, and what a document
	// may be.
	{name: "nesting 10000", doc: `{"x":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + "," + quirkBase + "}",
		want: "{" + quirkBase + "}"},
	{name: "nesting 10001", doc: `{"x":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + "," + quirkBase + "}",
		err: decodeErr},
	{name: "whitespace", doc: " \t\r\n{ \"format\" :\t\"priview-synopsis-v1\"\r,\n\"epsilon\":1,\"total\":4 ,\"views\" : [ { \"attrs\" : [ 0 ] , \"cells\" : [ 1 , 3 ] } ] } \n",
		want: `{"format":"priview-synopsis-v1","epsilon":1,"total":4,"design":{"d":0,"t":0,"l":0,"blocks":null},"views":[{"attrs":[0],"cells":[1,3]}]}`},
	{name: "form feed", doc: "{\f" + quirkBase + "}", err: decodeErr},
	{name: "no-break space", doc: "{\u00a0" + quirkBase + "}", err: decodeErr},
	{name: "empty", doc: "", err: decodeErr},
	{name: "only whitespace", doc: " \n", err: decodeErr},
	{name: "top-level null", doc: "null", err: `core: unknown synopsis format ""`},
	{name: "top-level array", doc: "[" + "{" + quirkBase + "}" + "]", err: decodeErr},
	{name: "unterminated", doc: "{" + quirkBase, err: decodeErr},

	// A value of the wrong JSON type is an error.
	{name: "number format", doc: "{" + quirkBase + `,"format":1}`, err: decodeErr},
	{name: "string epsilon", doc: "{" + quirkBase + `,"epsilon":"1"}`, err: decodeErr},
	{name: "bool total", doc: "{" + quirkBase + `,"total":true}`, err: decodeErr},
	{name: "array design", doc: "{" + quirkBase + `,"design":[]}`, err: decodeErr},
	{name: "object views", doc: "{" + quirkBase + `,"views":{}}`, err: decodeErr},
	{name: "string attrs", doc: "{" + quirkBase + `,"views":[{"attrs":"0"}]}`, err: decodeErr},
	{name: "object cell", doc: "{" + quirkBase + `,"views":[{"cells":[{}]}]}`, err: decodeErr},
}

// TestLoadQuirks pins Load to encoding/json's decoding rules, case by
// case: the decoded synopsis, saved again, or the error.
func TestLoadQuirks(t *testing.T) {
	for _, q := range loadQuirks {
		s, err := Load([]byte(q.doc))
		if q.err != "" {
			if err == nil || !strings.HasPrefix(err.Error(), q.err) {
				t.Errorf("%s: err = %v, want %q", q.name, err, q.err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", q.name, err)
			continue
		}
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if got := strings.TrimSpace(buf.String()); got != q.want {
			t.Errorf("%s: loaded as\n%s\nwant\n%s", q.name, got, q.want)
		}
	}
}

// FuzzLoad checks Load's decoding against its reference,
// encoding/json's Unmarshal into synopsisFile: both accept or both
// reject every input, and what both accept decodes to the same
// document, floats compared by their bits and a nil slice told apart
// from an empty one. Load must then fail as the reference's document
// fails validation, with the same error, or succeed as it does.
func FuzzLoad(f *testing.F) {
	for _, path := range []string{
		filepath.Join("testdata", "golden_synopsis.json"),
		filepath.Join("..", "snapshot", "testdata", "v1-golden.json"),
	} {
		golden, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(golden)
	}
	var buf bytes.Buffer
	if err := buildSmall(&testing.T{}, 3).Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	for _, q := range loadQuirks {
		f.Add([]byte(q.doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, gotErr := decodeFile(data)
		var want synopsisFile
		wantErr := json.Unmarshal(data, &want)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("decodeFile err = %v, encoding/json err = %v", gotErr, wantErr)
		}
		if gotErr == nil && !sameFile(got, want) {
			t.Fatalf("decodeFile gave\n%#v\nencoding/json gave\n%#v", got, want)
		}
		s, err := Load(data)
		switch {
		case wantErr != nil:
			if err == nil || !strings.HasPrefix(err.Error(), decodeErr) {
				t.Fatalf("Load err = %v, want a decoding error", err)
			}
		default:
			_, refErr := fromFile(want)
			if fmt.Sprint(err) != fmt.Sprint(refErr) {
				t.Fatalf("Load err = %v, want %v", err, refErr)
			}
			if err == nil && s == nil {
				t.Fatal("nil synopsis without error")
			}
		}
	})
}

// sameFile reports whether two decoded documents are identical: floats
// by their bits, and nil slices apart from empty ones.
func sameFile(a, b synopsisFile) bool {
	sameInt := func(x, y int) bool { return x == y }
	sameBits := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	sameInts := func(x, y []int) bool { return sameSlice(x, y, sameInt) }
	sameView := func(x, y viewFile) bool { return sameInts(x.Attrs, y.Attrs) && sameSlice(x.Cells, y.Cells, sameBits) }
	return a.Format == b.Format && sameBits(a.Epsilon, b.Epsilon) && sameBits(a.Total, b.Total) &&
		a.Design.D == b.Design.D && a.Design.T == b.Design.T && a.Design.L == b.Design.L &&
		sameSlice(a.Design.Blocks, b.Design.Blocks, sameInts) && sameSlice(a.Views, b.Views, sameView)
}

func sameSlice[T any](a, b []T, same func(T, T) bool) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if !same(a[i], b[i]) {
			return false
		}
	}
	return true
}
