package jsonread

import (
	"encoding/json"
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
