package server

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"priview/internal/attrset"
)

// FuzzParseAttrs hardens the GET query-string attribute parser.
func FuzzParseAttrs(f *testing.F) {
	f.Add("1,2,3")
	f.Add("")
	f.Add("0")
	f.Add("-1,5")
	f.Add("1,,2")
	f.Add("999999999999999999999")
	f.Add(" 7 , 8 ")
	f.Fuzz(func(t *testing.T, raw string) {
		r := httptest.NewRequest(http.MethodGet, "/v1/marginal?attrs="+url.QueryEscape(raw), nil)
		reqs, bad := parseMarginal(r, designlessQuerier{}, Options{MaxK: attrset.MaxAttr})
		if bad != nil {
			return
		}
		attrs := reqs[0].Attrs
		if len(attrs) == 0 {
			t.Fatal("success with empty attribute list")
		}
		for i := 1; i < len(attrs); i++ {
			if attrs[i] <= attrs[i-1] {
				t.Fatalf("output not strictly sorted: %v", attrs)
			}
		}
	})
}
