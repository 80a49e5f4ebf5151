// Package jsonread is a validating JSON reader over an in-memory
// document, for the snapshot read path. One pass over the bytes both
// validates the document and decodes it into Go values, where
// encoding/json would check validity, buffer the value and then decode
// it reflectively.
//
// It accepts exactly the documents encoding/json's Unmarshal accepts,
// and decodes into the kinds of field the snapshot formats use (struct,
// slice, string, int, float64) with Unmarshal's results:
//   - object keys match field names as bytes.EqualFold does, and an
//     unknown key's value is validated and skipped;
//   - null leaves a string, number or struct unchanged and sets a
//     slice to nil;
//   - a repeated key decodes again into the same field, so a struct
//     merges and a slice decodes into the elements already there;
//   - integers parse with strconv.ParseInt after the RFC 8259 number
//     grammar, and floats convert to exactly what strconv.ParseFloat
//     returns (see Float);
//   - strings unquote as Unmarshal does, with U+FFFD for invalid UTF-8
//     and unpaired surrogates;
//   - nesting deeper than 10,000 levels is rejected, as Unmarshal's
//     scanner does.
//
// Unlike Unmarshal, decoding stops at the first error, a type mismatch
// included: a caller that fails on any error sees the same outcome.
// Recursion goes no deeper than the nesting limit. The quirk tables and
// differential fuzz targets of internal/core and internal/snapshot pin
// all of this to encoding/json, which remains their reference.
//
// Float converts nearly every number a snapshot holds without strconv:
// a number with no exponent and at most 19 significant and 19 fraction
// digits is an integer mantissa m over 10^f, both exact in a uint64.
// Below 2^53 m is exact in a float64 too, and so is 10^f, so one
// correctly rounded division gives the nearest float64 (Clinger's fast
// path). Above it, one 128-by-64-bit division (math/bits.Div64) gives
// the quotient's leading 64 bits, which round half to even on a guard
// bit and a sticky bit that also covers the remainder. Any other
// number goes to strconv.ParseFloat, so every result is bit for bit
// the one it gives; FuzzFloat holds the two together.
//
// DecodeRaw reads a value nested in a larger document with a decoder of
// its own and also returns the value's bytes: the snapshot container
// decodes its payload and hashes the same bytes in one pass.
package jsonread

import (
	"bytes"
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// maxDepth is encoding/json's nesting limit.
const maxDepth = 10000

// Reader reads one JSON document. Each decoding method reads exactly
// one value, starting at its first byte, and returns an error or
// leaves the reader just past the value.
type Reader struct {
	data  []byte
	pos   int
	depth int
	space bool // whitespace skipped since the value DecodeRaw reads began
}

// Parse reads data as one JSON value, which value decodes, with only
// whitespace around it.
func Parse(data []byte, value func(*Reader) error) error {
	r := &Reader{data: data}
	r.skipSpace()
	if err := value(r); err != nil {
		return err
	}
	r.skipSpace()
	if r.pos < len(r.data) {
		return r.syntaxError("after top-level value")
	}
	return nil
}

// Object decodes an object the way Unmarshal decodes one into a struct
// whose JSON field names are fields: for each key that matches a name,
// field decodes the value, and any other value is skipped. A null
// leaves the struct unchanged.
func (r *Reader) Object(fields []string, field func(name string) error) error {
	if r.peek() != '{' {
		return r.nullOr("object")
	}
	if err := r.enter(); err != nil {
		return err
	}
	if r.peek() == '}' {
		r.leave()
		return nil
	}
	for {
		if r.peek() != '"' {
			return r.syntaxError("looking for beginning of object key string")
		}
		key, err := r.str()
		if err != nil {
			return err
		}
		if bytes.IndexByte(key, '\\') >= 0 {
			key = unquote(key)
		}
		r.skipSpace()
		if r.peek() != ':' {
			return r.syntaxError("after object key")
		}
		r.pos++
		r.skipSpace()
		matched := ""
		for _, name := range fields {
			if bytes.EqualFold(key, []byte(name)) {
				matched = name
				break
			}
		}
		if matched != "" {
			err = field(matched)
		} else {
			err = r.skip()
		}
		if err != nil {
			return err
		}
		r.skipSpace()
		switch r.peek() {
		case ',':
			r.pos++
			r.skipSpace()
		case '}':
			r.leave()
			return nil
		default:
			return r.syntaxError("after object key:value pair")
		}
	}
}

// Slice decodes an array the way Unmarshal decodes one into a slice:
// element i decodes, with elem, into (*s)[i] as it stands, and where
// the array outruns the slice's length it is resliced within its
// capacity, so a repeated key decodes into the elements an earlier,
// longer array left there. The slice ends at the array's length; an
// empty array makes it empty and a null makes it nil. hint, when the
// slice has no capacity, sizes its first allocation; a hint taken from
// the document must be capped by the caller.
func Slice[T any](r *Reader, s *[]T, hint int, elem func(*T) error) error {
	if r.peek() != '[' {
		if r.peek() == 'n' {
			*s = nil
		}
		return r.nullOr("array")
	}
	v := *s
	n, err := r.array(func(i int) error {
		if i == len(v) {
			if i < cap(v) {
				v = v[:i+1]
			} else {
				if cap(v) == 0 && hint > 0 {
					v = make([]T, 0, hint)
				}
				v = append(v, *new(T))
			}
		}
		return elem(&v[i])
	})
	if err != nil {
		return err
	}
	if n == 0 {
		v = []T{}
	}
	*s = v[:n]
	return nil
}

// String decodes a string. A null leaves s unchanged.
func (r *Reader) String(s *string) error {
	if r.peek() != '"' {
		return r.nullOr("string")
	}
	b, err := r.str()
	if err != nil {
		return err
	}
	*s = string(unquote(b))
	return nil
}

// Int decodes an integer. A null leaves n unchanged.
func (r *Reader) Int(n *int) error {
	start := r.pos
	b, err := r.number("int")
	if err != nil || b == nil {
		return err
	}
	v, err := strconv.ParseInt(string(b), 10, strconv.IntSize)
	if err != nil {
		return fmt.Errorf("jsonread: cannot decode number %s at offset %d into int", b, start)
	}
	*n = int(v)
	return nil
}

// Float decodes a float64, bit for bit as strconv.ParseFloat parses
// it. A null leaves f unchanged.
func (r *Reader) Float(f *float64) error {
	start := r.pos
	b, err := r.number("float64")
	if err != nil || b == nil {
		return err
	}
	v, ok := exactFloat(b)
	if !ok {
		if v, err = strconv.ParseFloat(string(b), 64); err != nil {
			return fmt.Errorf("jsonread: cannot decode number %s at offset %d into float64", b, start)
		}
	}
	*f = v
	return nil
}

// DecodeRaw reads the value at hand with decode, as a document of its
// own: the offsets in decode's errors count from the value's first
// byte. It returns the value's bytes and whether they are compact: no
// whitespace outside strings, which is what json.Compact would return
// for them. If decode fails, the value is validated and skipped
// instead, and decode's error comes back as derr beside the bytes. err
// reports a value that is not valid JSON, and then the bytes are nil.
func (r *Reader) DecodeRaw(decode func(*Reader) error) (raw []byte, compact bool, derr, err error) {
	start := r.pos
	sub := &Reader{data: r.data[start:], depth: r.depth}
	if derr = decode(sub); derr == nil {
		r.pos += sub.pos
		return r.data[start:r.pos], !sub.space, nil, nil
	}
	r.space = false
	if err = r.skip(); err != nil {
		return nil, false, derr, err
	}
	return r.data[start:r.pos], !r.space, derr, nil
}

// pow10 holds 10^0 to 10^19, each exact as a float64 and as a uint64.
var pow10 = [...]uint64{
	1, 10, 100, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
}

// exactFloat converts the valid JSON number b to the float64 nearest
// to it, ties to even, when b has no exponent and at most 19
// significant and 19 fraction digits; ok is false for any other
// number. A mantissa of more digits wraps, but is then never used.
func exactFloat(b []byte) (v float64, ok bool) {
	neg := b[0] == '-'
	if neg {
		b = b[1:]
	}
	var m uint64
	i := 0
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		m = m*10 + uint64(b[i]-'0')
	}
	sig, frac := i, 0
	if b[0] == '0' {
		sig = 0 // the integer part is a lone zero, not significant
	}
	if i < len(b) && b[i] == '.' {
		i++
		start := i
		if b[0] == '0' {
			for i < len(b) && b[i] == '0' {
				i++
			}
		}
		lead := i - start
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			m = m*10 + uint64(b[i]-'0')
		}
		frac = i - start
		sig += frac - lead
	}
	switch {
	case i < len(b) || sig > len(pow10)-1 || frac > len(pow10)-1:
		return 0, false // an exponent, or too many digits
	case m < 1<<53:
		v = float64(m) / float64(pow10[frac])
	default:
		v = divide(m, pow10[frac])
	}
	if neg {
		v = -v
	}
	return v, true
}

// divide returns m/d rounded to the nearest float64, ties to even, for
// m ≥ 2^53 and d a power of ten up to 10^19, so that m/d lies within
// float64's normal range. Both are shifted to have their top bit set,
// and m·2^64/d or m·2^63/d, whichever lies in [2^63, 2^64), is divided
// in one step: its top 53 bits are the significand, the next is the
// guard bit, and the sticky bit is set by any of the ten below it or a
// nonzero remainder.
func divide(m, d uint64) float64 {
	mz, dz := bits.LeadingZeros64(m), bits.LeadingZeros64(d)
	m, d = m<<mz, d<<dz
	hi, lo, shift := m, uint64(0), 64
	if m >= d {
		hi, lo, shift = m>>1, m<<63, 63
	}
	q, rem := bits.Div64(hi, lo, d)
	sig, guard, sticky := q>>11, q>>10&1 == 1, q&(1<<10-1) != 0 || rem != 0
	exp := 11 + dz - mz - shift // m/d ≈ sig·2^exp
	if guard && (sticky || sig&1 == 1) {
		if sig++; sig == 1<<53 {
			sig, exp = 1<<52, exp+1
		}
	}
	return math.Float64frombits(uint64(exp+52+1023)<<52 | sig&(1<<52-1))
}

// number reads a number for a field of type into. It returns nil and
// no error for a null, and an error for any other value.
func (r *Reader) number(into string) ([]byte, error) {
	if c := r.peek(); c != '-' && (c < '0' || c > '9') {
		return nil, r.nullOr(into)
	}
	start := r.pos
	end, ok := scanNumber(r.data, start)
	r.pos = end
	if !ok {
		return nil, r.syntaxError("in numeric literal")
	}
	return r.data[start:end], nil
}

// scanNumber returns the end of the RFC 8259 number at b[i:], or where
// the grammar fails and false.
func scanNumber(b []byte, i int) (int, bool) {
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i+1)
	default:
		return i, false
	}
	if i < len(b) && b[i] == '.' {
		if i = digits(b, i+1); b[i-1] == '.' {
			return i, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		start := i
		if i = digits(b, i); i == start {
			return i, false
		}
	}
	return i, true
}

// digits returns the end of the run of decimal digits at b[i:].
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// nullOr reads the value where a field of type into was expected:
// nothing for a null, a type error for any other valid value.
func (r *Reader) nullOr(into string) error {
	start := r.pos
	null := r.peek() == 'n'
	if err := r.skip(); err != nil || null {
		return err
	}
	return fmt.Errorf("jsonread: cannot decode %s at offset %d into %s", kind(r.data[start]), start, into)
}

// kind names the JSON type of a value by its first byte.
func kind(c byte) string {
	switch c {
	case '{':
		return "object"
	case '[':
		return "array"
	case '"':
		return "string"
	case 't', 'f':
		return "bool"
	default:
		return "number"
	}
}

// skip validates and skips one value.
func (r *Reader) skip() error {
	switch c := r.peek(); {
	case c == '{':
		return r.Object(nil, nil)
	case c == '[':
		_, err := r.array(func(int) error { return r.skip() })
		return err
	case c == '"':
		_, err := r.str()
		return err
	case c == '-' || '0' <= c && c <= '9':
		_, err := r.number("")
		return err
	}
	for _, lit := range [...]string{"null", "true", "false"} {
		if bytes.HasPrefix(r.data[r.pos:], []byte(lit)) {
			r.pos += len(lit)
			return nil
		}
	}
	return r.syntaxError("looking for beginning of value")
}

// array reads an array, calling elem for each element, and returns
// the element count.
func (r *Reader) array(elem func(i int) error) (int, error) {
	if err := r.enter(); err != nil {
		return 0, err
	}
	if r.peek() == ']' {
		r.leave()
		return 0, nil
	}
	for i := 0; ; i++ {
		if err := elem(i); err != nil {
			return 0, err
		}
		r.skipSpace()
		switch r.peek() {
		case ',':
			r.pos++
			r.skipSpace()
		case ']':
			r.leave()
			return i + 1, nil
		default:
			return 0, r.syntaxError("after array element")
		}
	}
}

// enter consumes a container's opening byte and the whitespace after it.
func (r *Reader) enter() error {
	r.depth++
	if r.depth > maxDepth {
		return fmt.Errorf("jsonread: exceeded max depth at offset %d", r.pos)
	}
	r.pos++
	r.skipSpace()
	return nil
}

// leave consumes a container's closing byte.
func (r *Reader) leave() {
	r.depth--
	r.pos++
}

// str reads a string and returns its bytes between the quotes, still
// escaped.
func (r *Reader) str() ([]byte, error) {
	r.pos++
	start := r.pos
	for r.pos < len(r.data) {
		switch c := r.data[r.pos]; {
		case c == '"':
			r.pos++
			return r.data[start : r.pos-1], nil
		case c < ' ':
			return nil, r.syntaxError("in string literal")
		case c == '\\':
			r.pos++
			switch r.peek() {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				r.pos++
			case 'u':
				r.pos++
				for i := 0; i < 4; i++ {
					if !isHex(r.peek()) {
						return nil, r.syntaxError("in \\u hexadecimal character escape")
					}
					r.pos++
				}
			default:
				return nil, r.syntaxError("in string escape code")
			}
		default:
			r.pos++
		}
	}
	return nil, r.syntaxError("in string literal")
}

func (r *Reader) skipSpace() {
	i := r.pos
	for i < len(r.data) && (r.data[i] == ' ' || r.data[i] == '\t' || r.data[i] == '\n' || r.data[i] == '\r') {
		i++
	}
	if i > r.pos {
		r.pos, r.space = i, true
	}
}

// peek returns the next byte, or 0 at the end of the input, where no
// JSON value or delimiter can start.
func (r *Reader) peek() byte {
	if r.pos < len(r.data) {
		return r.data[r.pos]
	}
	return 0
}

func (r *Reader) syntaxError(context string) error {
	if r.pos >= len(r.data) {
		return fmt.Errorf("jsonread: unexpected end of JSON input")
	}
	return fmt.Errorf("jsonread: invalid character %q at offset %d %s", r.data[r.pos], r.pos, context)
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// unquote returns the value of the validated string body s as
// Unmarshal decodes it: escapes resolved, a \u surrogate pair joined,
// and an unpaired surrogate or a byte of invalid UTF-8 replaced by
// U+FFFD. A body that needs none of that is returned as is.
func unquote(s []byte) []byte {
	if bytes.IndexByte(s, '\\') < 0 && utf8.Valid(s) {
		return s
	}
	b := make([]byte, 0, len(s)+utf8.UTFMax)
	for i := 0; i < len(s); {
		switch c := s[i]; {
		case c == '\\' && s[i+1] == 'u':
			r := hex4(s[i+2:])
			i += 6
			if utf16.IsSurrogate(r) {
				r2 := rune(-1)
				if i+6 <= len(s) && s[i] == '\\' && s[i+1] == 'u' {
					r2 = hex4(s[i+2:])
				}
				if r = utf16.DecodeRune(r, r2); r != unicode.ReplacementChar {
					i += 6
				}
			}
			b = utf8.AppendRune(b, r)
		case c == '\\':
			b = append(b, unescape(s[i+1]))
			i += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			r, n := utf8.DecodeRune(s[i:])
			b = utf8.AppendRune(b, r)
			i += n
		}
	}
	return b
}

// unescape maps the byte after a backslash, other than u, to the byte
// it stands for.
func unescape(c byte) byte {
	if i := strings.IndexByte("bfnrt", c); i >= 0 {
		return "\b\f\n\r\t"[i]
	}
	return c // '"', '\\' or '/'
}

// hex4 decodes the four validated hex digits at the start of s.
func hex4(s []byte) rune {
	var r rune
	for _, c := range s[:4] {
		switch {
		case c <= '9':
			c -= '0'
		case c <= 'F':
			c -= 'A' - 10
		default:
			c -= 'a' - 10
		}
		r = r<<4 | rune(c)
	}
	return r
}
