package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"priview/internal/attrset"
	"priview/internal/covering"
	"priview/internal/jsonread"
	"priview/internal/marginal"
)

// synopsisFile is the on-disk JSON representation of a published
// synopsis: the (already post-processed) view tables plus enough
// metadata to reconstruct queries and audit the release.
type synopsisFile struct {
	Format  string     `json:"format"`
	Epsilon float64    `json:"epsilon"`
	Total   float64    `json:"total"`
	Design  designFile `json:"design"`
	Views   []viewFile `json:"views"`
}

type designFile struct {
	D      int     `json:"d"`
	T      int     `json:"t"`
	L      int     `json:"l"`
	Blocks [][]int `json:"blocks"`
}

type viewFile struct {
	Attrs []int     `json:"attrs"`
	Cells []float64 `json:"cells"`
}

const synopsisFormat = "priview-synopsis-v1"

// SynopsisFormatV1 is the legacy on-disk format identifier written by
// Save; the snapshot package wraps the same payload in a checksummed v2
// container.
const SynopsisFormatV1 = synopsisFormat

// ErrNonFinite reports a NaN or ±Inf where the synopsis must be finite.
// Save refuses to publish such a synopsis (a reader could not
// distinguish the poisoned cells from real counts), and Load refuses to
// accept one.
var ErrNonFinite = errors.New("core: non-finite value in synopsis")

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Validate checks that the synopsis is structurally publishable: finite
// epsilon, total and cells, and per-view cell counts matching 2^|attrs|.
// Save runs it before writing anything, so a poisoned synopsis fails
// with a typed error instead of encoding/json's opaque
// "unsupported value: NaN" from deep inside the encoder.
func (s *Synopsis) Validate() error {
	if !finite(s.cfg.Epsilon) || s.cfg.Epsilon < 0 {
		return fmt.Errorf("%w: epsilon is %v", ErrNonFinite, s.cfg.Epsilon)
	}
	if !finite(s.total) {
		return fmt.Errorf("%w: total is %v", ErrNonFinite, s.total)
	}
	for i, v := range s.views {
		if len(v.Cells) != 1<<uint(len(v.Attrs)) {
			return fmt.Errorf("core: view %d (attrs %v) has %d cells, want %d",
				i, v.Attrs, len(v.Cells), 1<<uint(len(v.Attrs)))
		}
		for j, c := range v.Cells {
			if !finite(c) {
				return fmt.Errorf("%w: view %d (attrs %v) cell %d is %v", ErrNonFinite, i, v.Attrs, j, c)
			}
		}
	}
	return nil
}

// Save serializes the synopsis as JSON. Only the post-processed
// views are stored — they are the published object; raw noisy views are
// an intermediate artifact. A synopsis carrying non-finite cells is
// rejected with ErrNonFinite before any bytes are written.
func (s *Synopsis) Save(w io.Writer) error {
	if err := s.Validate(); err != nil {
		return err
	}
	f := synopsisFile{
		Format:  synopsisFormat,
		Epsilon: s.cfg.Epsilon,
		Total:   s.total,
	}
	if s.cfg.Design != nil {
		f.Design = designFile{
			D: s.cfg.Design.D, T: s.cfg.Design.T, L: s.cfg.Design.L,
			Blocks: s.cfg.Design.Blocks,
		}
	}
	for _, v := range s.views {
		f.Views = append(f.Views, viewFile{Attrs: v.Attrs, Cells: v.Cells})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&f)
}

// Load decodes a synopsis previously written with Save; raw holds that
// one JSON document, with nothing but whitespace after it. The views
// are used as-is (they were post-processed before saving); Query uses
// the maximum-entropy estimator, and QueryMethod or a BatchRequest
// names any other.
//
// Load validates the document before building anything: unknown
// formats, non-finite values, cell counts disagreeing with the
// attribute sets, unsorted or out-of-range attributes, duplicate views
// and malformed designs are all rejected with a descriptive error —
// never accepted silently, and never a panic, whatever the input bytes.
func Load(raw []byte) (*Synopsis, error) {
	f, err := decodeFile(raw)
	if err != nil {
		return nil, decodingError(err)
	}
	return fromFile(f)
}

// decodingError is Load's error for a document it cannot decode.
func decodingError(err error) error { return fmt.Errorf("core: decoding synopsis: %w", err) }

// Document is a v1 document decoded but not yet validated: Load in two
// steps, for a reader that meets the document inside a larger one and
// builds the synopsis only once it trusts the bytes.
type Document struct{ f synopsisFile }

// Decode reads a v1 document from r into the zero Document d, with the
// error Load gives for the document's bytes alone when r reads them as
// a document of its own (jsonread.Reader.DecodeRaw).
func (d *Document) Decode(r *jsonread.Reader) error {
	if err := readFile(r, &d.f); err != nil {
		return decodingError(err)
	}
	return nil
}

// Synopsis validates the decoded document and builds its synopsis, as
// Load does.
func (d *Document) Synopsis() (*Synopsis, error) { return fromFile(d.f) }

// The JSON field names of synopsisFile, designFile and viewFile.
var (
	fileFields   = []string{"format", "epsilon", "total", "design", "views"}
	designFields = []string{"d", "t", "l", "blocks"}
	viewFields   = []string{"attrs", "cells"}
)

// maxHintAttrs caps the attribute count that sizes a view's cells
// before the decoder has seen them: the paper's views have at most 8
// attributes, and a corrupt attrs list must not buy a large allocation.
const maxHintAttrs = 8

// decodeFile decodes a v1 document into a synopsisFile, with the
// results json.Unmarshal gives, in one pass over the bytes.
func decodeFile(raw []byte) (synopsisFile, error) {
	var f synopsisFile
	err := jsonread.Parse(raw, func(r *jsonread.Reader) error { return readFile(r, &f) })
	return f, err
}

// readFile decodes the v1 document at r into f.
func readFile(r *jsonread.Reader, f *synopsisFile) error {
	return r.Object(fileFields, func(name string) error {
		switch name {
		case "format":
			return r.String(&f.Format)
		case "epsilon":
			return r.Float(&f.Epsilon)
		case "total":
			return r.Float(&f.Total)
		case "design":
			return decodeDesign(r, &f.Design)
		default:
			return jsonread.Slice(r, &f.Views, 0, func(v *viewFile) error { return decodeView(r, v) })
		}
	})
}

func decodeDesign(r *jsonread.Reader, d *designFile) error {
	return r.Object(designFields, func(name string) error {
		switch name {
		case "d":
			return r.Int(&d.D)
		case "t":
			return r.Int(&d.T)
		case "l":
			return r.Int(&d.L)
		default:
			return jsonread.Slice(r, &d.Blocks, 0, func(b *[]int) error { return jsonread.Slice(r, b, 0, r.Int) })
		}
	})
}

func decodeView(r *jsonread.Reader, v *viewFile) error {
	return r.Object(viewFields, func(name string) error {
		if name == "attrs" {
			return jsonread.Slice(r, &v.Attrs, 0, r.Int)
		}
		return jsonread.Slice(r, &v.Cells, 1<<min(len(v.Attrs), maxHintAttrs), r.Float)
	})
}

// fromFile validates a decoded document and builds its synopsis. The
// views were published as they stand, so they serve as the raw views
// too.
func fromFile(f synopsisFile) (*Synopsis, error) {
	if f.Format != synopsisFormat {
		return nil, fmt.Errorf("core: unknown synopsis format %q", f.Format)
	}
	if len(f.Views) == 0 {
		return nil, fmt.Errorf("core: synopsis has no views")
	}
	if !finite(f.Epsilon) || f.Epsilon < 0 {
		return nil, fmt.Errorf("%w: epsilon is %v", ErrNonFinite, f.Epsilon)
	}
	if !finite(f.Total) {
		return nil, fmt.Errorf("%w: total is %v", ErrNonFinite, f.Total)
	}
	design, err := loadDesign(f.Design)
	if err != nil {
		return nil, err
	}
	views := make([]*marginal.Table, len(f.Views))
	seen := map[attrset.Set]int{}
	for i, vf := range f.Views {
		key, err := validAttrs(vf.Attrs, design)
		if err != nil {
			return nil, fmt.Errorf("core: view %d: %w", i, err)
		}
		// Check the declared cell count BEFORE allocating the table, so
		// a corrupt attrs list cannot force a 2^30-cell allocation that
		// the next line would reject anyway.
		if want := 1 << uint(len(vf.Attrs)); len(vf.Cells) != want {
			return nil, fmt.Errorf("core: view %d has %d cells, want %d", i, len(vf.Cells), want)
		}
		for j, c := range vf.Cells {
			if !finite(c) {
				return nil, fmt.Errorf("%w: view %d cell %d is %v", ErrNonFinite, i, j, c)
			}
		}
		if prev, dup := seen[key]; dup {
			return nil, fmt.Errorf("core: views %d and %d both cover attributes %v", prev, i, vf.Attrs)
		}
		seen[key] = i
		t := marginal.New(vf.Attrs)
		copy(t.Cells, vf.Cells)
		views[i] = t
	}
	s := &Synopsis{
		cfg:      Config{Epsilon: f.Epsilon, Design: design, Method: CME},
		views:    views,
		rawViews: views,
		total:    f.Total,
	}
	return s, nil
}

// maxLoadAttrs bounds a loaded view's attribute count. It matches the
// marginal package's table-size limit; anything larger would need ≥ 2^31
// cells and cannot be a real view.
const maxLoadAttrs = 30

// validAttrs checks a view attribute list — strictly ascending, within
// the global [0, 64) range (attrset's typed ErrRange/ErrDuplicate),
// inside the design's dimensionality when a design is present, and
// small enough to index a table — and returns the packed set, which
// Load uses as the duplicate-view key.
func validAttrs(attrs []int, design *covering.Design) (attrset.Set, error) {
	if len(attrs) > maxLoadAttrs {
		return 0, fmt.Errorf("has %d attributes, max %d", len(attrs), maxLoadAttrs)
	}
	key, err := attrset.FromAttrs(attrs)
	if err != nil {
		return 0, err
	}
	for i, a := range attrs {
		if design != nil && a >= design.D {
			return 0, fmt.Errorf("attribute %d outside design over %d attributes", a, design.D)
		}
		if i > 0 && a <= attrs[i-1] {
			return 0, fmt.Errorf("attributes %v not strictly ascending", attrs)
		}
	}
	return key, nil
}

// loadDesign validates and builds the covering design from its file
// form. A zero design (the serialization of a synopsis built without
// one) loads as nil rather than as an unusable zero-dimensional design.
func loadDesign(df designFile) (*covering.Design, error) {
	if df.D == 0 && len(df.Blocks) == 0 {
		return nil, nil
	}
	if df.D < 1 || df.D > 64 {
		return nil, fmt.Errorf("core: design dimension %d out of range [1, 64]", df.D)
	}
	if df.T < 0 || df.L < 0 {
		return nil, fmt.Errorf("core: design has negative parameters (t=%d, ℓ=%d)", df.T, df.L)
	}
	for i, b := range df.Blocks {
		for j, a := range b {
			if a < 0 || a >= df.D {
				return nil, fmt.Errorf("core: design block %d contains out-of-range attribute %d", i, a)
			}
			if j > 0 && a <= b[j-1] {
				return nil, fmt.Errorf("core: design block %d not strictly ascending", i)
			}
		}
	}
	return &covering.Design{D: df.D, T: df.T, L: df.L, Blocks: df.Blocks}, nil
}
