// Package snapshot is the durability layer for published synopses. A
// v2 snapshot is a JSON container wrapping the v1 synopsis document
// with a SHA-256 checksum, so torn writes and bit rot are detected at
// load time instead of silently serving corrupted marginals. Writes
// are atomic (temp file + fsync + rename + directory fsync), and the
// Store keeps a bounded history of snapshots, quarantining corrupt
// files and falling back to the newest verifiable one.
//
// Bare v1 files (written by core.Save before the container existed)
// are still readable; they simply carry no checksum, so only the
// structural and audit checks protect them.
package snapshot

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"

	"priview/internal/core"
	"priview/internal/jsonread"
)

// FormatV2 identifies the checksummed container,
//
//	{"format":"priview-synopsis-v2","checksum":"sha256:<hex>","payload":<v1 document>}
//
// whose payload is the complete v1 synopsis document verbatim. The
// checksum is taken over the JSON-compacted payload bytes, so it is
// stable under the whitespace differences JSON round-trips may
// introduce while still covering every semantic byte.
const FormatV2 = "priview-synopsis-v2"

// ErrChecksum reports that a v2 snapshot's payload does not hash to its
// declared checksum — the file was torn, bit-flipped or hand-edited.
var ErrChecksum = errors.New("snapshot: checksum mismatch")

// ErrFormat reports bytes that are neither a v2 container nor a bare v1
// synopsis.
var ErrFormat = errors.New("snapshot: unrecognized format")

// checksum returns "sha256:<hex>" over a compacted payload.
func checksum(compacted []byte) string {
	sum := sha256.Sum256(compacted)
	return "sha256:" + hex.EncodeToString(sum[:])
}

// Write serializes the synopsis as a v2 checksummed snapshot. The
// synopsis is validated by core.Save's rules first (non-finite cells
// are rejected), so a checksum is only ever computed over a
// publishable payload.
func Write(w io.Writer, s *core.Synopsis) error {
	var payload bytes.Buffer
	if err := s.Save(&payload); err != nil {
		return err
	}
	// Save writes one compact document and a newline, so the document is
	// hashed in place and goes into the container as it stands.
	doc := bytes.TrimSuffix(payload.Bytes(), []byte("\n"))
	head := `{"format":"` + FormatV2 + `","checksum":"` + checksum(doc) + `","payload":`
	_, err := w.Write(slices.Concat([]byte(head), doc, []byte("}\n")))
	return err
}

// Read loads a snapshot: a v2 container (checksum verified, then the
// payload goes through core.Load's strict validation) or a bare v1
// synopsis for backward compatibility. Arbitrary bytes produce an
// error, never a panic.
func Read(r io.Reader) (*core.Synopsis, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("snapshot: reading: %w", err)
	}
	return Decode(raw)
}

// envelopeFields are the JSON field names of the v2 container.
var envelopeFields = []string{"format", "checksum", "payload"}

// Decode is Read over an in-memory byte slice, in one validating pass
// over the container. It decodes format and checksum, and decodes the
// payload with core's decoder while it notes the payload's bytes and
// whether they hold whitespace outside strings; the format then
// decides what is used. A v2 container fails with ErrFormat, then
// ErrChecksum, then the error core.Load gives for the payload alone,
// and its synopsis is built only once the checksum matches. The
// checksum and the payload are used only for a v2 container, so a bare
// v1 document with a stray "checksum" or "payload" key of any JSON type
// still loads.
func Decode(raw []byte) (*core.Synopsis, error) {
	var (
		format, declared    string
		checksumErr, docErr error
		payload             []byte
		compact             bool
		doc                 core.Document
	)
	err := jsonread.Parse(raw, func(r *jsonread.Reader) error {
		return r.Object(envelopeFields, func(name string) error {
			var err error
			switch name {
			case "format":
				return r.String(&format)
			case "checksum":
				// A string field, except that a type error fails only a
				// v2 container.
				var derr error
				_, _, derr, err = r.DecodeRaw(func(vr *jsonread.Reader) error { return vr.String(&declared) })
				if checksumErr == nil {
					checksumErr = derr
				}
			default:
				// The last payload wins, decoded afresh, as core.Load
				// would decode the bytes a json.RawMessage field keeps.
				doc = core.Document{}
				payload, compact, docErr, err = r.DecodeRaw(doc.Decode)
			}
			return err
		})
	})
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	switch format {
	case FormatV2:
		if checksumErr != nil {
			return nil, fmt.Errorf("%w: checksum: %v", ErrFormat, checksumErr)
		}
		if len(payload) == 0 {
			return nil, fmt.Errorf("%w: empty payload", ErrFormat)
		}
		// A payload with no whitespace outside its strings — what Write
		// writes — is already what json.Compact would return, byte for
		// byte, and is hashed in place.
		if !compact {
			var buf bytes.Buffer
			if err := json.Compact(&buf, payload); err != nil {
				return nil, fmt.Errorf("%w: unhashable payload: %v", ErrChecksum, err)
			}
			payload = buf.Bytes()
		}
		if sum := checksum(payload); sum != declared {
			return nil, fmt.Errorf("%w: payload hashes to %s, header declares %s", ErrChecksum, sum, declared)
		}
		if docErr != nil {
			return nil, docErr
		}
		return doc.Synopsis()
	case core.SynopsisFormatV1:
		return core.Load(raw)
	default:
		return nil, fmt.Errorf("%w: format %q", ErrFormat, format)
	}
}
