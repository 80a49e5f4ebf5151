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

	"priview/internal/core"
	"priview/internal/jsonread"
)

// FormatV2 identifies the checksummed container.
const FormatV2 = "priview-synopsis-v2"

// ErrChecksum reports that a v2 snapshot's payload does not hash to its
// declared checksum — the file was torn, bit-flipped or hand-edited.
var ErrChecksum = errors.New("snapshot: checksum mismatch")

// ErrFormat reports bytes that are neither a v2 container nor a bare v1
// synopsis.
var ErrFormat = errors.New("snapshot: unrecognized format")

// envelope is the on-disk v2 container. Payload holds the complete v1
// synopsis document verbatim; Checksum is "sha256:<hex>" over the
// JSON-compacted payload bytes, so checksums are stable under the
// whitespace differences JSON round-trips may introduce while still
// covering every semantic byte.
type envelope struct {
	Format   string          `json:"format"`
	Checksum string          `json:"checksum"`
	Payload  json.RawMessage `json:"payload"`
}

// checksum returns "sha256:<hex>" over the compacted payload, which
// must be valid JSON. compact reports that the payload holds no
// whitespace outside its strings: it is then already what json.Compact
// would return, byte for byte, and is hashed in place.
func checksum(payload []byte, compact bool) (string, error) {
	if !compact {
		var buf bytes.Buffer
		if err := json.Compact(&buf, payload); err != nil {
			return "", fmt.Errorf("snapshot: payload is not valid JSON: %w", err)
		}
		payload = buf.Bytes()
	}
	sum := sha256.Sum256(payload)
	return "sha256:" + hex.EncodeToString(sum[:]), nil
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
	sum, err := checksum(payload.Bytes(), false)
	if err != nil {
		return err
	}
	env := envelope{Format: FormatV2, Checksum: sum, Payload: json.RawMessage(bytes.TrimSpace(payload.Bytes()))}
	enc := json.NewEncoder(w)
	return enc.Encode(&env)
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

// envelopeFields are the JSON field names of envelope.
var envelopeFields = []string{"format", "checksum", "payload"}

// Decode is Read over an in-memory byte slice. One validating pass
// over the envelope decodes format and checksum, notes where the
// payload value lies and whether it holds whitespace outside strings,
// and the format then decides what else is read. The checksum and the
// payload are used only for a v2 container, so a bare v1 document with
// a stray "checksum" or "payload" key of any JSON type still loads.
func Decode(raw []byte) (*core.Synopsis, error) {
	var (
		format, declared string
		checksumErr      error
		payload          []byte
		compact          bool
	)
	err := jsonread.Parse(raw, func(r *jsonread.Reader) error {
		return r.Object(envelopeFields, func(name string) error {
			switch name {
			case "format":
				return r.String(&format)
			case "checksum":
				// A string field, except that a type error fails only a
				// v2 container.
				v, _, err := r.Raw()
				if err == nil && checksumErr == nil {
					checksumErr = jsonread.Parse(v, func(vr *jsonread.Reader) error { return vr.String(&declared) })
				}
				return err
			default:
				var err error
				payload, compact, err = r.Raw()
				return err
			}
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
		sum, err := checksum(payload, compact)
		if err != nil {
			return nil, fmt.Errorf("%w: unhashable payload: %v", ErrChecksum, err)
		}
		if sum != declared {
			return nil, fmt.Errorf("%w: payload hashes to %s, header declares %s", ErrChecksum, sum, declared)
		}
		return core.Load(payload)
	case core.SynopsisFormatV1:
		return core.Load(raw)
	default:
		return nil, fmt.Errorf("%w: format %q", ErrFormat, format)
	}
}
