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
// must be valid JSON. A payload with no whitespace outside its strings
// is already what json.Compact would return, byte for byte, so it is
// hashed in place; only one that holds such whitespace is compacted.
func checksum(payload []byte) (string, error) {
	compact := payload
	if !isCompact(payload) {
		var buf bytes.Buffer
		if err := json.Compact(&buf, payload); err != nil {
			return "", fmt.Errorf("snapshot: payload is not valid JSON: %w", err)
		}
		compact = buf.Bytes()
	}
	sum := sha256.Sum256(compact)
	return "sha256:" + hex.EncodeToString(sum[:]), nil
}

// isCompact reports whether the valid JSON document b holds no
// whitespace outside its strings. Inside a string, a backslash escapes
// the byte after it, so an escaped quote does not end the string.
func isCompact(b []byte) bool {
	inString := false
	for i := 0; i < len(b); i++ {
		switch c := b[i]; {
		case inString && c == '\\':
			i++
		case c == '"':
			inString = !inString
		case !inString && (c == ' ' || c == '\t' || c == '\n' || c == '\r'):
			return false
		}
	}
	return true
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
	sum, err := checksum(payload.Bytes())
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

// Decode is Read over an in-memory byte slice. It unmarshals the
// envelope once and switches on its format. The checksum and the raw
// payload are read only for a v2 container, so a bare v1 document with
// a stray "checksum" or "payload" key of any JSON type still loads.
func Decode(raw []byte) (*core.Synopsis, error) {
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
		declared := env.Checksum.s
		if len(env.Payload) == 0 {
			return nil, fmt.Errorf("%w: empty payload", ErrFormat)
		}
		sum, err := checksum(env.Payload)
		if err != nil {
			return nil, fmt.Errorf("%w: unhashable payload: %v", ErrChecksum, err)
		}
		if sum != declared {
			return nil, fmt.Errorf("%w: payload hashes to %s, header declares %s", ErrChecksum, sum, declared)
		}
		return core.Load(bytes.NewReader(env.Payload))
	case core.SynopsisFormatV1:
		return core.Load(bytes.NewReader(raw))
	default:
		return nil, fmt.Errorf("%w: format %q", ErrFormat, env.Format)
	}
}
