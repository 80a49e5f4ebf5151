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
// structural validation and the loader's check (the registry's audit)
// protect them.
package snapshot

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"

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
	if _, err := io.WriteString(w, head); err != nil {
		return err
	}
	if _, err := w.Write(doc); err != nil {
		return err
	}
	_, err := io.WriteString(w, "}\n")
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
//
// The payload is hashed while it is decoded: at the first "payload"
// key a second goroutine hashes the bytes where Write puts the payload,
// from there to the container's closing brace. Decode uses that sum
// only when the payload it decoded is exactly those bytes, compact;
// any other payload is hashed after the decode. The goroutine never
// outlives Decode.
func Decode(raw []byte) (*core.Synopsis, error) {
	var (
		format, declared    string
		checksumErr, docErr error
		payload             []byte
		payloadAt           int
		compact             bool
		doc                 core.Document
		early               earlySum
	)
	defer early.done.Wait()
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
				payloadAt = r.Offset()
				early.start(raw, payloadAt)
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
		sum, ok := early.of(payloadAt, len(payload), compact)
		if !ok {
			// A payload with no whitespace outside its strings is already
			// what json.Compact would return, byte for byte, and is
			// hashed in place.
			if !compact {
				var buf bytes.Buffer
				if err := json.Compact(&buf, payload); err != nil {
					return nil, fmt.Errorf("%w: unhashable payload: %v", ErrChecksum, err)
				}
				payload = buf.Bytes()
			}
			sum = checksum(payload)
		}
		if sum != declared {
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

// earlySum hashes the bytes where a container written by Write holds
// its payload, on a goroutine of its own while the payload is decoded.
type earlySum struct {
	from, to int // the range hashed; to is 0 until a hash starts
	sum      string
	done     sync.WaitGroup
}

// start begins hashing raw from the payload's first byte, at offset
// from, to the container's closing brace, with the whitespace before
// the brace and after it trimmed. It starts nothing if a hash has
// started already or if raw ends in no brace after from.
func (e *earlySum) start(raw []byte, from int) {
	end := bytes.TrimRight(raw, jsonSpace)
	if e.to != 0 || len(end) <= from || end[len(end)-1] != '}' {
		return
	}
	e.from, e.to = from, from+len(bytes.TrimRight(end[from:len(end)-1], jsonSpace))
	e.done.Add(1)
	go func() {
		defer e.done.Done()
		e.sum = checksum(raw[e.from:e.to])
	}()
}

// of waits for the hash and returns it if the payload, n bytes at
// offset at, is the range hashed and compact.
func (e *earlySum) of(at, n int, compact bool) (string, bool) {
	e.done.Wait()
	if !compact || e.to == 0 || at != e.from || at+n != e.to {
		return "", false
	}
	return e.sum, true
}

// jsonSpace is the whitespace JSON allows between tokens.
const jsonSpace = " \t\r\n"
