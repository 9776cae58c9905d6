package ckpt

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"unicode/utf8"
)

// The journal line codec.  A line is the exact bytes json.Marshal
// writes for a Record — field order, omitempty rules, standard base64
// for the payload, encoding/json's string escaping — so journals from
// every version of this package read the same.  Encoding and decoding
// are hand-rolled only because the generic path costs more than the
// bytes do: a done record carries its result as ~44 KB of base64, and
// encoding/json validates and decodes that string in two passes.

// errLine reports a line that is not the canonical encoding of any
// record: torn, corrupt, or written by something other than this codec.
var errLine = errors.New("ckpt: not a canonical journal line")

// appendRecord appends r's journal line, without its newline.
func appendRecord(b []byte, r *Record) []byte {
	b = append(b, `{"key":`...)
	b = appendString(b, r.Key)
	b = append(b, `,"status":`...)
	b = appendString(b, string(r.Status))
	if r.Digest != "" {
		b = append(b, `,"digest":`...)
		b = appendString(b, r.Digest)
	}
	if len(r.Payload) > 0 {
		b = append(b, `,"payload":"`...)
		b = base64.StdEncoding.AppendEncode(b, r.Payload)
		b = append(b, '"')
	}
	if r.Error != "" {
		b = append(b, `,"error":`...)
		b = appendString(b, r.Error)
	}
	return append(b, '}')
}

// commitLine appends the line Commit writes for r: r's encoding, with
// every byte of a string field that is not valid UTF-8 already replaced
// by U+FFFD.  encoding/json writes such a byte as the escape \ufffd,
// which decodes to a U+FFFD that re-encodes raw, so the line would not
// be canonical and every replay would stop at it.
func commitLine(b []byte, r Record) []byte {
	r.Key, r.Digest, r.Error = validUTF8(r.Key), validUTF8(r.Digest), validUTF8(r.Error)
	r.Status = Status(validUTF8(string(r.Status)))
	return appendRecord(b, &r)
}

// validUTF8 replaces each byte of s outside valid UTF-8 with U+FFFD.
func validUTF8(s string) string {
	if utf8.ValidString(s) {
		return s
	}
	b := make([]byte, 0, len(s)+8)
	for _, c := range s {
		b = utf8.AppendRune(b, c) // an invalid byte ranges as U+FFFD
	}
	return string(b)
}

// appendString appends s quoted as encoding/json quotes it.  Printable
// ASCII that JSON and its HTML-safe mode leave alone is copied; any
// other string is quoted by encoding/json itself.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// DecodeRecord decodes one journal line (without its line end).  It
// accepts only the canonical encoding — the exact bytes Commit writes
// for the record decoded — so a torn, reordered, re-spaced or
// re-escaped line is an error, never a different record.
func DecodeRecord(line []byte) (Record, error) {
	r, _, err := decodeRecord(line, nil)
	return r, err
}

// decodeRecord is DecodeRecord with a scratch buffer for the canonical
// re-encoding, returned grown so one replay reuses it line after line.
func decodeRecord(line, scratch []byte) (Record, []byte, error) {
	var r Record
	rest, ok := field(line, `{"key":`)
	if ok {
		r.Key, rest, ok = quoted(rest)
	}
	if ok {
		rest, ok = field(rest, `,"status":`)
	}
	if ok {
		var s string
		s, rest, ok = quoted(rest)
		r.Status = Status(s)
	}
	if ok {
		if tail, has := field(rest, `,"digest":`); has {
			r.Digest, rest, ok = quoted(tail)
		}
	}
	if ok {
		if tail, has := field(rest, `,"payload":"`); has {
			r.Payload, rest, ok = payload(tail)
		}
	}
	if ok {
		if tail, has := field(rest, `,"error":`); has {
			r.Error, _, ok = quoted(tail)
		}
	}
	if !ok {
		return Record{}, scratch, errLine
	}
	// Canonical only: whatever the fields above skipped or normalised
	// (trailing bytes, escapes, base64 padding bits) shows as a
	// difference from the line this record encodes to.
	scratch = appendRecord(scratch[:0], &r)
	if !bytes.Equal(scratch, line) {
		return Record{}, scratch, errLine
	}
	return r, scratch, nil
}

// field reports b with the literal prefix p removed, if b starts with it.
func field(b []byte, p string) ([]byte, bool) {
	if len(b) < len(p) || string(b[:len(p)]) != p {
		return b, false
	}
	return b[len(p):], true
}

// quoted splits the JSON string token at the front of b off and decodes
// it.  Tokens without escapes are taken as they stand; the rest are
// decoded by encoding/json, the escaping's reference.
func quoted(b []byte) (string, []byte, bool) {
	if len(b) == 0 || b[0] != '"' {
		return "", b, false
	}
	escaped := false
	for i := 1; i < len(b); i++ {
		switch b[i] {
		case '\\':
			escaped = true
			i++ // the escaped byte cannot end the token
		case '"':
			if !escaped {
				return string(b[1:i]), b[i+1:], true
			}
			var s string
			if json.Unmarshal(b[:i+1], &s) != nil {
				return "", b, false
			}
			return s, b[i+1:], true
		}
	}
	return "", b, false
}

// payload decodes the base64 text before the next quote in b.
func payload(b []byte) ([]byte, []byte, bool) {
	n := bytes.IndexByte(b, '"')
	if n < 0 {
		return nil, b, false
	}
	p := make([]byte, base64.StdEncoding.DecodedLen(n))
	m, err := base64.StdEncoding.Decode(p, b[:n])
	if err != nil {
		return nil, b, false
	}
	return p[:m], b[n+1:], true
}
