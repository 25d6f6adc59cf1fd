// Job-spec decoding: the one place a request body becomes a JobSpec,
// for the shard's POST /jobs and for the cluster router alike.
//
// An upload body is mostly one string, the Matrix Market document
// (serve_cold's are ≈ 100 KB with a few hundred bytes of other fields).
// encoding/json reads such a string byte by byte through its scanner
// and then again to unquote it. DecodeJobSpec instead walks the
// object's top-level members with a byte scanner, lifts the upload's
// string out in one pass, and hands the rest — the body with that value
// replaced by "" — to encoding/json, so every other field keeps the
// standard library's semantics and error text.
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"unicode/utf8"
)

// DecodeJobSpec decodes one job spec strictly: an unknown field, a
// malformed value or anything but whitespace after the object is an
// error. The result is the one encoding/json's Decoder gives with
// DisallowUnknownFields (FuzzDecodeJobSpec holds the two equal).
func DecodeJobSpec(body []byte) (JobSpec, error) {
	var sp JobSpec
	lo, hi, ok := uploadSpan(body)
	if !ok {
		return sp, decodeStrict(body, &sp)
	}
	mm, ok := unquote(body[lo+1 : hi-1])
	if !ok && json.Unmarshal(body[lo:hi], &mm) != nil {
		// A malformed upload string: the whole body reports it.
		return sp, decodeStrict(body, &sp)
	}
	rest := make([]byte, 0, len(body)-(hi-lo)+2)
	rest = append(append(append(rest, body[:lo]...), `""`...), body[hi:]...)
	if err := decodeStrict(rest, &sp); err != nil {
		return sp, err
	}
	sp.MatrixMarket = mm
	return sp, nil
}

var errTrailing = errors.New("json: data after the top-level value")

// decodeStrict is the standard-library decode under a job spec's
// small remainder: encoding/json with unknown fields refused, then
// nothing but whitespace after the value.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if skipSpace(data, int(dec.InputOffset())) < len(data) {
		return errTrailing
	}
	return nil
}

var uploadKey = []byte("matrix_market")

// uploadSpan returns the extent [lo, hi), quotes included, of the
// string value of the body's last top-level "matrix_market" member. It
// reports false — decode the whole body — when that member is absent or
// not a string, when a case-folded spelling of the key comes after it
// (encoding/json matches keys case-insensitively, and the last match
// wins), when a top-level key is escaped, or when the scanner cannot
// walk the body. It validates nothing it skips: with the value replaced
// by "", encoding/json reads every other byte, and a body that is
// malformed before or after the value is still malformed.
func uploadSpan(b []byte) (lo, hi int, ok bool) {
	i := skipSpace(b, 0)
	if i == len(b) || b[i] != '{' {
		return 0, 0, false
	}
	i = skipSpace(b, i+1)
	for i < len(b) && b[i] == '"' {
		ke := stringEnd(b, i)
		if ke < 0 {
			break
		}
		key := b[i+1 : ke-1]
		if bytes.IndexByte(key, '\\') >= 0 {
			break
		}
		if i = skipSpace(b, ke); i == len(b) || b[i] != ':' {
			break
		}
		v := skipSpace(b, i+1)
		ve := valueEnd(b, v)
		if ve < 0 {
			break
		}
		if bytes.EqualFold(key, uploadKey) {
			lo, hi, ok = v, ve, bytes.Equal(key, uploadKey) && b[v] == '"'
		}
		if i = skipSpace(b, ve); i < len(b) && b[i] == '}' {
			return lo, hi, ok
		}
		if i == len(b) || b[i] != ',' {
			break
		}
		i = skipSpace(b, i+1)
	}
	return 0, 0, false
}

// space reports JSON whitespace.
func space(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

func skipSpace(b []byte, i int) int {
	for i < len(b) && space(b[i]) {
		i++
	}
	return i
}

// stringEnd returns the index just past the string whose opening quote
// is b[i]: the first quote after it not escaped by an odd run of
// backslashes, or -1 when there is none.
func stringEnd(b []byte, i int) int {
	for j := i + 1; ; {
		k := bytes.IndexByte(b[j:], '"')
		if k < 0 {
			return -1
		}
		q, n := j+k, 0
		for q-n-1 > i && b[q-n-1] == '\\' {
			n++
		}
		if n%2 == 0 {
			return q + 1
		}
		j = q + 1
	}
}

// valueEnd returns the index just past the value starting at b[i], or
// -1: a string through its closing quote; anything else up to the
// first ',', '}', ']' or blank outside strings and brackets.
func valueEnd(b []byte, i int) int {
	if i < len(b) && b[i] == '"' {
		return stringEnd(b, i)
	}
	depth := 0
	for j := i; j < len(b); j++ {
		switch b[j] {
		case '"':
			if j = stringEnd(b, j) - 1; j < 0 {
				return -1
			}
		case '{', '[':
			depth++
		case '}', ']', ',', ' ', '\t', '\n', '\r':
			if depth == 0 {
				if j == i {
					return -1
				}
				return j
			}
			if b[j] == '}' || b[j] == ']' {
				depth--
			}
		}
	}
	return -1
}

// unescapes maps the byte after a backslash to what the escape stands
// for; 0 marks an escape the fast path leaves to encoding/json (\u).
var unescapes = [256]byte{'n': '\n', 't': '\t', 'r': '\r', '"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f'}

// unquote unescapes raw JSON string content in one copy into a
// presized buffer. It takes only what needs no decision: bytes ≥ 0x20
// forming valid UTF-8, and the escapes in unescapes. Anything else — a
// \u escape, a control byte, invalid UTF-8 — reports false, and the
// caller hands the string to encoding/json.
func unquote(s []byte) (string, bool) {
	if !controlFree(s) || !utf8.Valid(s) {
		return "", false
	}
	i := bytes.IndexByte(s, '\\')
	if i < 0 {
		return string(s), true
	}
	var sb strings.Builder
	sb.Grow(len(s))
	for ; i >= 0; i = bytes.IndexByte(s, '\\') {
		if i+1 == len(s) || unescapes[s[i+1]] == 0 {
			return "", false
		}
		sb.Write(s[:i])
		sb.WriteByte(unescapes[s[i+1]])
		s = s[i+2:]
	}
	sb.Write(s)
	return sb.String(), true
}

// controlFree reports whether s has no byte below 0x20.
func controlFree(s []byte) bool {
	for _, c := range s {
		if c < 0x20 {
			return false
		}
	}
	return true
}
