package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

	"hpfcg/internal/sparse"
)

// stdDecode is the oracle DecodeJobSpec answers to: encoding/json's
// Decoder with unknown fields refused, and the stream at io.EOF after
// the value.
func stdDecode(body []byte) (JobSpec, error) {
	var sp JobSpec
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sp); err != nil {
		return sp, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return sp, errors.New("data after the value")
	}
	return sp, nil
}

// FuzzDecodeJobSpec holds DecodeJobSpec to the standard-library decode:
// for every body both accept it with deeply equal specs, or both refuse
// it. The seeds aim at the lifted upload string (fast-path escapes,
// \u escapes and surrogates, control and invalid bytes, a backslash run
// before the closing quote) and at every rule for when nothing is
// lifted (duplicate and case-folded keys, a nested key, a non-string
// value, bodies the scanner cannot walk).
func FuzzDecodeJobSpec(f *testing.F) {
	for _, s := range []string{
		`{"matrix_market":"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 3.5\n","np":2,"seed":7}`,
		`{"matrix_market":"café é","np":2}`,
		`{"matrix_market":"\ud83d\ude00 pair"}`, `{"matrix_market":"lone \ud800 half"}`,
		"{\"matrix_market\":\"raw \x01 control\"}", "{\"matrix_market\":\"raw \xff byte\"}",
		`{"matrix_market":"ends in a backslash \\"}`,
		`{"matrix_market":"ends in a backslash \\","np":2}`,
		`{"matrix_market":"an escaped backslash, not quote \\"","np":2}`,
		`{"matrix_market":"a \"quoted\" word \/ \b\f\t\r"}`,
		`{"matrix_market":"bad \x escape"}`, `{"matrix_market":"unterminated`,
		`{"matrix_market":"first","matrix_market":"second"}`, `{"matrix_market":1,"matrix_market":"second"}`,
		`{"Matrix_Market":"folded","matrix_market":"exact"}`, `{"matrix_market":"exact","Matrix_Market":"folded"}`,
		// U+212A KELVIN SIGN folds to k, so this key is matrix_market too.
		"{\"matrix_market\":\"exact\",\"matrix_mar\u212aet\":\"kelvin\"}",
		`{"matrix\u005fmarket":"escaped key"}`,
		`{"matrix_market":"plain key","matrix\u005fmarket":"escaped key wins"}`,
		`{"matrix_market":"\u0031 escaped digit"}`,
		`{"method":"hpcg","mg":{"nx":8,"ny":8,"nz":8,"matrix_market":"nested"},"matrix_market":"top"}`,
		`{"stencil":{"stencil":"5pt","nx":4,"ny":4},"matrix_market":"x","rhs":[1,2.5e3,-0]}`,
		`{"matrix_market":null}`, `{"matrix_market":1}`, `{"matrix_market":""}`,
		`{"matrix_market":"x","bogus":1}`, `{"matrix_market":"x","np":"four"}`,
		`{"matrix_market":"x"} junk`, `{"matrix_market":"x"}{"bogus":1}`, `{"matrix_market":"x"}` + " \n\t",
		`{"matrix_market":"x",}`, `{"matrix_market" "x"}`, `{"matrix_market":"x" "np":2}`,
		`{`, ``, `[]`, `null`, ` {} `, `{"np":2}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		got, err := DecodeJobSpec(body)
		want, werr := stdDecode(body)
		if (err != nil) != (werr != nil) {
			t.Fatalf("DecodeJobSpec error %v, encoding/json error %v", err, werr)
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("DecodeJobSpec %+v\nencoding/json %+v", got, want)
		}
	})
}

// TestUnquoteFastPath pins what the lifted string's one-copy unescape
// takes itself — every escape but \u, raw UTF-8 — to encoding/json's
// reading, and what it leaves to encoding/json.
func TestUnquoteFastPath(t *testing.T) {
	for _, raw := range []string{`plain`, `line\nnext\ttab\rcr`, `\"\\\/\b\f`, `café`, ``} {
		var want string
		if err := json.Unmarshal([]byte(`"`+raw+`"`), &want); err != nil {
			t.Fatal(err)
		}
		if got, ok := unquote([]byte(raw)); !ok || got != want {
			t.Errorf("unquote(%q) = %q, %v; want %q from the fast path", raw, got, ok, want)
		}
	}
	for _, raw := range []string{`\u0041`, "raw \x1f", "bad \xff", `\x`, `trailing \`} {
		if got, ok := unquote([]byte(raw)); ok {
			t.Errorf("unquote(%q) = %q on the fast path, want it left to encoding/json", raw, got)
		}
	}
}

// TestColdBodyLifted: a serve_cold body's upload — nearly all of it —
// is lifted and unescaped by the fast path, so encoding/json never
// reads it.
func TestColdBodyLifted(t *testing.T) {
	body := coldBody(t)
	lo, hi, ok := uploadSpan(body)
	if !ok || len(body)-(hi-lo) > 100 {
		t.Fatalf("span [%d, %d) of a %d-byte body, lifted %v", lo, hi, len(body), ok)
	}
	if _, ok := unquote(body[lo+1 : hi-1]); !ok {
		t.Fatal("the upload left the fast path")
	}
}

// coldBody is a serve_cold upload: the randspd matrix of seed 1 as
// Matrix Market text, in a marshalled job spec.
func coldBody(tb testing.TB) []byte {
	tb.Helper()
	var sb strings.Builder
	if err := sparse.WriteMatrixMarket(&sb, sparse.RandomSPD(320, 8, 1)); err != nil {
		tb.Fatal(err)
	}
	body, err := json.Marshal(JobSpec{MatrixMarket: sb.String(), NP: 4, Tol: 1e-10, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// BenchmarkDecodeJobSpec decodes a serve_cold body the way both hops
// do (served) and the way they did, with encoding/json over the whole
// body.
func BenchmarkDecodeJobSpec(b *testing.B) {
	body := coldBody(b)
	for _, c := range []struct {
		name   string
		decode func([]byte) (JobSpec, error)
	}{{"served", DecodeJobSpec}, {"encoding/json", stdDecode}} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.decode(body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
