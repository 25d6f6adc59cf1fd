package hpfexec

import (
	"strconv"
	"strings"
	"testing"
)

// TestParseVariant: every form of the grammar parses to the value its
// constructor builds (a §2.1 method word, which has none, to the value
// keyed by the word), String writes the canonical form, and that parses
// back to the same value; a kind the grammar does not have, a trailing
// or malformed field, a factor outside [2, MaxSStep] — s = 1 is plain —
// or a negative bound is an error naming the argument.
func TestParseVariant(t *testing.T) {
	for _, c := range []struct {
		arg   string
		want  Variant
		canon string
	}{
		{"plain", Plain(), "plain"},
		{"sstep:4", SStep(4), "sstep:4"},
		{"sstep:16", SStep(16), "sstep:16"},
		{"sstep:04", SStep(4), "sstep:4"},
		{"auto", Auto(), "auto"},
		{"pipelined", Pipelined(), "pipelined"},
		{"pcg", Variant{key: "pcg"}, "pcg"},
		{"bicg", Variant{key: "bicg"}, "bicg"},
		{"cgs", Variant{key: "cgs"}, "cgs"},
		{"bicgstab", Variant{key: "bicgstab"}, "bicgstab"},
		{"resilient", Resilient(0, 0), "resilient:ckpt=10,restarts=3"},
		{"resilient:ckpt=10,restarts=3", Resilient(10, 3), "resilient:ckpt=10,restarts=3"},
		{"resilient:ckpt=5", Resilient(5, 0), "resilient:ckpt=5,restarts=3"},
		{"resilient:restarts=2", Resilient(0, 2), "resilient:ckpt=10,restarts=2"},
		{"resilient:ckpt=5,restarts=2", Resilient(5, 2), "resilient:ckpt=5,restarts=2"},
	} {
		got, err := ParseVariant(c.arg)
		if err != nil || got != c.want || got.String() != c.canon {
			t.Errorf("ParseVariant(%q) = %v (%+v), %v; want %v", c.arg, got, got, err, c.canon)
		}
		if back, err := ParseVariant(c.canon); err != nil || back != c.want {
			t.Errorf("ParseVariant(%q) = %+v, %v; want the variant it was printed from", c.canon, back, err)
		}
	}
	for _, v := range []Variant{Plain(), SStep(1), SStep(2), SStep(MaxSStep), Auto(), Pipelined(), Resilient(0, 0), Resilient(7, 1)} {
		if back, err := ParseVariant(v.String()); err != nil || back != v {
			t.Errorf("ParseVariant(%v.String()) = %+v, %v; want %+v", v, back, err, v)
		}
	}
	for arg, want := range map[string]string{
		"":                              "want plain",
		"Plain":                         "want plain",
		"cg":                            "want plain",
		"bicg:2":                        "want plain",
		"bicgstab,pcg":                  "want plain",
		"plain:1":                       "want plain",
		"sstep":                         "want plain",
		"sstep:":                        "want plain",
		"sstep:4junk":                   "want plain",
		"sstep:auto":                    "want plain",
		"auto:2":                        "want plain",
		"sstep:4,pipelined":             "want plain",
		"sstep:+4":                      "want plain",
		"pipelined:sstep:4":             "want plain",
		"resilient:":                    "want plain",
		"resilient:ckpt=5junk":          "want plain",
		"resilient:restarts=2,ckpt=5":   "want plain",
		"resilient:ckpt=5,restarts=":    "want plain",
		"sstep:1":                       "s = 1 is plain CG",
		"sstep:0":                       "field sstep: 0 outside [2,16]",
		"sstep:-5":                      "field sstep: -5 outside [2,16]",
		"sstep:99":                      "field sstep: 99 outside [2,16]",
		"sstep:99999999999999999999":    "value out of range",
		"resilient:ckpt=-3":             "field ckpt_interval: negative bound -3",
		"resilient:ckpt=5,restarts=-2":  "field max_restarts: negative bound -2",
		"resilient:restarts=-1":         "field max_restarts: negative bound -1",
		"resilient:ckpt=1e3,restarts=2": "want plain",
	} {
		if got, err := ParseVariant(arg); err == nil {
			t.Errorf("ParseVariant(%q) = %v, want an error", arg, got)
		} else if !strings.Contains(err.Error(), strconv.Quote(arg)) || !strings.Contains(err.Error(), want) {
			t.Errorf("ParseVariant(%q): error %q, want it to name the argument and %q", arg, err, want)
		}
	}
}

// FuzzParseVariant: the parser never panics, and an accepted string's
// variant prints a canonical form that parses back to the same value,
// passes its own range check, and names its kind.
func FuzzParseVariant(f *testing.F) {
	for _, s := range []string{
		"plain", "sstep:4", "auto", "sstep:auto", "sstep:1", "sstep:0", "sstep:-1", "sstep:17", "sstep:04",
		"pipelined", "pcg", "bicg", "cgs", "bicgstab", "resilient", "resilient:ckpt=10,restarts=3", "resilient:ckpt=0", "resilient:restarts=9",
		"resilient:ckpt=-3", "resilient:ckpt=5,restarts=2junk", "", "sstep:4,pipelined", "resilient:ckpt=99999999999999999999",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, arg string) {
		v, err := ParseVariant(arg)
		if err != nil {
			return
		}
		back, err := ParseVariant(v.String())
		if err != nil || back != v {
			t.Fatalf("ParseVariant(%q) = %+v, but its form %q parses to %+v, %v", arg, v, v, back, err)
		}
		if err := CheckVariant(BackendCSR, v); err != nil {
			t.Fatalf("ParseVariant(%q) = %+v out of range: %v", arg, v, err)
		}
		if !strings.HasPrefix(v.String(), v.Kind()) {
			t.Fatalf("ParseVariant(%q): kind %q is not the prefix of %q", arg, v.Kind(), v)
		}
	})
}
