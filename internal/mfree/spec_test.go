package mfree_test

import (
	"strconv"
	"strings"
	"testing"

	"hpfcg/internal/hpfexec"
	"hpfcg/internal/mfree"
)

// TestParseSpec: a Spec is spelled on a command line or in a served job
// as the stencil kind of the problem grammar. Its canonical and short
// forms parse to the Spec, String writes the canonical form (Spec.Key)
// back, and the grammar is exact: a field past the last, characters
// glued to a number, a blank, a field out of order or a dimension count
// the stencil does not take is an error naming the argument, never a
// silently different grid. Ranges are Validate's.
func TestParseSpec(t *testing.T) {
	for _, c := range []struct {
		arg   string
		want  mfree.Spec
		canon string
	}{
		{"stencil:5pt:32x24", mfree.Spec{Stencil: "5pt", Nx: 32, Ny: 24}, "stencil:5pt:32x24:c4:o-1"},
		{"stencil:5pt:48x48:c4:o-1", mfree.Spec{Stencil: "5pt", Nx: 48, Ny: 48}, "stencil:5pt:48x48:c4:o-1"},
		{"stencil:5pt:32x24:c1.8:o-0.2", mfree.Spec{Stencil: "5pt", Nx: 32, Ny: 24, Center: 1.8, Off: -0.2}, "stencil:5pt:32x24:c1.8:o-0.2"},
		{"stencil:5pt:8x8:o-1", mfree.Spec{Stencil: "5pt", Nx: 8, Ny: 8, Off: -1}, "stencil:5pt:8x8:c0:o-1"},
		{"stencil:27pt:8x8x10", mfree.Spec{Stencil: "27pt", Nx: 8, Ny: 8, Nz: 10}, "stencil:27pt:8x8x10:c26:o-1"},
		{"stencil:27pt:32x32x32", mfree.Spec{Stencil: "27pt", Nx: 32, Ny: 32, Nz: 32}, "stencil:27pt:32x32x32:c26:o-1"},
	} {
		want := hpfexec.Stencil(c.want)
		got, err := hpfexec.ParseProblem(c.arg)
		if err != nil || got != want || got.String() != c.canon {
			t.Errorf("ParseProblem(%q) = %v (%+v), %v; want %v", c.arg, got, got, err, c.canon)
		}
		if back, err := hpfexec.ParseProblem(c.canon); err != nil || back != want {
			t.Errorf("ParseProblem(%q) = %+v, %v; want the problem it was printed from", c.canon, back, err)
		}
	}
	for _, arg := range []string{
		"stencil:5pt:32x24x99", "stencil:5pt:32x24junk", "stencil:27pt:4x4x4x4", "stencil:27pt:4x4x4x",
		"stencil:5pt:32", "stencil:9pt:3x3", "stencil:27pt:4x4", "stencil:5pt:", "stencil:5pt:32x 24",
		"stencil:5pt", "stencil:", "stencil:5pt:+3x04", "stencil:5pt:8x8:c4:o-1:z", "stencil:5pt:8x8:o-1:c4",
		"stencil:5pt:8x8:cx", "stencil:5pt:8x8:c4junk", "stencil:5pt:32,24",
		"stencil:5pt:99999999999999999999x8", "stencil:27pt:4x4x4:c1e999999:o-1",
	} {
		if got, err := hpfexec.ParseProblem(arg); err == nil {
			t.Errorf("ParseProblem(%q) = %v, want an error", arg, got)
		} else if !strings.Contains(err.Error(), strconv.Quote(arg)) {
			t.Errorf("ParseProblem(%q): error %q does not name the argument", arg, err)
		}
	}
}
