package mg_test

import (
	"strconv"
	"strings"
	"testing"

	"hpfcg/internal/hpfexec"
	"hpfcg/internal/mg"
)

// TestParseBrick: a per-rank brick is spelled on a command line or in a
// served job as the hpcg kind of the problem grammar. Its canonical and
// short forms parse to the Spec, String writes the canonical form
// (Spec.Key) back, and the grammar is exact: a field past the last,
// characters glued to a number, a blank, a field out of order, a
// dimension count other than three or the retired :C coarse-solve
// suffix is an error naming the argument.
// Ranges are Validate's, so a zero or negative dimension parses.
func TestParseBrick(t *testing.T) {
	for _, c := range []struct {
		arg   string
		want  mg.Spec
		canon string
	}{
		{"hpcg:4x4x4", mg.Spec{Nx: 4, Ny: 4, Nz: 4}, "hpcg:27pt:4x4x4:L4:S1"},
		{"hpcg:8x6x20", mg.Spec{Nx: 8, Ny: 6, Nz: 20}, "hpcg:27pt:8x6x20:L4:S1"},
		{"hpcg:0x-1x2", mg.Spec{Nx: 0, Ny: -1, Nz: 2}, "hpcg:27pt:0x-1x2:L4:S1"},
		{"hpcg:8x8x8:L2:S2", mg.Spec{Nx: 8, Ny: 8, Nz: 8, Levels: 2, Smooths: 2}, "hpcg:27pt:8x8x8:L2:S2"},
		{"hpcg:8x8x8:S3", mg.Spec{Nx: 8, Ny: 8, Nz: 8, Smooths: 3}, "hpcg:27pt:8x8x8:L4:S3"},
		{"hpcg:27pt:8x8x8:L4:S1", mg.Spec{Nx: 8, Ny: 8, Nz: 8}, "hpcg:27pt:8x8x8:L4:S1"},
	} {
		want := hpfexec.MG(c.want)
		got, err := hpfexec.ParseProblem(c.arg)
		if err != nil || got != want || got.String() != c.canon {
			t.Errorf("ParseProblem(%q) = %v (%+v), %v; want %v", c.arg, got, got, err, c.canon)
		}
		if back, err := hpfexec.ParseProblem(c.canon); err != nil || back != want {
			t.Errorf("ParseProblem(%q) = %+v, %v; want the problem it was printed from", c.canon, back, err)
		}
	}
	for _, arg := range []string{
		"hpcg:4x4x4junk", "hpcg:4x4x4x9", "hpcg:4x4", "hpcg:4x 4x4", "hpcg: 4x4x4", "hpcg:4x4x4 ", "hpcg:4xx4",
		"hpcg:", "hpcg", "hpcg:27pt", "hpcg:4,4,4", "hpcg:8x8x8:S2:L2", "hpcg:8x8x8:L2:S2:x", "hpcg:8x8x8:L2x",
		"hpcg:5pt:8x8x8", "hpcg:99999999999999999999x4x4:L2", "hpcg:4x4x4:Cauto", "hpcg:8x8x8:L2:S2:Cdirect",
	} {
		if got, err := hpfexec.ParseProblem(arg); err == nil {
			t.Errorf("ParseProblem(%q) = %v, want an error", arg, got)
		} else if !strings.Contains(err.Error(), strconv.Quote(arg)) {
			t.Errorf("ParseProblem(%q): error %q does not name the argument", arg, err)
		}
	}
}
