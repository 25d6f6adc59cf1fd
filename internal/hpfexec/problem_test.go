package hpfexec

import (
	"strconv"
	"strings"
	"testing"

	"hpfcg/internal/mfree"
	"hpfcg/internal/mg"
	"hpfcg/internal/sparse"
)

// TestParseProblem: a generator spec parses from its canonical and its
// short form to the problem Generated builds, and String writes the
// canonical form back; an empty, unknown or malformed argument is an
// error naming it. The stencil and hpcg kinds are held to the same
// rules next to the Spec they spell: mfree's TestParseSpec and mg's
// TestParseBrick.
func TestParseProblem(t *testing.T) {
	for _, c := range []struct {
		arg   string
		want  Problem
		canon string
	}{
		{"laplace2d:128:128", Generated("laplace2d:128:128"), "gen:laplace2d:128:128"},
		{"gen:laplace2d:32:32", Generated("laplace2d:32:32"), "gen:laplace2d:32:32"},
	} {
		got, err := ParseProblem(c.arg)
		if err != nil || got != c.want || got.String() != c.canon {
			t.Errorf("ParseProblem(%q) = %v (%+v), %v; want %v", c.arg, got, got, err, c.canon)
		}
		if back, err := ParseProblem(c.canon); err != nil || back != c.want {
			t.Errorf("ParseProblem(%q) = %+v, %v; want the problem it was printed from", c.canon, back, err)
		}
	}
	for _, arg := range []string{
		"", "gen:", "laplace2d:32:32junk", "laplace2d:32:32:1", "laplace2d:-3:4", "LAPLACE2D:8:8", "mm:0123",
	} {
		if got, err := ParseProblem(arg); err == nil {
			t.Errorf("ParseProblem(%q) = %v, want an error", arg, got)
		} else if !strings.Contains(err.Error(), strconv.Quote(arg)) {
			t.Errorf("ParseProblem(%q): error %q does not name the argument", arg, err)
		}
	}
}

// TestProblemChecksNameTheField: Validate, Backend and Open refuse a
// problem or a layout with the field a served job's JSON spells, and a
// layout only applies to an assembled matrix.
func TestProblemChecksNameTheField(t *testing.T) {
	for _, c := range []struct {
		p      Problem
		layout string
		field  string
	}{
		{Generated("laplace2d:-3:4"), "", "matrix"},
		{Generated(""), "", "matrix"},
		{Generated("laplace2d:8:8"), "btree", "layout"},
		{Stencil(mfree.Spec{Stencil: "9pt", Nx: 4, Ny: 4}), "", "stencil"},
		{Stencil(mfree.Spec{Stencil: "5pt", Nx: 2, Ny: 8}), "", "stencil"}, // 2 slabs on 4 ranks
		{Stencil(mfree.Spec{Stencil: "5pt", Nx: 8, Ny: 8}), "csr", "layout"},
		{Stencil(mfree.Spec{Stencil: "5pt", Nx: 8, Ny: 8}), "csc-merge", "layout"},
		{MG(mg.Spec{Nx: 0, Ny: 4, Nz: 4}), "", "mg.nx"},
		{MG(mg.Spec{Nx: 4, Ny: 4, Nz: mg.MaxDim + 1}), "", "mg.nz"},
		{MG(mg.Spec{Nx: 4, Ny: 4, Nz: 4, Levels: 99}), "", "mg.levels"},
		{MG(mg.Spec{Nx: 4, Ny: 4, Nz: 4, Smooths: -1}), "", "mg.smooths"},
		{MG(mg.Spec{Nx: 4, Ny: 4, Nz: 4, Coarse: "cholesky"}), "", "mg.coarse"},
		{MG(mg.Spec{Nx: 4, Ny: 4, Nz: 4}), "balanced", "layout"},
	} {
		_, err := Open(machine(4), c.p, c.layout)
		if err == nil || !strings.Contains(err.Error(), "hpfexec: field "+c.field+":") {
			t.Errorf("Open(%v, %q) = %v, want an error naming field %s", c.p, c.layout, err, c.field)
		}
	}
	for _, c := range []struct {
		p       Problem
		layout  string
		backend string
	}{
		{Generated("laplace2d:8:8"), "", BackendCSR},
		{Generated("laplace2d:8:8"), "balanced", BackendCSR},
		{Upload("x"), "csc-serial", BackendCSC},
		{Generated("laplace2d:8:8"), "csc-merge", BackendCSC},
		{Stencil(mfree.Spec{Stencil: "5pt", Nx: 8, Ny: 8}), "", BackendStencil},
		{MG(mg.Spec{Nx: 4, Ny: 4, Nz: 4}), "", BackendHPCG},
	} {
		if b, err := c.p.Backend(c.layout); err != nil || b != c.backend {
			t.Errorf("%v.Backend(%q) = %q, %v; want %q", c.p, c.layout, b, err, c.backend)
		}
	}
}

// TestOpenIsTheConstructors: Open prepares exactly what the backend's
// own constructor does — the same strategy and size — and an upload is
// parsed once however often it is hashed and opened.
func TestOpenIsTheConstructors(t *testing.T) {
	st := mfree.Spec{Stencil: "27pt", Nx: 6, Ny: 6, Nz: 8}
	brick := mg.Spec{Nx: 4, Ny: 4, Nz: 4, Levels: 2}
	A := sparse.Laplace2D(12, 12)
	plan, err := PlanForLayout("csc-merge", 2, A.NRows, A.NNZ())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		p      Problem
		layout string
		direct func() (*Prepared, error)
	}{
		{Stencil(st), "", func() (*Prepared, error) { return PrepareStencil(machine(2), st) }},
		{MG(brick), "", func() (*Prepared, error) { return PrepareMG(machine(2), brick) }},
		{Generated("laplace2d:12:12"), "csc-merge", func() (*Prepared, error) { return Prepare(machine(2), plan, A) }},
	} {
		got, err := Open(machine(2), c.p, c.layout)
		if err != nil {
			t.Fatal(err)
		}
		want, err := c.direct()
		if err != nil {
			t.Fatal(err)
		}
		if got.Strategy() != want.Strategy() || got.N() != want.N() || got.MemoryBytes() != want.MemoryBytes() {
			t.Errorf("Open(%v) = %v n=%d, the constructor %v n=%d", c.p, got.Strategy(), got.N(), want.Strategy(), want.N())
		}
	}

	up := Upload("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 2\n2 2 3\n")
	h, err := up.Hash()
	if err != nil {
		t.Fatal(err)
	}
	parsed, _ := up.Matrix()
	pr, err := Open(machine(2), up, "")
	if err != nil || pr.N() != 2 {
		t.Fatalf("Open(upload) = %v", err)
	}
	if mb, ok := pr.be.(*matrixBackend); !ok || mb.A != parsed || h == "" {
		t.Error("Open parsed the upload again after Hash had")
	}
	if _, err := Open(machine(2), Upload("%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1\n"), ""); err == nil || !strings.Contains(err.Error(), "matrix: ") {
		t.Errorf("Open(bad upload) = %v, want the reader's matrix error", err)
	}
}

// FuzzParseProblem: the parser never panics; an accepted string's
// canonical form parses back to the same canonical form and kind; and a
// problem that also validates has every grid dimension inside its
// backend's [1, MaxDim].
func FuzzParseProblem(f *testing.F) {
	for _, s := range []string{
		"stencil:5pt:32x24", "stencil:27pt:8x8x10", "stencil:5pt:32x24x99", "stencil:5pt:32x24junk",
		"stencil:27pt:4x4x4x4", "stencil:27pt:4x4x4x", "stencil:5pt:32", "stencil:9pt:3x3", "stencil:27pt:4x4",
		"stencil:5pt:", "stencil:5pt:32x 24", "stencil:5pt", "", "stencil:5pt:+3x04", "stencil:27pt:-1x0x99999999999",
		"hpcg:4x4x4", "hpcg:27pt:8x8x8:L4:S1:Cauto", "hpcg:8x8x8:L2:S2:Cdirect", "hpcg:4x4x4:L99:S-1:Cx",
		"laplace2d:32:32", "gen:banded:256:4", "nascg:S:1", "stencil:5pt:8x8:c1e400:oNaN", "stencil:27pt:4x4x4:c-0:o0",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, arg string) {
		p, err := ParseProblem(arg)
		if err != nil {
			return
		}
		back, err := ParseProblem(p.String())
		if err != nil || back.String() != p.String() || back.Kind() != p.Kind() {
			t.Fatalf("ParseProblem(%q) = %v, but that parses to %v, %v", arg, p, back, err)
		}
		if p.Validate(1) != nil {
			return
		}
		dims, limit := []int{1}, 0
		switch p.Kind() {
		case BackendStencil:
			dims, limit = []int{p.stencil.Nx, p.stencil.Ny, max(p.stencil.Nz, 1)}, mfree.MaxDim
		case BackendHPCG:
			dims, limit = []int{p.mg.Nx, p.mg.Ny, p.mg.Nz}, mg.MaxDim
		}
		for _, d := range dims {
			if d < 1 || (limit > 0 && d > limit) {
				t.Fatalf("ParseProblem(%q) = %+v validates with a dimension outside [1, %d]", arg, p, limit)
			}
		}
	})
}
