// The problem description: what is solved, declared once, as the
// paper's SPARSE_MATRIX directive declares smA before the layout
// directives say how it runs. A Problem is one of four things — a
// generated matrix, an uploaded Matrix Market document, a matrix-free
// stencil, or an HPCG multigrid problem — and every problem that
// arrives from outside (a served job, hpfrun's -problem and -file) is
// parsed, validated, keyed and opened here. The per-backend
// constructors (Prepare, PrepareStencil, PrepareMG) stay the way in for
// callers that already hold a typed spec; Open is a front over them.
//
// The text grammar is the canonical form String prints:
//
//	gen:<generator spec>                    laplace2d:128:128 (sparse.GeneratorByName)
//	stencil:<5pt|27pt>:<global grid>[:c<center>][:o<off>]
//	                                        stencil:5pt:48x48, stencil:27pt:32x32x32:c26:o-1
//	hpcg:[27pt:]<per-rank brick>[:L<levels>][:S<smooths>][:C<auto|smooth|direct>]
//	                                        hpcg:8x8x8:L2:S2, hpcg:27pt:8x8x8:L4:S1:Cauto
//
// The two stencil forms differ in what their dimensions size: a stencil
// problem's are the GLOBAL grid (nx x ny for 5pt, nx x ny x nz for
// 27pt), split into z-slabs over the ranks; an hpcg problem's are each
// RANK's brick, so its global grid is nx x ny x nz·np (the HPCG
// convention). The "gen:" prefix may be left out. Left-out coefficients,
// levels, smooths and coarse take the backend defaults, and String
// writes them all, so ParseProblem(p.String()) is p. An upload has no
// text form: it is built by Upload from the document itself.
package hpfexec

import (
	"cmp"
	"fmt"
	"hash/maphash"
	"regexp"
	"strconv"
	"strings"

	"hpfcg/internal/comm"
	"hpfcg/internal/mfree"
	"hpfcg/internal/mg"
	"hpfcg/internal/sparse"
)

// Problem is one description of what is solved. Build it with
// ParseProblem, Generated, Upload, Stencil or MG.
type Problem struct {
	key     string // String(), computed once by the constructor
	text    string // the generator spec or the upload
	stencil mfree.Spec
	mg      mg.Spec
	a       *sparse.CSR // the assembled matrix, once Matrix built it
}

// uploadSeed keys the digest that stands for an upload's text in its
// String, which never leaves the process.
var uploadSeed = maphash.MakeSeed()

// Generated describes the matrix a sparse.GeneratorByName spec builds.
func Generated(spec string) Problem {
	return Problem{key: "gen:" + spec, text: spec}
}

// Upload describes the matrix a Matrix Market document holds. It is
// parsed when first needed (Matrix, Hash, Open), not here.
func Upload(doc string) Problem {
	return Problem{key: fmt.Sprintf("mm:%016x", maphash.String(uploadSeed, doc)), text: doc}
}

// Stencil describes a matrix-free stencil over the global grid the spec
// sizes; zero coefficients take the canonical pair.
func Stencil(s mfree.Spec) Problem {
	s = s.WithDefaults()
	return Problem{key: "stencil:" + s.Key(), stencil: s}
}

// MG describes an HPCG problem whose spec sizes each rank's brick; zero
// levels and smooths take the package defaults.
func MG(s mg.Spec) Problem {
	s = s.WithDefaults()
	return Problem{key: "hpcg:" + s.Key(), mg: s}
}

// The two stencil forms of the grammar; a generator spec's is sparse's.
var (
	stencilForm = regexp.MustCompile(`^stencil:(5pt|27pt):(-?\d+)x(-?\d+)(?:x(-?\d+))?(?::c([^:]+))?(?::o([^:]+))?$`)
	hpcgForm    = regexp.MustCompile(`^hpcg:(?:27pt:)?(-?\d+)x(-?\d+)x(-?\d+)(?::L(-?\d+))?(?::S(-?\d+))?(?::C(auto|smooth|direct))?$`)
)

// ParseProblem reads the text grammar of the file comment. The grammar
// is exact: a missing, extra, misplaced or malformed field is an error
// naming the argument, never a problem other than the one written.
// Ranges are Validate's; a generator spec is checked whole here,
// because its grammar and its ranges are one check.
func ParseProblem(s string) (Problem, error) {
	var p Problem
	var err error // the first field that does not parse
	num := func(t string) int { v, e := strconv.Atoi(cmp.Or(t, "0")); err = cmp.Or(err, e); return v }
	float := func(t string) float64 { v, e := strconv.ParseFloat(cmp.Or(t, "0"), 64); err = cmp.Or(err, e); return v }
	kind, _, _ := strings.Cut(s, ":")
	if m := stencilForm.FindStringSubmatch(s); m != nil && (m[1] == "27pt") == (m[4] != "") {
		p = Stencil(mfree.Spec{Stencil: m[1], Nx: num(m[2]), Ny: num(m[3]), Nz: num(m[4]), Center: float(m[5]), Off: float(m[6])})
	} else if m := hpcgForm.FindStringSubmatch(s); m != nil {
		p = MG(mg.Spec{Nx: num(m[1]), Ny: num(m[2]), Nz: num(m[3]), Levels: num(m[4]), Smooths: num(m[5]), Coarse: strings.TrimPrefix(m[6], "auto")})
	} else if kind == BackendStencil {
		err = fmt.Errorf("want stencil:5pt:<nx>x<ny> or stencil:27pt:<nx>x<ny>x<nz> (the global grid), then [:c<center>][:o<off>]")
	} else if kind == BackendHPCG {
		err = fmt.Errorf("want hpcg:<nx>x<ny>x<nz> (each rank's brick), then [:L<levels>][:S<smooths>][:C<auto|smooth|direct>]")
	} else {
		spec := strings.TrimPrefix(s, "gen:")
		p, err = Generated(spec), sparse.CheckGeneratorSpec(spec)
	}
	if err != nil {
		return Problem{}, fmt.Errorf("hpfexec: problem %q: %w", s, err)
	}
	return p, nil
}

// String is the canonical form: the text ParseProblem reads back, and
// the content key under which equal problems batch. An upload's is a
// digest of its text under a per-process seed.
func (p Problem) String() string { return p.key }

// Kind is the prefix of String that names what the problem is: "gen"
// (a generated matrix), "mm" (an upload), BackendStencil or BackendHPCG.
func (p Problem) Kind() string { kind, _, _ := strings.Cut(p.key, ":"); return kind }

// Validate checks the problem against an np-rank machine — the one
// check of each kind, which PrepareStencil and PrepareMG run too. Errors
// name the field to change, as CheckVariant's do: matrix, stencil, or
// the mg field (mg.nx, mg.levels, ...). An upload is checked when it is
// parsed.
func (p Problem) Validate(np int) error {
	var err error
	field := "matrix"
	switch p.Kind() {
	case BackendStencil:
		if field, err = "stencil", p.stencil.Validate(); err == nil {
			_, err = p.stencil.Brick(np)
		}
	case BackendHPCG:
		if err = p.mg.Validate(); err != nil {
			return fmt.Errorf("hpfexec: %w", err)
		}
	case "gen":
		err = sparse.CheckGeneratorSpec(p.text)
	}
	if err != nil {
		return fmt.Errorf("hpfexec: field %s: %w", field, err)
	}
	return nil
}

// Backend names the operator family the problem runs on under layout:
// its row in CheckVariant's table. A layout ("" is "csr") applies to an
// assembled matrix only; the stencil backends take none.
func (p Problem) Backend(layout string) (string, error) {
	if p.Kind() == BackendStencil || p.Kind() == BackendHPCG {
		if layout != "" {
			return "", fmt.Errorf("hpfexec: field layout: does not apply to %s problems (the operator is never assembled)", p.Kind())
		}
		return p.Kind(), nil
	}
	if _, ok := layoutPrograms[cmp.Or(layout, "csr")]; !ok {
		return "", fmt.Errorf("hpfexec: field layout: unknown %q (have %v)", layout, Layouts())
	}
	if strings.HasPrefix(layout, "csc") {
		return BackendCSC, nil
	}
	return BackendCSR, nil
}

// Matrix assembles a generated or uploaded problem's matrix, once: the
// problem keeps it, so hashing an upload and opening it parse it once.
func (p *Problem) Matrix() (*sparse.CSR, error) {
	var err error
	switch {
	case p.a != nil:
	case p.Kind() == "mm":
		p.a, err = sparse.ParseMatrixMarket(p.text)
	case p.Kind() == "gen":
		p.a, err = sparse.GeneratorByName(p.text)
	default:
		return nil, fmt.Errorf("hpfexec: a %s problem is never assembled", p.Kind())
	}
	if err != nil {
		return nil, fmt.Errorf("matrix: %w", err)
	}
	return p.a, nil
}

// Hash is the content digest a plan registry caches under. A generated
// problem's digests its spec, so no matrix is built; an upload's is the
// canonical digest of the matrix it parses to, so two encodings of one
// matrix share a plan.
func (p *Problem) Hash() (string, error) {
	if p.Kind() != "mm" {
		return sparse.HashGeneratorSpec(strings.TrimPrefix(p.key, "gen:")), nil
	}
	A, err := p.Matrix()
	if err != nil {
		return "", err
	}
	return sparse.ContentHash(A), nil
}

// Open validates the problem and prepares it on m through its backend's
// constructor: the layout's canonical directive program and Prepare for
// a matrix, PrepareStencil or PrepareMG otherwise.
func Open(m *comm.Machine, p Problem, layout string) (*Prepared, error) {
	_, err := p.Backend(layout)
	if err = cmp.Or(p.Validate(m.NP()), err); err != nil {
		return nil, err
	}
	switch p.Kind() {
	case BackendStencil:
		return PrepareStencil(m, p.stencil)
	case BackendHPCG:
		return PrepareMG(m, p.mg)
	}
	A, err := p.Matrix()
	if err != nil {
		return nil, err
	}
	plan, err := PlanForLayout(cmp.Or(layout, "csr"), m.NP(), A.NRows, A.NNZ())
	if err != nil {
		return nil, err
	}
	return Prepare(m, plan, A)
}
