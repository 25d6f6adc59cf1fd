package hpfexec

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"hpfcg/internal/core"
	"hpfcg/internal/sparse"
)

// Directive heads the refusal and property programs extend: the
// canonical CSC and CSR layouts without their extension lines.
const (
	cscHead = "!HPF$ PROCESSORS :: PROCS(NP)\n!HPF$ DISTRIBUTE p(BLOCK)\n!HPF$ SPARSE_MATRIX (CSC) :: smA(colptr, rowidx, a)\n"
	csrHead = "!HPF$ PROCESSORS :: PROCS(NP)\n!HPF$ DISTRIBUTE p(BLOCK)\n!HPF$ SPARSE_MATRIX (CSR) :: smA(row, col, a)\n"
	// blockMap is csc-merge's ON PROCESSOR map, BLOCK's owner of j.
	blockMap = "((j+1)*np+n-1)/n-1"
)

// refusals are directive programs that bind but that no executor runs
// as written, each with the line Prepare must name. At n = 10 and np =
// 4 (np does not divide n) ⌊j·np/n⌋ is not the BLOCK owner; the first
// six are the probes that used to solve with the line ignored.
var refusals = []struct {
	name, src string
	line      int
	balanced  bool // solve a skewed matrix, whose balanced cut is not BLOCK's
}{
	{"map to one processor", cscHead + "!EXT$ ITERATION j ON PROCESSOR(0), PRIVATE(q(n)) WITH MERGE(+)\n", 4, false},
	{"map divides by zero", cscHead + "!EXT$ ITERATION j ON PROCESSOR(j/0), PRIVATE(q(n)) WITH MERGE(+)\n", 4, false},
	{"ATOM: CYCLIC", cscHead + "!EXT$ ITERATION j ON PROCESSOR(" + blockMap + "), PRIVATE(q(n)) WITH MERGE(+)\n!EXT$ REDISTRIBUTE a(ATOM: CYCLIC)\n", 5, false},
	{"second vector mapping", "!HPF$ PROCESSORS :: PROCS(NP)\n!HPF$ DISTRIBUTE p(BLOCK)\n!HPF$ DISTRIBUTE x(CYCLIC)\n!HPF$ SPARSE_MATRIX (CSR) :: smA(row, col, a)\n", 3, false},
	{"CYCLIC vector mapping first", "!HPF$ PROCESSORS :: PROCS(NP)\n!HPF$ DISTRIBUTE x(CYCLIC)\n!HPF$ DISTRIBUTE p(BLOCK)\n!HPF$ SPARSE_MATRIX (CSR) :: smA(row, col, a)\n", 2, false},
	{"b CYCLIC beside p BLOCK", "!HPF$ PROCESSORS :: PROCS(NP)\n!HPF$ DISTRIBUTE p(BLOCK)\n!HPF$ DISTRIBUTE b(CYCLIC)\n!HPF$ SPARSE_MATRIX (CSR) :: smA(row, col, a)\n", 3, false},
	{"b CYCLIC before p BLOCK", "!HPF$ PROCESSORS :: PROCS(NP)\n!HPF$ DISTRIBUTE b(CYCLIC)\n!HPF$ DISTRIBUTE p(BLOCK)\n!HPF$ SPARSE_MATRIX (CSR) :: smA(row, col, a)\n", 2, false},
	{"ITERATION in CSR", csrHead + "!EXT$ ITERATION i ON PROCESSOR(i*np/n)\n", 4, false},
	{"second ITERATION", cscHead + "!EXT$ ITERATION j ON PROCESSOR(" + blockMap + "), PRIVATE(q(n)) WITH MERGE(+)\n!EXT$ ITERATION j ON PROCESSOR(" + blockMap + ")\n", 5, false},
	{"floor map when np does not divide n", cscHead + "!EXT$ ITERATION j ON PROCESSOR(j*np/n), PRIVATE(q(n)) WITH MERGE(+)\n", 4, false},
	{"map below processor 0", cscHead + "!EXT$ ITERATION j ON PROCESSOR(j-1)\n", 4, false},
	{"map past the last processor", cscHead + "!EXT$ ITERATION j ON PROCESSOR(np)\n", 4, false},
	{"WITH DISCARD", cscHead + "!EXT$ ITERATION j ON PROCESSOR(" + blockMap + "), PRIVATE(q(n)) WITH DISCARD\n", 4, false},
	{"ATOM: BLOCK(k)", csrHead + "!EXT$ INDIVISABLE a(ATOM:i) :: row(i:i+1)\n!EXT$ REDISTRIBUTE a(ATOM: BLOCK(3))\n", 5, false},
	{"ATOM: BLOCK without INDIVISABLE", csrHead + "!EXT$ REDISTRIBUTE a(ATOM: BLOCK)\n", 4, false},
	{"ATOM: BLOCK under a partitioner", csrHead + "!EXT$ INDIVISABLE a(ATOM:i) :: row(i:i+1)\n!EXT$ REDISTRIBUTE a(ATOM: BLOCK)\n!EXT$ REDISTRIBUTE smA USING CG_BALANCED_PARTITIONER_1\n", 5, true},
}

// bindRefusals map one array twice, each with the line BindProgram
// must name and the line of the first mapping: the two programs whose
// second line used to replace the first.
var bindRefusals = []struct {
	name, src   string
	line, first int
}{
	{"ATOM: CYCLIC then ATOM: BLOCK", layoutPrograms["csc-merge"] + "!EXT$ REDISTRIBUTE rowidx(ATOM: CYCLIC)\n!EXT$ REDISTRIBUTE rowidx(ATOM: BLOCK)\n", 7, 6},
	{"DISTRIBUTE p twice", "!HPF$ PROCESSORS :: PROCS(NP)\n!HPF$ DISTRIBUTE p(CYCLIC)\n!HPF$ DISTRIBUTE p(BLOCK)\n!HPF$ SPARSE_MATRIX (CSR) :: smA(row, col, a)\n", 3, 2},
}

// TestBindRefusesSecondMapping: each program is refused at bind with
// both lines, before Prepare sees a plan without its first mapping.
func TestBindRefusesSecondMapping(t *testing.T) {
	for _, c := range bindRefusals {
		_, err := BindProgram(c.src, 4, 10, 28)
		prefix, suffix := fmt.Sprintf("hpf: line %d: ", c.line), fmt.Sprintf("(first mapped at line %d)", c.first)
		if err == nil || !strings.HasPrefix(err.Error(), prefix) || !strings.HasSuffix(err.Error(), suffix) {
			t.Errorf("%s: BindProgram err = %v, want %q…%q", c.name, err, prefix, suffix)
		}
	}
}

// TestPrepareRefusesUnrunDirectives: each program binds, and Prepare
// refuses it with an error naming the directive's line, before any
// machine runs.
func TestPrepareRefusesUnrunDirectives(t *testing.T) {
	const np = 4
	for _, c := range refusals {
		A := sparse.Banded(10, 2)
		if c.balanced {
			A = sparse.PowerLaw(40, 1.0, 12, 3)
		}
		plan, err := BindProgram(c.src, np, A.NRows, A.NNZ())
		if err != nil {
			t.Fatalf("%s: bind: %v", c.name, err)
		}
		_, err = Prepare(machine(np), plan, A)
		if want := fmt.Sprintf("hpf: line %d: ", c.line); err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Errorf("%s: Prepare err = %v, want a refusal starting %q", c.name, err, want)
		}
	}
}

// TestAcceptedExtensionLinesRunAsWritten: an ITERATION map or an ATOM:
// BLOCK line that Prepare accepts describes the execution that runs
// without it, so the two programs solve bit-equal — X, iterations and
// modeled time — at every n and np, np dividing n or not.
func TestAcceptedExtensionLinesRunAsWritten(t *testing.T) {
	const atomsCSC = "!EXT$ INDIVISABLE rowidx(ATOM:i) :: colptr(i:i+1)\n"
	const atomsCSR = "!EXT$ INDIVISABLE a(ATOM:i) :: row(i:i+1)\n"
	pairs := []struct{ with, without string }{
		{cscHead + "!EXT$ ITERATION j ON PROCESSOR(" + blockMap + "), NEW(pj, k)\n", cscHead},
		{layoutPrograms["csc-merge"] + atomsCSC + "!EXT$ REDISTRIBUTE rowidx(ATOM: BLOCK)\n", layoutPrograms["csc-merge"] + atomsCSC},
		{csrHead + atomsCSR + "!EXT$ REDISTRIBUTE a(ATOM: BLOCK)\n", csrHead + atomsCSR},
	}
	for _, n := range []int{10, 23, 48} {
		A := sparse.Banded(n, 2)
		b := sparse.RandomVector(n, 5)
		for _, np := range []int{1, 3, 4, 7} {
			for _, pair := range pairs {
				var got [2]*Result
				for k, src := range []string{pair.with, pair.without} {
					plan, err := BindProgram(src, np, n, A.NNZ())
					if err != nil {
						t.Fatal(err)
					}
					if got[k], err = SolveCG(machine(np), plan, A, b, core.Options{Tol: 1e-10}); err != nil {
						t.Fatalf("n=%d np=%d:\n%s: %v", n, np, src, err)
					}
				}
				with, without := got[0], got[1]
				same := with.Stats.Iterations == without.Stats.Iterations && with.Run.ModelTime == without.Run.ModelTime
				for i := range with.X {
					same = same && math.Float64bits(with.X[i]) == math.Float64bits(without.X[i])
				}
				if !same {
					t.Errorf("n=%d np=%d: %d its %v s with the line, %d its %v s without:\n%s",
						n, np, with.Stats.Iterations, with.Run.ModelTime, without.Stats.Iterations, without.Run.ModelTime, pair.with)
				}
			}
		}
	}
}
