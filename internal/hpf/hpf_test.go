package hpf

import (
	"fmt"
	"strings"
	"testing"

	"hpfcg/internal/dist"
	"hpfcg/internal/sparse"
)

// MustParse is Parse that panics on error, for tests.
func MustParse(src string) *Program {
	p, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}

// figure2 is the directive block of the paper's Figure 2 (CSR-format
// CG), with the paper's unbalanced-paren typo in the CYCLIC line
// corrected.
const figure2 = `
REAL, dimension(1:nz) :: a
INTEGER, dimension(1:nz) :: col
INTEGER, dimension(1:n+1) :: row
REAL, dimension(1:n) :: x, r, p, q
!HPF$ PROCESSORS :: PROCS(NP)
!HPF$ ALIGN (:) WITH p(:) :: q, r, x, b
!HPF$ DISTRIBUTE p(BLOCK)
!HPF$ DISTRIBUTE row(CYCLIC((n+NP-1)/np))
!HPF$ ALIGN a(:) WITH col(:)
!HPF$ DISTRIBUTE col(BLOCK)
`

func TestParseFigure2(t *testing.T) {
	prog, err := Parse(figure2)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Directives) != 6 {
		t.Fatalf("parsed %d directives, want 6", len(prog.Directives))
	}
	if len(prog.Skipped) != 4 {
		t.Errorf("skipped %d Fortran lines, want 4", len(prog.Skipped))
	}
	procs := Find[Processors](prog)
	if len(procs) != 1 || procs[0].Name != "procs" {
		t.Fatalf("PROCESSORS parse: %+v", procs)
	}
	dists := Find[Distribute](prog)
	if len(dists) != 3 {
		t.Fatalf("found %d DISTRIBUTE directives", len(dists))
	}
	if dists[0].Array != "p" || dists[0].Pat.Kind != PatBlock || dists[0].Pat.Size != nil {
		t.Errorf("DISTRIBUTE p: %+v", dists[0])
	}
	if dists[1].Array != "row" || dists[1].Pat.Kind != PatCyclic || dists[1].Pat.Size == nil {
		t.Errorf("DISTRIBUTE row: %+v", dists[1])
	}
	aligns := Find[Align](prog)
	if len(aligns) != 2 {
		t.Fatalf("found %d ALIGN directives", len(aligns))
	}
	if aligns[0].Target != "p" || len(aligns[0].Extra) != 4 {
		t.Errorf("first ALIGN: %+v", aligns[0])
	}
	if aligns[1].Source != "a" || aligns[1].Target != "col" {
		t.Errorf("second ALIGN: %+v", aligns[1])
	}
}

func TestBindFigure2(t *testing.T) {
	prog := MustParse(figure2)
	n, nz, np := 100, 420, 4
	sizes := map[string]int{
		"a": nz, "col": nz, "row": n + 1,
		"p": n, "q": n, "r": n, "x": n, "b": n,
	}
	pl, err := Bind(prog, np, sizes, map[string]int{"n": n, "nz": nz})
	if err != nil {
		t.Fatal(err)
	}
	if pl.ProcName != "procs" || pl.NP != 4 {
		t.Errorf("plan header: %q %d", pl.ProcName, pl.NP)
	}
	// p BLOCK; q, r, x, b aligned with p -> same descriptor.
	pp := pl.Arrays["p"]
	if pp == nil || pp.Dist.Name() != "BLOCK" {
		t.Fatalf("p: %+v", pp)
	}
	for _, name := range []string{"q", "r", "x", "b"} {
		a := pl.Arrays[name]
		if a == nil {
			t.Fatalf("%s not bound", name)
		}
		if a.AlignedTo != "p" {
			t.Errorf("%s aligned to %q, want p", name, a.AlignedTo)
		}
		if !dist.Same(a.Dist, pp.Dist) {
			t.Errorf("%s distribution differs from p", name)
		}
	}
	// row is CYCLIC((n+NP-1)/NP) = CYCLIC(25) over 101 elements.
	row := pl.Arrays["row"]
	if row == nil || row.Dist.Name() != "CYCLIC(25)" {
		t.Fatalf("row: %+v (dist %s)", row, row.Dist.Name())
	}
	// a aligned with col, both BLOCK over nz.
	col := pl.Arrays["col"]
	av := pl.Arrays["a"]
	if col == nil || av == nil {
		t.Fatal("a/col not bound")
	}
	if av.AlignedTo != "col" || !dist.Same(av.Dist, col.Dist) {
		t.Errorf("a not aligned with col: %+v", av)
	}
	if !strings.Contains(pl.Describe(), "array p") {
		t.Error("Describe missing arrays")
	}
}

// The §4 CSR distribution block with the explicit block size that pins
// the (n+1)'th row pointer onto the last processor.
func TestBindExplicitBlockSize(t *testing.T) {
	src := `
!HPF$ DISTRIBUTE row(BLOCK((n+NP-1)/NP))
!HPF$ ALIGN a(:) WITH col(:)
!HPF$ DISTRIBUTE col(BLOCK)
`
	n, nz, np := 10, 40, 4
	pl, err := Bind(MustParse(src), np, map[string]int{"row": n + 1, "col": nz, "a": nz},
		map[string]int{"n": n})
	if err != nil {
		t.Fatal(err)
	}
	row := pl.Arrays["row"]
	if row.Dist.Name() != "BLOCK(3)" {
		t.Fatalf("row dist %s, want BLOCK(3)", row.Dist.Name())
	}
	// The property the paper wants: the last element lands on the last
	// processor.
	if owner := row.Dist.Owner(n); owner != np-1 {
		t.Errorf("row(n+1) owner %d, want %d", owner, np-1)
	}
}

// §5.2.1's dynamic distribution block with the INDIVISABLE and
// REDISTRIBUTE extensions.
const sec521 = `
!HPF$ PROCESSORS :: PROC(NP)
!HPF$ DISTRIBUTE col(BLOCK((N+NP-1)/NP))
!HPF$ DYNAMIC, ALIGN a(:) WITH row(:)
!HPF$ DYNAMIC, DISTRIBUTE row(BLOCK)
!EXT$ INDIVISABLE row(ATOM:i) :: col(i:i+1)
!EXT$ REDISTRIBUTE row(ATOM: BLOCK)
`

func TestBindSection521(t *testing.T) {
	// Note: the paper's BLOCK((N+NP-1)/NP) idiom only covers the n+1
	// pointer elements when NP does not divide n, so pick np=5 for n=6.
	n, nz, np := 6, 15, 5
	pl, err := Bind(MustParse(sec521), np,
		map[string]int{"col": n + 1, "row": nz, "a": nz},
		map[string]int{"n": n})
	if err != nil {
		t.Fatal(err)
	}
	rowPlan := pl.Arrays["row"]
	if rowPlan == nil || !rowPlan.Dynamic {
		t.Fatalf("row plan: %+v", rowPlan)
	}
	aPlan := pl.Arrays["a"]
	if aPlan == nil || !aPlan.Dynamic || aPlan.AlignedTo != "row" {
		t.Fatalf("a plan: %+v", aPlan)
	}
	if _, ok := pl.AtomsOf["row"]; !ok {
		t.Fatal("INDIVISABLE row not recorded")
	}
	if r, ok := pl.AtomRedist["row"]; !ok || r.Pat.Kind != PatBlock || !r.Pat.Atom || r.Line() != 7 {
		t.Fatalf("ATOM redistribution: %+v ok=%v", r, ok)
	}

	// The CSC executors keep every column whole on its BLOCK owner, so
	// ATOM: BLOCK of the trio's row indices over the column pointers
	// describes them exactly when its uniform cut is the vectors' cut;
	// under another cut (a partitioner's) it is refused with its line.
	sm := SparseMatrix{Format: "csc", Name: "sma", Arrays: [3]string{"col", "row", "a"}}
	root := &ArrayPlan{Name: "p", Size: n, Dist: dist.NewBlock(n, np)}
	if err := pl.CheckExecution(sm, root, dist.NewBlock(n, np)); err != nil {
		t.Errorf("ATOM: BLOCK under BLOCK vectors refused: %v", err)
	}
	err = pl.CheckExecution(sm, root, dist.NewIrregular([]int{0, 2, 3, 4, 5, 6}))
	if err == nil || !strings.HasPrefix(err.Error(), "hpf: line 7: REDISTRIBUTE row(ATOM: BLOCK) starts processor 1 at atom 1") {
		t.Errorf("ATOM: BLOCK under another cut: err = %v, want a line 7 refusal", err)
	}
	// Atoms that are not the trio's rows or columns are refused too.
	sm.Arrays = [3]string{"colptr", "row", "a"}
	if err := pl.CheckExecution(sm, root, dist.NewBlock(n, np)); err == nil || !strings.Contains(err.Error(), "line 7: REDISTRIBUTE row(ATOM: BLOCK) needs row to be sma's data") {
		t.Errorf("ATOM: BLOCK over a foreign pointer array: err = %v", err)
	}
}

const sec522 = `
!HPF$ PROCESSORS :: PROCS(NP)
!HPF$ ALIGN (:) WITH p(:) :: q, r, x, b
!HPF$ DISTRIBUTE p(BLOCK)
!HPF$ DYNAMIC, DISTRIBUTE row(CYCLIC((n+NP-1)/np))
!HPF$ DYNAMIC, ALIGN a(:) WITH col(:)
!HPF$ DYNAMIC, DISTRIBUTE col(BLOCK)
!EXT$ INDIVISABLE row(ATOM: i) :: col(i:i+1)
!EXT$ INDIVISABLE a(ATOM: i) :: col(i:i+1)
!HPF$ SPARSE_MATRIX (CSR) :: smA(row, col, a)
!EXT$ REDISTRIBUTE smA USING CG_BALANCED_PARTITIONER_1
`

func TestBindSection522(t *testing.T) {
	n, nz, np := 8, 30, 3
	pl, err := Bind(MustParse(sec522), np,
		map[string]int{"p": n, "q": n, "r": n, "x": n, "b": n,
			"row": n + 1, "col": nz, "a": nz},
		map[string]int{"n": n, "nz": nz})
	if err != nil {
		t.Fatal(err)
	}
	sm, ok := pl.Sparse["sma"]
	if !ok || sm.Format != "csr" {
		t.Fatalf("SPARSE_MATRIX: %+v", sm)
	}
	if sm.Arrays != [3]string{"row", "col", "a"} {
		t.Errorf("trio: %v", sm.Arrays)
	}
	if pl.Partitioners["sma"] != "cg_balanced_partitioner_1" {
		t.Errorf("partitioner: %v", pl.Partitioners)
	}
	// Realise the partitioner on a skewed matrix.
	m := sparse.PowerLaw(40, 1.0, 12, 3)
	elem, cuts, err := pl.BindPartitioner("sma", m.RowPtr)
	if err != nil {
		t.Fatal(err)
	}
	if elem.N() != m.NNZ() {
		t.Errorf("element dist over %d, want %d", elem.N(), m.NNZ())
	}
	if len(cuts) != np+1 || cuts[0] != 0 || cuts[np] != m.NRows {
		t.Errorf("atom cuts %v", cuts)
	}
	if !strings.Contains(pl.Describe(), "CG_BALANCED_PARTITIONER_1") {
		t.Error("Describe missing partitioner")
	}
}

// The §5.1 ITERATION directive with continuations, exactly as printed
// in the paper.
const iterationSrc = `
!EXT$ ITERATION j ON PROCESSOR(j/np), &
!EXT$ PRIVATE(q(n)) WITH MERGE(+), &
!EXT$ NEW(pj, k), PRIVATE(q(n))
`

func TestParseIteration(t *testing.T) {
	prog, err := Parse(iterationSrc)
	if err != nil {
		t.Fatal(err)
	}
	its := Find[Iteration](prog)
	if len(its) != 1 {
		t.Fatalf("found %d ITERATION directives", len(its))
	}
	it := its[0]
	if it.Var != "j" {
		t.Errorf("var %q", it.Var)
	}
	if it.MapExpr.String() != "(j/np)" {
		t.Errorf("map expr %s", it.MapExpr)
	}
	if len(it.Clauses) != 3 {
		t.Fatalf("%d clauses", len(it.Clauses))
	}
	if it.Clauses[0].Kind != "private" || it.Clauses[0].Array != "q" || it.Clauses[0].Merge != "+" {
		t.Errorf("clause 0: %+v", it.Clauses[0])
	}
	if it.Clauses[1].Kind != "new" || len(it.Clauses[1].Names) != 2 {
		t.Errorf("clause 1: %+v", it.Clauses[1])
	}
	if it.Clauses[2].Kind != "private" || it.Clauses[2].Merge != "" {
		t.Errorf("clause 2: %+v", it.Clauses[2])
	}
}

// checkCSC binds src on np processors against n-element vectors and
// checks it against BLOCK vectors and the CSC trio smA(colptr, rowidx,
// a); src distributes p and declares that trio.
func checkCSC(t *testing.T, src string, n, np int) error {
	t.Helper()
	pl, err := Bind(MustParse(src), np, map[string]int{"p": n, "x": n}, map[string]int{"n": n})
	if err != nil {
		t.Fatal(err)
	}
	root := pl.Arrays["p"]
	return pl.CheckExecution(pl.Sparse["sma"], root, root.Dist.(dist.Contiguous))
}

const cscHead = `!HPF$ DISTRIBUTE p(BLOCK)
!HPF$ SPARSE_MATRIX (CSC) :: smA(colptr, rowidx, a)
`

// TestIterationMap: an ON PROCESSOR(f(j)) map is evaluated over every
// column and accepted only when it sends each to its BLOCK owner. The
// inverse of Lo(r) = ⌊r·n/np⌋ does at every n and np; ⌊j·np/n⌋ does
// not when np does not divide n (n = 10, np = 4 sends column 2 to 0,
// whose BLOCK owner is 1). The paper's j/np is BLOCK at n = np², and a
// value past the last processor is refused, not wrapped mod NP.
func TestIterationMap(t *testing.T) {
	const inverse = cscHead + "!EXT$ ITERATION j ON PROCESSOR(((j+1)*np+n-1)/n-1)\n"
	for np := 1; np <= 9; np++ {
		for n := 1; n <= 64; n++ {
			if err := checkCSC(t, inverse, n, np); err != nil {
				t.Fatalf("n=%d np=%d: %v", n, np, err)
			}
		}
	}
	floor := cscHead + "!EXT$ ITERATION j ON PROCESSOR(j*np/n)\n"
	if err := checkCSC(t, floor, 10, 4); err == nil || err.Error() !=
		"hpf: line 3: ON PROCESSOR((j*np)/n) maps j = 2 to processor 0, but the vectors (BLOCK) own it on 1" {
		t.Errorf("floor map at n=10 np=4: err = %v", err)
	}
	paper := cscHead + iterationSrc
	if err := checkCSC(t, paper, 16, 4); err != nil {
		t.Errorf("j/np at n=16 np=4: %v", err)
	}
	if err := checkCSC(t, paper, 17, 4); err == nil || !strings.Contains(err.Error(),
		"line 4: ON PROCESSOR(j/np) maps j = 16 to processor 4, outside [0, 4)") {
		t.Errorf("j/np at n=17 np=4: err = %v, want j = 16 refused", err)
	}
}

// TestIterationWithDiscard: WITH DISCARD parses but no executor runs
// it, and a map value below 0 is refused rather than wrapped mod NP.
func TestIterationWithDiscard(t *testing.T) {
	prog := MustParse(`!EXT$ ITERATION i ON PROCESSOR(i-1), PRIVATE(tmp(n)) WITH DISCARD`)
	it := Find[Iteration](prog)[0]
	if it.Clauses[0].Merge != "discard" {
		t.Errorf("merge %q", it.Clauses[0].Merge)
	}
	if err := checkCSC(t, cscHead+Format(prog), 5, 3); err == nil ||
		err.Error() != "hpf: line 3: PRIVATE(tmp) WITH DISCARD has no executor; only WITH MERGE(+) runs" {
		t.Errorf("WITH DISCARD: err = %v", err)
	}
	if err := checkCSC(t, cscHead+"!EXT$ ITERATION i ON PROCESSOR(i-1)\n", 5, 3); err == nil ||
		!strings.Contains(err.Error(), "line 3: ON PROCESSOR(i-1) maps i = 0 to processor -1, outside [0, 3)") {
		t.Errorf("negative map: err = %v, want a refusal, not a wrap", err)
	}
}

func TestAlign2DForms(t *testing.T) {
	// Scenario 1 and 2 matrix alignments.
	prog := MustParse(`
!HPF$ DISTRIBUTE p(BLOCK)
!HPF$ ALIGN A(:, *) WITH p(:)
`)
	aligns := Find[Align](prog)
	if len(aligns) != 1 {
		t.Fatal("align count")
	}
	a := aligns[0]
	if a.Source != "a" || len(a.SourceDims) != 2 {
		t.Fatalf("%+v", a)
	}
	if a.SourceDims[0].Kind != ":" || a.SourceDims[1].Kind != "*" {
		t.Errorf("dims %v", a.SourceDims)
	}
	prog2 := MustParse(`!HPF$ ALIGN row(ATOM:i) WITH col(i)`)
	a2 := Find[Align](prog2)[0]
	if a2.SourceDims[0].Kind != "atom" || a2.SourceDims[0].Name != "i" {
		t.Errorf("atom align dims %v", a2.SourceDims)
	}
	if a2.TargetDims[0].Kind != "ident" || a2.TargetDims[0].Name != "i" {
		t.Errorf("target dims %v", a2.TargetDims)
	}
}

func TestExprEval(t *testing.T) {
	prog := MustParse(`!HPF$ DISTRIBUTE v(BLOCK(2*n - 6/3 + 1))`)
	d := Find[Distribute](prog)[0]
	env := map[string]int{"n": 5}
	got, err := d.Pat.Size.Eval(env)
	if err != nil {
		t.Fatal(err)
	}
	if got != 9 { // 10 - 2 + 1
		t.Errorf("eval = %d, want 9", got)
	}
	if _, err := d.Pat.Size.Eval(map[string]int{}); err == nil {
		t.Error("undefined identifier should error")
	}
	// Division by zero.
	prog2 := MustParse(`!HPF$ DISTRIBUTE v(BLOCK(n/m))`)
	d2 := Find[Distribute](prog2)[0]
	if _, err := d2.Pat.Size.Eval(map[string]int{"n": 4, "m": 0}); err == nil {
		t.Error("division by zero should error")
	}
	// Unary minus.
	prog3 := MustParse(`!HPF$ DISTRIBUTE v(BLOCK(-n + 7))`)
	d3 := Find[Distribute](prog3)[0]
	v, err := d3.Pat.Size.Eval(map[string]int{"n": 3})
	if err != nil || v != 4 {
		t.Errorf("unary minus: %d %v", v, err)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`!HPF$ FROBNICATE x(BLOCK)`,
		`!HPF$ DISTRIBUTE p(TRIANGULAR)`,
		`!HPF$ DISTRIBUTE p(BLOCK`,
		`!HPF$ PROCESSORS PROCS(4)`,
		`!HPF$ ALIGN (:) WITH p(:)`, // bare spec without :: list
		`!HPF$ SPARSE_MATRIX (ELL) :: m(a, b, c)`,
		`!HPF$ SPARSE_MATRIX (CSR) :: m(a, b)`,
		`!EXT$ REDISTRIBUTE row(BLOCK)`, // not ATOM-qualified
		`!EXT$ ITERATION j PROCESSOR(j)`,
		`!EXT$ ITERATION j ON PROCESSOR(j), PRIVATE(q(n)) WITH MERGE(*)`,
		`!EXT$ ITERATION j ON PROCESSOR(j), BOGUS(q)`,
		`!HPF$ DISTRIBUTE p(BLOCK) extra`,
		`!HPF$ DYNAMIC, PROCESSORS :: P(4)`,
		`!HPF$ DISTRIBUTE p(BLOCK(#))`,
		`!EXT$ ITERATION j ON PROCESSOR(j), &`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}

func TestBindErrors(t *testing.T) {
	// Missing size.
	if _, err := Bind(MustParse(`!HPF$ DISTRIBUTE p(BLOCK)`), 2, nil, nil); err == nil {
		t.Error("missing size accepted")
	}
	// PROCESSORS mismatch.
	if _, err := Bind(MustParse(`!HPF$ PROCESSORS :: P(8)`), 2, nil, nil); err == nil {
		t.Error("processor mismatch accepted")
	}
	// Align size mismatch.
	src := `
!HPF$ DISTRIBUTE p(BLOCK)
!HPF$ ALIGN a(:) WITH p(:)
`
	if _, err := Bind(MustParse(src), 2, map[string]int{"p": 10, "a": 7}, nil); err == nil {
		t.Error("align size mismatch accepted")
	}
	// Align to undistributed target.
	if _, err := Bind(MustParse(`!HPF$ ALIGN a(:) WITH ghost(:)`), 2,
		map[string]int{"a": 4, "ghost": 4}, nil); err == nil {
		t.Error("align to unbound target accepted")
	}
	// Bad block size.
	if _, err := Bind(MustParse(`!HPF$ DISTRIBUTE p(BLOCK(n-9))`), 2,
		map[string]int{"p": 8}, map[string]int{"n": 5}); err == nil {
		t.Error("negative block size accepted")
	}
	// Infeasible block size: k*NP < n must be a bind error, not a panic
	// (fuzzer regression).
	if _, err := Bind(MustParse(`!HPF$ DISTRIBUTE p(BLOCK(n/7))`), 4,
		map[string]int{"p": 64}, map[string]int{"n": 64}); err == nil {
		t.Error("infeasible BLOCK(k) accepted")
	}
	// np validation.
	if _, err := Bind(MustParse(``), 0, nil, nil); err == nil {
		t.Error("np=0 accepted")
	}
	// BindPartitioner without a declaration.
	pl, err := Bind(MustParse(`!HPF$ DISTRIBUTE p(BLOCK)`), 2, map[string]int{"p": 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := pl.BindPartitioner("p", []int{0, 2, 4}); err == nil {
		t.Error("missing partitioner accepted")
	}
}

func TestAlignChains(t *testing.T) {
	// b aligned with a, a aligned with p: chain resolution.
	src := `
!HPF$ ALIGN b(:) WITH a(:)
!HPF$ ALIGN a(:) WITH p(:)
!HPF$ DISTRIBUTE p(BLOCK)
`
	pl, err := Bind(MustParse(src), 2, map[string]int{"p": 10, "a": 10, "b": 10}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Arrays["b"].AlignedTo != "p" {
		t.Errorf("b aligned to %q, want p (chain root)", pl.Arrays["b"].AlignedTo)
	}
	if !dist.Same(pl.Arrays["b"].Dist, pl.Arrays["p"].Dist) {
		t.Error("chained alignment distribution mismatch")
	}
}

// TestBindRefusesSecondMapping: a second DISTRIBUTE or ALIGN of one
// array, a second REDISTRIBUTE of it (by pattern or by partitioner), a
// second INDIVISABLE of it or a second SPARSE_MATRIX of one name is
// refused with both lines, never a silent replacement of the first.
func TestBindRefusesSecondMapping(t *testing.T) {
	const procs = "!HPF$ PROCESSORS :: PROCS(NP)\n"
	sizes := map[string]int{"p": 10, "q": 10, "x": 10, "row": 11, "col": 30, "a": 30, "colptr": 11, "rowidx": 30}
	for _, c := range []struct {
		name, src   string
		line, first int
	}{
		{"DISTRIBUTE twice", procs + "!HPF$ DISTRIBUTE p(CYCLIC)\n!HPF$ DISTRIBUTE p(BLOCK)\n", 3, 2},
		{"ATOM: CYCLIC then ATOM: BLOCK", procs + "!HPF$ DISTRIBUTE p(BLOCK)\n!EXT$ REDISTRIBUTE rowidx(ATOM: CYCLIC)\n!EXT$ REDISTRIBUTE rowidx(ATOM: BLOCK)\n", 4, 3},
		{"pattern then partitioner", procs + "!EXT$ REDISTRIBUTE smA(ATOM: BLOCK)\n!EXT$ REDISTRIBUTE smA USING CG_BALANCED_PARTITIONER_1\n", 3, 2},
		{"ALIGN of a distributed array", procs + "!HPF$ DISTRIBUTE p(BLOCK)\n!HPF$ DISTRIBUTE x(CYCLIC)\n!HPF$ ALIGN x(:) WITH p(:)\n", 4, 3},
		{"DISTRIBUTE of an aligned array", procs + "!HPF$ ALIGN (:) WITH p(:) :: q, x\n!HPF$ DISTRIBUTE p(BLOCK)\n!HPF$ DISTRIBUTE x(CYCLIC)\n", 4, 2},
		{"ALIGN twice", procs + "!HPF$ DISTRIBUTE p(BLOCK)\n!HPF$ DISTRIBUTE q(BLOCK)\n!HPF$ ALIGN x(:) WITH p(:)\n!HPF$ ALIGN x(:) WITH q(:)\n", 5, 4},
		{"INDIVISABLE twice", procs + "!EXT$ INDIVISABLE a(ATOM:i) :: row(i:i+1)\n!EXT$ INDIVISABLE a(ATOM:i) :: colptr(i:i+1)\n", 3, 2},
		{"SPARSE_MATRIX twice", procs + "!HPF$ SPARSE_MATRIX (CSR) :: smA(row, col, a)\n!HPF$ SPARSE_MATRIX (CSC) :: smA(colptr, rowidx, a)\n", 3, 2},
	} {
		_, err := Bind(MustParse(c.src), 4, sizes, nil)
		prefix, suffix := fmt.Sprintf("hpf: line %d: ", c.line), fmt.Sprintf("(first mapped at line %d)", c.first)
		if err == nil || !strings.HasPrefix(err.Error(), prefix) || !strings.HasSuffix(err.Error(), suffix) {
			t.Errorf("%s: err = %v, want %q…%q", c.name, err, prefix, suffix)
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse should panic on bad input")
		}
	}()
	MustParse(`!HPF$ NOT_A_DIRECTIVE`)
}

func TestSplitDirectivePrefixes(t *testing.T) {
	for _, line := range []string{
		"!HPF$ DISTRIBUTE p(BLOCK)",
		"$HPF$ DISTRIBUTE p(BLOCK)",
		"!ext$ REDISTRIBUTE row(ATOM: BLOCK)",
		"  !HPF$  DISTRIBUTE p(BLOCK)  ",
	} {
		if _, _, ok := splitDirective(line); !ok {
			t.Errorf("%q not recognised", line)
		}
	}
	for _, line := range []string{"DO i = 1, n", "! plain comment", "C fortran comment"} {
		if _, _, ok := splitDirective(line); ok {
			t.Errorf("%q wrongly recognised", line)
		}
	}
}

// TestBindAtomCyclicRedistribution: ATOM: CYCLIC binds (the plan
// records it) but no executor deals whole columns round-robin, so the
// check refuses it with its line; so does a second array of the vector
// size mapped unlike the vectors.
func TestBindAtomCyclicRedistribution(t *testing.T) {
	src := cscHead + `!EXT$ INDIVISABLE rowidx(ATOM:i) :: colptr(i:i+1)
!EXT$ REDISTRIBUTE rowidx(ATOM: CYCLIC)
`
	err := checkCSC(t, src, 6, 3)
	if err == nil || err.Error() != "hpf: line 4: REDISTRIBUTE rowidx(ATOM: CYCLIC) has no executor; only ATOM: BLOCK runs" {
		t.Errorf("ATOM: CYCLIC: err = %v", err)
	}
	if err := checkCSC(t, cscHead+"!HPF$ DISTRIBUTE x(CYCLIC)\n"+"!EXT$ REDISTRIBUTE rowidx(ATOM: CYCLIC)\n", 6, 3); err == nil ||
		err.Error() != "hpf: line 3: x is distributed CYCLIC, the vectors BLOCK (as p); one mapping runs every array of the vector size 6" {
		t.Errorf("DISTRIBUTE x(CYCLIC) beside p(BLOCK): err = %v, want the earlier line 3", err)
	}
}

// TestDescribeIsDeterministic: the plan table lists each map-held
// declaration in name order, so two INDIVISABLE lines (and two
// partitioners) print the same way on every call.
func TestDescribeIsDeterministic(t *testing.T) {
	pl, err := Bind(MustParse(sec522+"!EXT$ REDISTRIBUTE col USING CG_GREEDY_PARTITIONER\n"), 3,
		map[string]int{"p": 8, "q": 8, "r": 8, "x": 8, "b": 8, "row": 9, "col": 30, "a": 30},
		map[string]int{"n": 8, "nz": 30})
	if err != nil {
		t.Fatal(err)
	}
	first := pl.Describe()
	if !strings.Contains(first, "atoms  a(ATOM:i) :: col(i:(i+1))\natoms  row(ATOM:i)") ||
		!strings.Contains(first, "redistribute col USING CG_GREEDY_PARTITIONER\nredistribute sma USING") {
		t.Fatalf("Describe:\n%s\nwant the atoms and partitioners in name order", first)
	}
	for i := 0; i < 20; i++ {
		if got := pl.Describe(); got != first {
			t.Fatalf("call %d differs:\n%s\nvs\n%s", i, got, first)
		}
	}
}

func TestGreedyPartitionerBinding(t *testing.T) {
	src := `
!HPF$ DISTRIBUTE p(BLOCK)
!EXT$ REDISTRIBUTE smA USING CG_GREEDY_PARTITIONER
`
	pl, err := Bind(MustParse(src), 2, map[string]int{"p": 6}, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := sparse.PowerLaw(30, 1.0, 10, 2)
	elem, cuts, err := pl.BindPartitioner("sma", m.RowPtr)
	if err != nil {
		t.Fatal(err)
	}
	if elem.N() != m.NNZ() || len(cuts) != 3 {
		t.Errorf("greedy binding wrong: %d %v", elem.N(), cuts)
	}
	// Unknown partitioner name.
	src2 := `
!HPF$ DISTRIBUTE p(BLOCK)
!EXT$ REDISTRIBUTE smA USING METIS_MAGIC
`
	pl2, err := Bind(MustParse(src2), 2, map[string]int{"p": 6}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := pl2.BindPartitioner("sma", m.RowPtr); err == nil {
		t.Error("unknown partitioner accepted")
	}
}

func TestParserErrorBranches(t *testing.T) {
	bad := []string{
		`!HPF$ PROCESSORS :: P`,         // missing (count)
		`!HPF$ PROCESSORS :: P(4`,       // missing )
		`!HPF$ PROCESSORS :: 4(4)`,      // name not ident
		`!HPF$ PROCESSORS P(4)`,         // missing ::
		`!EXT$ INDIVISABLE row(ATOM i)`, // missing colon
		`!EXT$ INDIVISABLE row(BLOB:i) :: col(i:i+1)`,
		`!EXT$ INDIVISABLE row(ATOM:i) col(i:i+1)`,    // missing ::
		`!EXT$ INDIVISABLE row(ATOM:i) :: col(i i+1)`, // missing colon in section
		`!EXT$ INDIVISABLE row(ATOM:i) :: col(i:i+1`,  // missing )
		`!HPF$ ALIGN a(:) p(:)`,                       // missing WITH
		`!HPF$ DISTRIBUTE p()`,                        // empty pattern
		`!HPF$ DISTRIBUTE p(BLOCK(2)`,                 // missing )
		`!EXT$ ITERATION j ON PROCESSOR j`,            // missing (
		`!HPF$ ALIGN a(%) WITH p(:)`,                  // bad dim char
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}

func TestTokenKindStrings(t *testing.T) {
	kinds := []tokKind{tokEOF, tokIdent, tokNumber, tokLParen, tokRParen,
		tokComma, tokColon, tokDoubleColon, tokPlus, tokMinus, tokStar, tokSlash, tokKind(99)}
	for _, k := range kinds {
		if k.String() == "" {
			t.Errorf("kind %d has empty name", int(k))
		}
	}
}

func TestLexerRejectsNonASCIIIdentifiers(t *testing.T) {
	// Fuzzer regression: a Latin-1 byte must not lex as a letter (the
	// formatter round trip breaks if it does).
	if _, err := Parse("!HPF$ DISTRIBUTE A(BLOCK((\xf3)))"); err == nil {
		t.Error("non-ASCII identifier byte accepted")
	}
	if _, err := Parse("!HPF$ DISTRIBUTE grün(BLOCK)"); err == nil {
		t.Error("UTF-8 identifier accepted (Fortran identifiers are ASCII)")
	}
}
