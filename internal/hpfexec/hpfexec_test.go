package hpfexec

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"hpfcg/internal/comm"
	"hpfcg/internal/core"
	"hpfcg/internal/hpf"
	"hpfcg/internal/seq"
	"hpfcg/internal/sparse"
	"hpfcg/internal/topology"
)

func machine(np int) *comm.Machine {
	return comm.NewMachine(np, topology.Hypercube{}, topology.DefaultCostParams())
}

// SolveCG executes the CG of the paper's Figure 2 under the bound
// plan: the one-RHS front door over Prepare + SolveBatch. A is the
// runtime matrix (CSR form; converted as the declared storage format
// requires), b the right-hand side. A processor killed by the fault
// layer surfaces as a typed comm.PeerFailure error (no deadlock); a
// handle whose variant is resilient recovers instead.
func SolveCG(m *comm.Machine, plan *hpf.Plan, A *sparse.CSR, b []float64, opt core.Options) (*Result, error) {
	pr, err := Prepare(m, plan, A)
	if err != nil {
		return nil, err
	}
	out, err := pr.SolveBatch([][]float64{b}, []core.Options{opt})
	if err != nil {
		return nil, err
	}
	if r := out.Results[0]; r.Err != nil {
		return nil, r.Err
	}
	return out.Results[0], nil
}

// bindPlan parses and binds directives for an n x n system with nz
// nonzeros over np processors, supplying the standard array sizes.
func bindPlan(t *testing.T, src string, n, nz, np int) *hpf.Plan {
	t.Helper()
	prog, err := hpf.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := hpf.Bind(prog, np,
		map[string]int{"p": n, "q": n, "r": n, "x": n, "b": n,
			"row": n + 1, "col": nz, "a": nz,
			"colptr": n + 1, "rowidx": nz},
		map[string]int{"n": n, "nz": nz})
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

const csrPlan = `
!HPF$ PROCESSORS :: PROCS(NP)
!HPF$ ALIGN (:) WITH p(:) :: q, r, x, b
!HPF$ DISTRIBUTE p(BLOCK)
!HPF$ ALIGN a(:) WITH col(:)
!HPF$ DISTRIBUTE col(BLOCK)
!HPF$ SPARSE_MATRIX (CSR) :: smA(row, col, a)
`

const cscPlanSerial = `
!HPF$ PROCESSORS :: PROCS(NP)
!HPF$ ALIGN (:) WITH p(:) :: q, r, x, b
!HPF$ DISTRIBUTE p(BLOCK)
!HPF$ SPARSE_MATRIX (CSC) :: smA(colptr, rowidx, a)
`

const cscPlanMerge = cscPlanSerial + `
!EXT$ ITERATION j ON PROCESSOR(((j+1)*np+n-1)/n-1), PRIVATE(q(n)) WITH MERGE(+)
`

const balancedPlan = csrPlan + `
!EXT$ REDISTRIBUTE smA USING CG_BALANCED_PARTITIONER_1
`

// solveVariant is the one-RHS form of the surviving API: Prepare,
// WithVariant, SolveBatchContext.
func solveVariant(ctx context.Context, m *comm.Machine, plan *hpf.Plan, A *sparse.CSR, b []float64, opt core.Options, v Variant) (*Result, error) {
	pr, err := Prepare(m, plan, A)
	if err != nil {
		return nil, err
	}
	if err := pr.WithVariant(v); err != nil {
		return nil, err
	}
	out, err := pr.SolveBatchContext(ctx, [][]float64{b}, []core.Options{opt})
	if err != nil {
		return nil, err
	}
	return out.Results[0], out.Results[0].Err
}

func relResidual(A *sparse.CSR, x, b []float64) float64 {
	r := make([]float64, A.NRows)
	A.MulVec(x, r)
	rn, bn := 0.0, 0.0
	for i := range r {
		rn += (r[i] - b[i]) * (r[i] - b[i])
		bn += b[i] * b[i]
	}
	return math.Sqrt(rn / bn)
}

func TestCSRPlanRunsScenario1(t *testing.T) {
	// Big enough that the row-strip halo (2 grid rows) is well under a
	// quarter of the vector, so the executor selection picks ghost.
	A := sparse.Laplace2D(16, 16)
	b := sparse.RandomVector(A.NRows, 2)
	np := 4
	plan := bindPlan(t, csrPlan, A.NRows, A.NNZ(), np)
	res, err := SolveCG(machine(np), plan, A, b, core.Options{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy.Scenario != "row-block CSR" || !strings.HasPrefix(res.Strategy.Mode, "local") {
		t.Errorf("strategy %v", res.Strategy)
	}
	// The 2-D Laplacian has a thin halo: the executor must pick ghost.
	if res.Strategy.Mode != "local(ghost)" {
		t.Errorf("mode %q, want local(ghost) for a Laplacian", res.Strategy.Mode)
	}
	if !res.Stats.Converged {
		t.Fatalf("not converged: %v", res.Stats)
	}
	if rr := relResidual(A, res.X, b); rr > 1e-8 {
		t.Errorf("residual %g", rr)
	}
}

func TestCSCPlanModes(t *testing.T) {
	A := sparse.Banded(48, 3)
	b := sparse.RandomVector(48, 5)
	np := 4

	serialPlan := bindPlan(t, cscPlanSerial, 48, A.NNZ(), np)
	serial, err := SolveCG(machine(np), serialPlan, A, b, core.Options{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if serial.Strategy.Mode != "serialized" {
		t.Fatalf("without ITERATION directive mode = %q", serial.Strategy.Mode)
	}

	mergePlan := bindPlan(t, cscPlanMerge, 48, A.NNZ(), np)
	merged, err := SolveCG(machine(np), mergePlan, A, b, core.Options{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if merged.Strategy.Mode != "private-merge" {
		t.Fatalf("with MERGE(+) directive mode = %q", merged.Strategy.Mode)
	}

	// Same numerics, different speed: §5.1's point.
	if serial.Stats.Iterations != merged.Stats.Iterations {
		t.Errorf("iterations differ: %d vs %d", serial.Stats.Iterations, merged.Stats.Iterations)
	}
	for i := range serial.X {
		if math.Abs(serial.X[i]-merged.X[i]) > 1e-9 {
			t.Fatalf("solutions differ at %d", i)
		}
	}
	if merged.Run.ModelTime >= serial.Run.ModelTime {
		t.Errorf("merge model time %g >= serialized %g", merged.Run.ModelTime, serial.Run.ModelTime)
	}
	if !strings.Contains(merged.Strategy.String(), "private-merge") {
		t.Error("strategy string")
	}
}

func TestBalancedPlanRebalances(t *testing.T) {
	A := sparse.PowerLawClustered(400, 100, 7)
	b := sparse.RandomVector(400, 3)
	np := 4

	plain := bindPlan(t, csrPlan, 400, A.NNZ(), np)
	p1, err := SolveCG(machine(np), plain, A, b, core.Options{Tol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	bal := bindPlan(t, balancedPlan, 400, A.NNZ(), np)
	p2, err := SolveCG(machine(np), bal, A, b, core.Options{Tol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	if !p2.Strategy.Balanced || p1.Strategy.Balanced {
		t.Fatalf("balanced flags: %v %v", p1.Strategy, p2.Strategy)
	}
	if p2.Run.FlopImbalance() >= p1.Run.FlopImbalance() {
		t.Errorf("partitioner did not improve imbalance: %g vs %g",
			p2.Run.FlopImbalance(), p1.Run.FlopImbalance())
	}
	if rr := relResidual(A, p2.X, b); rr > 1e-6 {
		t.Errorf("balanced residual %g", rr)
	}
}

func TestMatchesSequential(t *testing.T) {
	A := sparse.RandomSPD(40, 5, 9)
	b := sparse.RandomVector(40, 4)
	np := 2
	plan := bindPlan(t, csrPlan, 40, A.NNZ(), np)
	res, err := SolveCG(machine(np), plan, A, b, core.Options{Tol: 1e-11})
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]float64, 40)
	if _, err := seq.CG(A, b, xs, seq.Options{Tol: 1e-11}); err != nil {
		t.Fatal(err)
	}
	for i := range xs {
		if math.Abs(res.X[i]-xs[i]) > 1e-7 {
			t.Fatalf("directive-driven solve differs from sequential at %d", i)
		}
	}
}

func TestSolveCGErrors(t *testing.T) {
	A := sparse.Laplace1D(8)
	b := sparse.Ones(8)
	np := 2

	// No SPARSE_MATRIX declaration.
	noSM := bindPlan(t, `!HPF$ DISTRIBUTE p(BLOCK)`, 8, A.NNZ(), np)
	if _, err := SolveCG(machine(np), noSM, A, b, core.Options{}); err == nil {
		t.Error("missing SPARSE_MATRIX accepted")
	}
	// Cyclic vector distribution.
	cyc := bindPlan(t, `
!HPF$ DISTRIBUTE p(CYCLIC)
!HPF$ SPARSE_MATRIX (CSR) :: smA(row, col, a)
`, 8, A.NNZ(), np)
	if _, err := SolveCG(machine(np), cyc, A, b, core.Options{}); err == nil {
		t.Error("cyclic vector distribution accepted")
	}
	// Plan/machine NP mismatch.
	plan := bindPlan(t, csrPlan, 8, A.NNZ(), np)
	if _, err := SolveCG(machine(np+1), plan, A, b, core.Options{}); err == nil {
		t.Error("NP mismatch accepted")
	}
	// Rectangular matrix and bad rhs.
	rect := sparse.NewCOO(2, 3)
	rect.Add(0, 0, 1)
	if _, err := SolveCG(machine(np), plan, rect.ToCSR(), b[:2], core.Options{}); err == nil {
		t.Error("rectangular matrix accepted")
	}
	if _, err := SolveCG(machine(np), plan, A, b[:3], core.Options{}); err == nil {
		t.Error("short rhs accepted")
	}
	// PRIVATE ... WITH DISCARD parses but has no executor.
	discard := bindPlan(t, cscPlanSerial+"!EXT$ ITERATION j ON PROCESSOR(j*np/n), PRIVATE(q(n)) WITH DISCARD\n", 8, A.NNZ(), np)
	if _, err := SolveCG(machine(np), discard, A, b, core.Options{}); err == nil || !strings.Contains(err.Error(), "hpf: line 6: PRIVATE(q) WITH DISCARD") {
		t.Errorf("WITH DISCARD: err = %v, want a line 6 refusal", err)
	}
	// No array of vector size.
	tiny := bindPlan(t, `
!HPF$ DISTRIBUTE col(BLOCK)
!HPF$ SPARSE_MATRIX (CSR) :: smA(row, col, a)
`, 8, A.NNZ(), np)
	delete(tiny.Arrays, "p") // ensure only col (nz-sized) remains
	if _, err := SolveCG(machine(np), tiny, A, b, core.Options{}); err == nil {
		t.Error("plan without vector arrays accepted")
	}
}

// TestSolveCGTimeoutCompletes: a healthy solve under a deadline
// (SolveBatchContext with a timeout) behaves exactly like SolveCG.
func TestSolveCGTimeoutCompletes(t *testing.T) {
	A := sparse.Laplace2D(12, 12)
	b := sparse.RandomVector(A.NRows, 3)
	np := 4
	plan := bindPlan(t, csrPlan, A.NRows, A.NNZ(), np)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := solveVariant(ctx, machine(np), plan, A, b, core.Options{Tol: 1e-10}, Plain())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Converged {
		t.Fatalf("not converged: %v", res.Stats)
	}
	if rr := relResidual(A, res.X, b); rr > 1e-8 {
		t.Errorf("residual %g", rr)
	}
	plain, err := SolveCG(machine(np), plan, A, b, core.Options{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Iterations != plain.Stats.Iterations {
		t.Errorf("timeout path took %d iterations, plain path %d", res.Stats.Iterations, plain.Stats.Iterations)
	}
}

// FuzzBindPrepare drives the directive front door end to end, not just
// the parser: any directive text is bound against laplace2d:4:4 on 1 to
// 8 processors, prepared, and solved once under a 40-iteration cap. Each
// step returns an error or a result; none panics or hangs. The seeds
// include every program TestPrepareRefusesUnrunDirectives and
// TestBindRefusesSecondMapping refuse, at np 4.
func FuzzBindPrepare(f *testing.F) {
	for i, name := range Layouts() {
		f.Add(layoutPrograms[name], uint8(i))
	}
	for i, src := range []string{
		"!HPF$ PROCESSORS :: PROCS(NP)\n!HPF$ DISTRIBUTE p(CYCLIC)\n!HPF$ SPARSE_MATRIX (CSR) :: smA(row, col, a)\n",
		"!HPF$ PROCESSORS :: PROCS(NP)\n!HPF$ DISTRIBUTE p(CYCLIC((n+NP-1)/np))\n!HPF$ SPARSE_MATRIX (CSC) :: smA(colptr, rowidx, a)\n",
		"!HPF$ PROCESSORS :: PROCS(NP)\n!HPF$ ALIGN (:) WITH p(:) :: q, r, x, b\n!HPF$ DISTRIBUTE p(BLOCK(4))\n!HPF$ SPARSE_MATRIX (CSR) :: smA(row, col, a)\n",
		"!HPF$ PROCESSORS :: PROCS(NP)\n!HPF$ DISTRIBUTE p(BLOCK((n+NP-1)/NP))\n!HPF$ SPARSE_MATRIX (CSC) :: smA(colptr, rowidx, a)\n",
		"!HPF$ PROCESSORS :: PROCS(NP)\n!HPF$ DISTRIBUTE p(BLOCK)\n!HPF$ SPARSE_MATRIX (CSR) :: smA(row, col, a)\n!EXT$ ITERATION i ON PROCESSOR(i*np/n)\n",
		"!HPF$ PROCESSORS :: PROCS(NP)\n!HPF$ DISTRIBUTE p(BLOCK)\n!HPF$ SPARSE_MATRIX (CSC) :: smA(colptr, rowidx, a)\n!EXT$ ITERATION j ON PROCESSOR(j/np), &\n!EXT$ PRIVATE(q(n)) WITH DISCARD\n",
	} {
		f.Add(src, uint8(i+5))
	}
	for _, c := range refusals {
		f.Add(c.src, uint8(3))
	}
	for _, c := range bindRefusals {
		f.Add(c.src, uint8(3))
	}
	A := sparse.Laplace2D(4, 4)
	b := sparse.RandomVector(A.NRows, 1)
	f.Fuzz(func(t *testing.T, src string, procs uint8) {
		np := 1 + int(procs%8)
		plan, err := BindProgram(src, np, A.NRows, A.NNZ())
		if err != nil {
			return
		}
		pr, err := Prepare(machine(np), plan, A)
		if err != nil {
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		out, err := pr.SolveBatchContext(ctx, [][]float64{b}, []core.Options{{Tol: 1e-10, MaxIter: 40}})
		if err == nil && (out == nil || len(out.Results) != 1) {
			t.Fatalf("np=%d: a solve with no error returned %+v", np, out)
		}
	})
}
