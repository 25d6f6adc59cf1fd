package hpfcg

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"hpfcg/internal/core"
	"hpfcg/internal/darray"
	"hpfcg/internal/dist"
	"hpfcg/internal/hpfexec"
	"hpfcg/internal/partition"
	"hpfcg/internal/sparse"
	"hpfcg/internal/spmv"
)

func residual(A *CSR, x, b []float64) float64 {
	r := make([]float64, A.NRows)
	A.MulVec(x, r)
	rn, bn := 0.0, 0.0
	for i := range r {
		rn += (r[i] - b[i]) * (r[i] - b[i])
		bn += b[i] * b[i]
	}
	return math.Sqrt(rn / bn)
}

func TestSolveAllMethodsAndLayouts(t *testing.T) {
	A := sparse.Laplace2D(6, 6)
	b := sparse.RandomVector(A.NRows, 4)
	methods := []Method{MethodCG, MethodPCG, MethodBiCG, MethodCGS, MethodBiCGSTAB}
	layouts := []Layout{LayoutCSR, LayoutCSCSerial, LayoutCSCMerge, LayoutBalanced}
	for _, method := range methods {
		for _, layout := range layouts {
			res, err := Solve(A, b, SolveSpec{Method: method, Layout: layout, NP: 4, Tol: 1e-9})
			if err != nil {
				t.Fatalf("%s/%s: %v", method, layout, err)
			}
			if !res.Stats.Converged {
				t.Fatalf("%s/%s: not converged: %v", method, layout, res.Stats)
			}
			if rr := residual(A, res.X, b); rr > 1e-7 {
				t.Errorf("%s/%s: residual %g", method, layout, rr)
			}
			if res.Run.ModelTime <= 0 {
				t.Errorf("%s/%s: no modeled time", method, layout)
			}
		}
	}
}

func TestSolveDefaults(t *testing.T) {
	A := sparse.Laplace1D(20)
	b := sparse.Ones(20)
	res, err := Solve(A, b, SolveSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Converged {
		t.Fatalf("defaults: %v", res.Stats)
	}
}

func TestSolveBalanced(t *testing.T) {
	A := sparse.PowerLawClustered(300, 60, 3)
	b := sparse.RandomVector(300, 1)
	plain, err := Solve(A, b, SolveSpec{NP: 4, Tol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	bal, err := Solve(A, b, SolveSpec{NP: 4, Tol: 1e-8, Layout: LayoutBalanced})
	if err != nil {
		t.Fatal(err)
	}
	if rr := residual(A, bal.X, b); rr > 1e-6 {
		t.Errorf("balanced residual %g", rr)
	}
	if bal.Run.FlopImbalance() > plain.Run.FlopImbalance()+1e-9 {
		t.Errorf("balanced imbalance %g worse than plain %g",
			bal.Run.FlopImbalance(), plain.Run.FlopImbalance())
	}
}

func TestSolveErrors(t *testing.T) {
	A := sparse.Laplace1D(8)
	b := sparse.Ones(8)
	cases := []SolveSpec{
		{Layout: "triangular"},
		{Method: "sor"},
		{NP: -2},
		{Topology: "moebius"},
		{Tol: -1},
		{MaxIter: -5},
		{Method: MethodBiCGSTAB, Tol: -1},
		{Method: MethodPCG, MaxIter: -5},
	}
	for i, spec := range cases {
		if spec.NP == 0 {
			spec.NP = 2
		}
		if _, err := Solve(A, b, spec); err == nil {
			t.Errorf("case %d (%+v): expected error", i, spec)
		}
	}
	// The retired names are refused, and the error lists the accepted ones.
	for _, tc := range []struct {
		spec SolveSpec
		have []string
	}{
		{SolveSpec{Layout: "row-csr"}, hpfexec.Layouts()},
		{SolveSpec{Layout: "row-csr-halo"}, hpfexec.Layouts()},
		{SolveSpec{Layout: "dense-col"}, hpfexec.Layouts()},
		{SolveSpec{Method: "gmres"}, []string{"cg", "pcg", "bicg", "cgs", "bicgstab"}},
	} {
		_, err := Solve(A, b, tc.spec)
		if err == nil {
			t.Errorf("%+v: retired name accepted", tc.spec)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, "["+strings.Join(tc.have, " ")+"]") {
			t.Errorf("%+v: error %q does not list %v", tc.spec, msg, tc.have)
		}
	}
	rect := sparse.NewCOO(2, 3)
	rect.Add(0, 0, 1)
	if _, err := Solve(rect.ToCSR(), b[:2], SolveSpec{NP: 1}); err == nil {
		t.Error("rectangular matrix accepted")
	}
	if _, err := Solve(A, b[:3], SolveSpec{NP: 1}); err == nil {
		t.Error("short rhs accepted")
	}
}

func TestNewMachine(t *testing.T) {
	for _, topo := range []string{"", "hypercube", "ring", "mesh2d", "full"} {
		m, err := NewMachine(Config{NP: 3, Topology: topo})
		if err != nil {
			t.Fatalf("%q: %v", topo, err)
		}
		if m.NP() != 3 {
			t.Errorf("%q: NP %d", topo, m.NP())
		}
	}
	if _, err := NewMachine(Config{NP: 0}); err == nil {
		t.Error("NP=0 accepted")
	}
	if _, err := NewMachine(Config{NP: 2, Topology: "klein-bottle"}); err == nil {
		t.Error("bad topology accepted")
	}
}

func TestSolveMatchesAcrossLayouts(t *testing.T) {
	A := sparse.RandomSPD(40, 5, 8)
	b := sparse.RandomVector(40, 2)
	var base []float64
	for i, layout := range []Layout{LayoutCSR, LayoutCSCMerge, LayoutCSCSerial} {
		res, err := Solve(A, b, SolveSpec{Layout: layout, NP: 3, Tol: 1e-11})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			base = res.X
			continue
		}
		for g := range base {
			if math.Abs(res.X[g]-base[g]) > 1e-8 {
				t.Fatalf("%s: solution differs at %d", layout, g)
			}
		}
	}
}

func TestSolveHistory(t *testing.T) {
	A := sparse.Laplace1D(25)
	b := sparse.Ones(25)
	res, err := Solve(A, b, SolveSpec{NP: 2, History: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats.History) != res.Stats.Iterations {
		t.Errorf("history %d != iterations %d", len(res.Stats.History), res.Stats.Iterations)
	}
}

// Integration matrix: every layout must solve correctly on every
// topology and several processor counts (the portability claim).
func TestSolveLayoutTopologyMatrix(t *testing.T) {
	A := sparse.Laplace2D(5, 5)
	b := sparse.RandomVector(A.NRows, 6)
	layouts := []Layout{LayoutCSR, LayoutCSCSerial, LayoutCSCMerge, LayoutBalanced}
	topos := []string{"hypercube", "ring", "mesh2d", "full"}
	for _, layout := range layouts {
		for _, topo := range topos {
			for _, np := range []int{1, 3, 4} {
				res, err := Solve(A, b, SolveSpec{
					Layout: layout, Topology: topo, NP: np, Tol: 1e-9,
				})
				if err != nil {
					t.Fatalf("%s/%s/np=%d: %v", layout, topo, np, err)
				}
				if !res.Stats.Converged {
					t.Fatalf("%s/%s/np=%d: not converged", layout, topo, np)
				}
				if rr := residual(A, res.X, b); rr > 1e-7 {
					t.Errorf("%s/%s/np=%d: residual %g", layout, topo, np, rr)
				}
			}
		}
	}
}

// Every method of the facade is hpfexec's prepared path, and its
// answer is the one the facade's direct SPMD body gave before the §2.1
// methods became hpfexec variants: X bits and iterations equal
// directSolve's, the method's recurrence over the executor the layout
// names (broadcast row blocks on the block or balanced distribution, or
// column blocks in the layout's mode). hpfexec may run the halo
// executor instead, which changes the clock but not one bit of X; where
// it does not — the CSC layouts, BiCG, whose A^T only the broadcast
// executor applies, and one processor — the modeled time is the direct
// body's too.
func TestSolveCGIsThePreparedPath(t *testing.T) {
	for _, spec := range []string{"laplace2d:12:12", "powerlawc:500:1", "randspd:200:6:3"} {
		A, err := sparse.GeneratorByName(spec)
		if err != nil {
			t.Fatal(err)
		}
		b := sparse.RandomVector(A.NRows, 42)
		for _, method := range methods {
			for _, layout := range hpfexec.Layouts() {
				for _, np := range []int{1, 3, 4, 8} {
					name := fmt.Sprintf("%s/%s/%s/np=%d", spec, method, layout, np)
					got, err := Solve(A, b, SolveSpec{Method: method, Layout: Layout(layout), NP: np})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					x, iters, run := directSolve(t, A, b, method, layout, np)
					if got.Stats.Iterations != iters || !sameBits(got.X, x) {
						t.Errorf("%s: %d iterations, the direct body %d, or X bits differ", name, got.Stats.Iterations, iters)
					}
					sameClock := strings.HasPrefix(layout, "csc") || method == MethodBiCG || np == 1
					if sameClock && got.Run.ModelTime != run.ModelTime {
						t.Errorf("%s: model time %v, the direct body %v", name, got.Run.ModelTime, run.ModelTime)
					}
				}
			}
		}
	}
}

// directSolve is the facade's retired direct body: one SPMD run of the
// method over the layout's broadcast row-block or column-block
// executor, the balanced distribution cut by
// CG_BALANCED_PARTITIONER_1's weights (each row's stored entries).
func directSolve(t *testing.T, A *CSR, b []float64, method Method, layout string, np int) ([]float64, int, RunStats) {
	t.Helper()
	m, err := NewMachine(Config{NP: np})
	if err != nil {
		t.Fatal(err)
	}
	var d dist.Contiguous = dist.NewBlock(A.NRows, np)
	if layout == "balanced" {
		d = dist.NewIrregular(partition.BalancedContiguous(partition.AtomsFromPtr(A.RowPtr).Weights(), np))
	}
	csc := A.ToCSC()
	var x []float64
	var iters int
	run := m.Run(func(p *Proc) {
		var op spmv.TransposeOperator
		switch layout {
		case "csc-serial":
			op = spmv.NewColBlockCSC(p, csc, d, spmv.ModeSerialized)
		case "csc-merge":
			op = spmv.NewColBlockCSC(p, csc, d, spmv.ModePrivateMerge)
		default:
			op = spmv.NewRowBlockCSR(p, A, d)
		}
		bv, xv := darray.New(p, d), darray.New(p, d)
		bv.SetGlobal(func(g int) float64 { return b[g] })
		var st core.Stats
		var err error
		switch method {
		case MethodCG:
			st, err = core.CG(p, op, bv, xv, core.Options{})
		case MethodPCG:
			var M *core.Jacobi
			if M, err = core.NewJacobi(p, A, d); err == nil {
				st, err = core.PCG(p, op, M, bv, xv, core.Options{})
			}
		case MethodBiCG:
			st, err = core.BiCG(p, op, bv, xv, core.Options{})
		case MethodCGS:
			st, err = core.CGS(p, op, bv, xv, core.Options{})
		case MethodBiCGSTAB:
			st, err = core.BiCGSTAB(p, op, bv, xv, core.Options{})
		}
		if err != nil {
			t.Errorf("%s %s np=%d: %v", method, layout, np, err)
		}
		if full := xv.Gather(); p.Rank() == 0 {
			x, iters = full, st.Iterations
		}
	})
	return x, iters, run
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(u, v float64) bool { return math.Float64bits(u) == math.Float64bits(v) })
}
