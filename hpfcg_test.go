package hpfcg

import (
	"math"
	"strings"
	"testing"

	"hpfcg/internal/sparse"
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
	layouts := []Layout{LayoutRowCSR, LayoutRowCSRHalo, LayoutColCSCMerge, LayoutColCSCSerial, LayoutDenseRow, LayoutDenseCol}
	for _, method := range methods {
		for _, layout := range layouts {
			if method == MethodBiCG && (layout == LayoutDenseCol || layout == LayoutRowCSRHalo) {
				continue // no transpose support, tested separately
			}
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
	bal, err := Solve(A, b, SolveSpec{NP: 4, Tol: 1e-8, Balanced: true})
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
		{Method: MethodBiCG, Layout: LayoutDenseCol},
		{Balanced: true, Layout: LayoutColCSCMerge},
		{NP: -2},
		{Topology: "moebius"},
	}
	for i, spec := range cases {
		if spec.NP == 0 {
			spec.NP = 2
		}
		if _, err := Solve(A, b, spec); err == nil {
			t.Errorf("case %d (%+v): expected error", i, spec)
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
	for i, layout := range []Layout{LayoutRowCSR, LayoutColCSCMerge, LayoutColCSCSerial} {
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

func TestSolveGMRES(t *testing.T) {
	// Nonsymmetric: GMRES through the facade.
	n := 30
	coo := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 4)
		if i+1 < n {
			coo.Add(i, i+1, -1.5)
			coo.Add(i+1, i, -0.5)
		}
	}
	A := coo.ToCSR()
	b := sparse.RandomVector(n, 8)
	res, err := Solve(A, b, SolveSpec{Method: MethodGMRES, NP: 3, Tol: 1e-9, Restart: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Converged {
		t.Fatalf("GMRES: %v", res.Stats)
	}
	if rr := residual(A, res.X, b); rr > 1e-7 {
		t.Errorf("residual %g", rr)
	}
}

func TestSolvePreconditioners(t *testing.T) {
	// Large enough that block-IC0's intra-block coupling beats diagonal
	// scaling (on small well-conditioned grids the IC0 drop error can
	// outweigh the gain).
	A := sparse.Laplace2D(24, 24)
	b := sparse.Ones(A.NRows)
	iters := map[string]int{}
	for _, pname := range []string{"jacobi", "block-ic0", "block-ssor"} {
		res, err := Solve(A, b, SolveSpec{Method: MethodPCG, Precond: pname, NP: 4, Tol: 1e-9})
		if err != nil {
			t.Fatalf("%s: %v", pname, err)
		}
		if !res.Stats.Converged {
			t.Fatalf("%s: %v", pname, res.Stats)
		}
		iters[pname] = res.Stats.Iterations
	}
	if iters["block-ic0"] >= iters["jacobi"] {
		t.Errorf("block-ic0 %d >= jacobi %d", iters["block-ic0"], iters["jacobi"])
	}
	if _, err := Solve(A, b, SolveSpec{Method: MethodPCG, Precond: "magic", NP: 2}); err == nil {
		t.Error("unknown preconditioner accepted")
	}
}

// A block that fails to factor on one processor fails the solve on
// all of them, and the error names the failing processor: diag(-1,-1)
// has no IC(0). In the first case it sits on processor 1, so rank 0,
// whose error Solve returns, has no local cause to report.
func TestSolveBlockJacobiErrorNamesProcessor(t *testing.T) {
	for _, tc := range []struct {
		diag []float64
		want string
	}{
		{[]float64{2, 2, -1, -1}, "failed on processor 1"},
		{[]float64{-1, -1, 2, 2}, "failed on processor 0"},
	} {
		coo := sparse.NewCOO(4, 4)
		for i, v := range tc.diag {
			coo.Add(i, i, v)
		}
		_, err := Solve(coo.ToCSR(), sparse.Ones(4), SolveSpec{Method: MethodPCG, Precond: "block-ic0", NP: 2})
		if err == nil {
			t.Fatalf("diag %v: indefinite block accepted", tc.diag)
		}
		if msg := err.Error(); !strings.Contains(msg, tc.want) || strings.Contains(msg, "<nil>") {
			t.Errorf("diag %v: error %q, want it to name %q and no <nil>", tc.diag, msg, tc.want)
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
	layouts := []Layout{LayoutRowCSR, LayoutRowCSRHalo, LayoutColCSCMerge, LayoutColCSCSerial}
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
