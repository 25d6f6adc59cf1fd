package seq

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"hpfcg/internal/direct"
	"hpfcg/internal/sparse"
)

// solveFn is the common solver signature for table-driven tests.
type solveFn func(A *sparse.CSR, b, x []float64, opt Options) (Stats, error)

func allSolvers() map[string]solveFn {
	return map[string]solveFn{
		"cg": CG,
		"gmres": func(A *sparse.CSR, b, x []float64, opt Options) (Stats, error) {
			if opt.MaxIter == 0 {
				// Restarted GMRES converges slowly on Laplacians; allow
				// more Arnoldi steps than the 2n solver default.
				opt.MaxIter = 40 * len(b)
			}
			return GMRES(A, b, x, 30, opt)
		},
		"pcg-jacobi": func(A *sparse.CSR, b, x []float64, opt Options) (Stats, error) {
			M, err := NewJacobi(A)
			if err != nil {
				return Stats{}, err
			}
			return PCG(A, M, b, x, opt)
		},
	}
}

func relResidual(A *sparse.CSR, x, b []float64) float64 {
	n := A.NRows
	r := make([]float64, n)
	A.MulVec(x, r)
	rn, bn := 0.0, 0.0
	for i := range r {
		rn += (r[i] - b[i]) * (r[i] - b[i])
		bn += b[i] * b[i]
	}
	return math.Sqrt(rn / bn)
}

func TestAllSolversOnSPDSystems(t *testing.T) {
	mats := map[string]*sparse.CSR{
		"laplace1d": sparse.Laplace1D(40),
		"laplace2d": sparse.Laplace2D(6, 7),
		"randspd":   sparse.RandomSPD(50, 5, 11),
	}
	for mname, A := range mats {
		b := sparse.RandomVector(A.NRows, 5)
		for sname, solve := range allSolvers() {
			x := make([]float64, A.NRows)
			st, err := solve(A, b, x, Options{Tol: 1e-9})
			if err != nil {
				t.Fatalf("%s on %s: %v", sname, mname, err)
			}
			if !st.Converged {
				t.Fatalf("%s on %s did not converge: %v", sname, mname, st)
			}
			if rr := relResidual(A, x, b); rr > 1e-7 {
				t.Errorf("%s on %s: true residual %g", sname, mname, rr)
			}
		}
	}
}

func TestSolversAgainstDirect(t *testing.T) {
	A := sparse.RandomSPD(35, 4, 3)
	b := sparse.RandomVector(35, 9)
	want, err := direct.SolveCSR(A, b)
	if err != nil {
		t.Fatal(err)
	}
	for sname, solve := range allSolvers() {
		x := make([]float64, 35)
		if _, err := solve(A, b, x, Options{Tol: 1e-12}); err != nil {
			t.Fatalf("%s: %v", sname, err)
		}
		for i := range x {
			if math.Abs(x[i]-want[i]) > 1e-6 {
				t.Fatalf("%s deviates from direct solve at %d: %g vs %g", sname, i, x[i], want[i])
			}
		}
	}
}

func TestNonsymmetricSolvers(t *testing.T) {
	// CG is not expected to work here; GMRES is. core's
	// TestDistributedBiCGOnNonsymmetric runs BiCG, CGS and BiCGSTAB.
	n := 40
	coo := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 4)
		if i+1 < n {
			coo.Add(i, i+1, -1.5) // asymmetric off-diagonals
			coo.Add(i+1, i, -0.5)
		}
	}
	A := coo.ToCSR()
	if A.IsSymmetric(1e-15) {
		t.Fatal("test matrix should be nonsymmetric")
	}
	b := sparse.RandomVector(n, 1)
	x := make([]float64, n)
	st, err := allSolvers()["gmres"](A, b, x, Options{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatalf("gmres did not converge: %v", st)
	}
	if rr := relResidual(A, x, b); rr > 1e-7 {
		t.Errorf("gmres: residual %g", rr)
	}
}

// §2's per-iteration structure of the reference CG: one product with
// A per iteration. E5's TestE5OperationCounts holds the distributed
// methods to the paper's counts.
func TestComputationalStructure(t *testing.T) {
	A := sparse.Laplace2D(10, 10)
	b := sparse.Ones(A.NRows)
	x := make([]float64, A.NRows)
	st, err := CG(A, b, x, Options{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	// Subtract the setup matvec (initial residual).
	if got := float64(st.MatVecs-1) / float64(st.Iterations); got != 1 {
		t.Errorf("CG matvecs/iter = %g, want 1", got)
	}
}

// The §2 convergence claim: CG converges in at most n_e iterations,
// where n_e is the number of distinct eigenvalues.
func TestCGDistinctEigenvalueBound(t *testing.T) {
	cases := []struct {
		eigs     []float64
		distinct int
	}{
		{[]float64{3, 3, 3, 3, 3, 3, 3, 3}, 1},
		{[]float64{1, 1, 1, 1, 9, 9, 9, 9}, 2},
		{[]float64{1, 2, 3, 1, 2, 3, 1, 2}, 3},
		{[]float64{1, 5, 10, 50, 1, 5, 10, 50, 1, 5}, 4},
	}
	for _, c := range cases {
		A := sparse.DiagWithEigenvalues(c.eigs)
		b := sparse.RandomVector(len(c.eigs), 7)
		x := make([]float64, len(c.eigs))
		st, err := CG(A, b, x, Options{Tol: 1e-12})
		if err != nil {
			t.Fatal(err)
		}
		if !st.Converged {
			t.Fatalf("eigs %v: no convergence", c.eigs)
		}
		if st.Iterations > c.distinct {
			t.Errorf("eigs %v: %d iterations > %d distinct eigenvalues",
				c.eigs, st.Iterations, c.distinct)
		}
	}
}

func TestPreconditioningReducesIterations(t *testing.T) {
	// An ill-conditioned diagonal + Laplacian mix.
	A := sparse.Laplace2D(15, 15)
	// Scale rows/cols to worsen conditioning while keeping SPD.
	n := A.NRows
	s := make([]float64, n)
	for i := range s {
		s[i] = 1 + 50*float64(i)/float64(n)
	}
	coo := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		for k := A.RowPtr[i]; k < A.RowPtr[i+1]; k++ {
			coo.Add(i, A.Col[k], A.Val[k]*s[i]*s[A.Col[k]])
		}
	}
	As := coo.ToCSR()
	b := sparse.Ones(n)
	opt := Options{Tol: 1e-10, MaxIter: 5 * n}

	x := make([]float64, n)
	plain, err := CG(As, b, x, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, pname := range []string{"jacobi", "ssor", "ic0"} {
		M, err := ByName(pname, As)
		if err != nil {
			t.Fatalf("%s: %v", pname, err)
		}
		x := make([]float64, n)
		st, err := PCG(As, M, b, x, opt)
		if err != nil {
			t.Fatalf("%s: %v", pname, err)
		}
		if !st.Converged {
			t.Fatalf("%s did not converge", pname)
		}
		if st.Iterations >= plain.Iterations {
			t.Errorf("%s: %d iterations, plain CG %d — preconditioning should help",
				pname, st.Iterations, plain.Iterations)
		}
		if rr := relResidual(As, x, b); rr > 1e-7 {
			t.Errorf("%s: residual %g", pname, rr)
		}
	}
}

func TestPCGIdentityMatchesCG(t *testing.T) {
	A := sparse.Laplace1D(30)
	b := sparse.RandomVector(30, 4)
	x1 := make([]float64, 30)
	x2 := make([]float64, 30)
	st1, err1 := CG(A, b, x1, Options{})
	st2, err2 := PCG(A, Identity{}, b, x2, Options{})
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if st1.Iterations != st2.Iterations {
		t.Errorf("CG %d iters, PCG(identity) %d", st1.Iterations, st2.Iterations)
	}
	for i := range x1 {
		if math.Abs(x1[i]-x2[i]) > 1e-10 {
			t.Fatalf("solutions differ at %d", i)
		}
	}
}

func TestZeroRHS(t *testing.T) {
	A := sparse.Laplace1D(10)
	b := make([]float64, 10)
	for name, solve := range allSolvers() {
		x := make([]float64, 10)
		st, err := solve(A, b, x, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !st.Converged || st.Iterations != 0 {
			t.Errorf("%s on zero rhs: %v", name, st)
		}
	}
}

func TestAlreadyConverged(t *testing.T) {
	A := sparse.Laplace1D(10)
	b := make([]float64, 10)
	want := sparse.RandomVector(10, 3)
	A.MulVec(want, b)
	x := append([]float64(nil), want...)
	st, err := CG(A, b, x, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged || st.Iterations != 0 {
		t.Errorf("exact initial guess: %v", st)
	}
}

func TestMaxIterNoConvergence(t *testing.T) {
	A := sparse.Laplace2D(20, 20)
	b := sparse.Ones(A.NRows)
	x := make([]float64, A.NRows)
	st, err := CG(A, b, x, Options{Tol: 1e-14, MaxIter: 3})
	if err != nil {
		t.Fatal(err)
	}
	if st.Converged {
		t.Error("3 iterations should not converge")
	}
	if st.Iterations != 3 {
		t.Errorf("Iterations = %d, want 3", st.Iterations)
	}
	if st.Residual <= 0 {
		t.Error("unconverged Residual should be positive")
	}
}

func TestBreakdownDetected(t *testing.T) {
	// An indefinite matrix can make p·Ap vanish; engineered 2x2 case:
	// A = [[0,1],[1,0]], b = [1,0], x0 = 0: r = b, p = r, Ap = [0,1],
	// p·Ap = 0.
	coo := sparse.NewCOO(2, 2)
	coo.Add(0, 1, 1)
	coo.Add(1, 0, 1)
	A := coo.ToCSR()
	x := make([]float64, 2)
	_, err := CG(A, []float64{1, 0}, x, Options{})
	if !errors.Is(err, ErrBreakdown) {
		t.Fatalf("expected ErrBreakdown, got %v", err)
	}
}

func TestInputValidationPanics(t *testing.T) {
	A := sparse.Laplace1D(4)
	for _, fn := range []func(){
		func() { CG(A, make([]float64, 3), make([]float64, 4), Options{}) },
		func() { CG(A, make([]float64, 4), make([]float64, 5), Options{}) },
		func() { GMRES(A, make([]float64, 4), make([]float64, 4), 0, Options{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestGMRESRestartLargerThanN(t *testing.T) {
	A := sparse.Laplace1D(5)
	b := sparse.Ones(5)
	x := make([]float64, 5)
	st, err := GMRES(A, b, x, 50, Options{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatalf("GMRES(50) on n=5: %v", st)
	}
}

// Property: CG solves random SPD systems.
func TestCGQuick(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%40) + 2
		A := sparse.RandomSPD(n, 4, seed)
		b := sparse.RandomVector(n, seed+1)
		x := make([]float64, n)
		st, err := CG(A, b, x, Options{Tol: 1e-10})
		if err != nil || !st.Converged {
			return false
		}
		return relResidual(A, x, b) < 1e-7
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
