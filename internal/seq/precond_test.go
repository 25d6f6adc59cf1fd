package seq

import (
	"errors"
	"math"
	"testing"

	"hpfcg/internal/sparse"
)

func TestIdentity(t *testing.T) {
	r := []float64{1, -2, 3}
	z := make([]float64, 3)
	Identity{}.Apply(r, z)
	for i := range r {
		if z[i] != r[i] {
			t.Fatalf("identity changed %d", i)
		}
	}
}

func TestJacobiApply(t *testing.T) {
	A := sparse.DiagWithEigenvalues([]float64{2, 4, 8})
	M, err := NewJacobi(A)
	if err != nil {
		t.Fatal(err)
	}
	z := make([]float64, 3)
	M.Apply([]float64{2, 4, 8}, z)
	for i, v := range z {
		if v != 1 {
			t.Errorf("z[%d] = %g, want 1", i, v)
		}
	}
	if len(M.invDiag) != 3 || M.invDiag[0] != 0.5 {
		t.Error("invDiag wrong")
	}
}

func TestJacobiZeroDiagonal(t *testing.T) {
	coo := sparse.NewCOO(2, 2)
	coo.Add(0, 1, 1)
	coo.Add(1, 0, 1)
	if _, err := NewJacobi(coo.ToCSR()); err == nil {
		t.Fatal("expected error for zero diagonal")
	}
}

// A preconditioner must be an exact solve for M = A in the SSOR/IC0
// limit cases we can verify: applying then multiplying recovers r.
func TestSSORSanity(t *testing.T) {
	A := sparse.Laplace1D(12)
	M, err := NewSSOR(A, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	// SSOR application must be a symmetric positive operation: check
	// z·r > 0 for random r (needed for PCG validity).
	for seed := int64(0); seed < 5; seed++ {
		r := sparse.RandomVector(12, seed)
		z := make([]float64, 12)
		M.Apply(r, z)
		dot := 0.0
		for i := range r {
			dot += r[i] * z[i]
		}
		if dot <= 0 {
			t.Fatalf("seed %d: z·r = %g, SSOR not positive definite", seed, dot)
		}
	}
}

func TestSSORValidation(t *testing.T) {
	A := sparse.Laplace1D(5)
	for _, omega := range []float64{0, 2, -1} {
		if _, err := NewSSOR(A, omega); err == nil {
			t.Errorf("omega %g accepted", omega)
		}
	}
	coo := sparse.NewCOO(2, 2)
	coo.Add(0, 1, 1)
	coo.Add(1, 0, 1)
	if _, err := NewSSOR(coo.ToCSR(), 1); err == nil {
		t.Error("zero diagonal accepted")
	}
}

func TestIC0ExactOnDiagonal(t *testing.T) {
	// For a diagonal matrix IC(0) is exact: M = A.
	A := sparse.DiagWithEigenvalues([]float64{4, 9, 16})
	M, err := NewIC0(A)
	if err != nil {
		t.Fatal(err)
	}
	z := make([]float64, 3)
	M.Apply([]float64{4, 9, 16}, z)
	for i, v := range z {
		if math.Abs(v-1) > 1e-14 {
			t.Errorf("z[%d] = %g, want 1", i, v)
		}
	}
}

func TestIC0ExactOnTridiagonal(t *testing.T) {
	// For a tridiagonal SPD matrix the Cholesky factor is bidiagonal, so
	// IC(0) (which keeps the full lower bandwidth) is the exact factor:
	// applying M⁻¹ must solve the system exactly.
	A := sparse.Laplace1D(15)
	M, err := NewIC0(A)
	if err != nil {
		t.Fatal(err)
	}
	want := sparse.RandomVector(15, 8)
	b := make([]float64, 15)
	A.MulVec(want, b)
	z := make([]float64, 15)
	M.Apply(b, z)
	for i := range want {
		if math.Abs(z[i]-want[i]) > 1e-9 {
			t.Fatalf("IC0 not exact on tridiagonal at %d: %g vs %g", i, z[i], want[i])
		}
	}
}

func TestIC0RejectsIndefinite(t *testing.T) {
	A := sparse.DiagWithEigenvalues([]float64{1, -1})
	if _, err := NewIC0(A); !errors.Is(err, ErrNotSPD) {
		t.Fatalf("expected ErrNotSPD, got %v", err)
	}
	coo := sparse.NewCOO(2, 2)
	coo.Add(0, 1, 1)
	coo.Add(1, 0, 1)
	if _, err := NewIC0(coo.ToCSR()); err == nil {
		t.Error("missing diagonal accepted")
	}
	rect := sparse.NewCOO(2, 3)
	if _, err := NewIC0(rect.ToCSR()); err == nil {
		t.Error("rectangular accepted")
	}
}

func TestByName(t *testing.T) {
	A := sparse.Laplace1D(6)
	for _, name := range []string{"", "none", "jacobi", "ssor", "ic0"} {
		M, err := ByName(name, A)
		if err != nil {
			t.Fatalf("%q: %v", name, err)
		}
		if M == nil {
			t.Fatalf("%q: nil preconditioner", name)
		}
	}
	if _, err := ByName("ilu-magic", A); err == nil {
		t.Error("unknown name accepted")
	}
}
