package direct

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"hpfcg/internal/sparse"
)

func residual(A *sparse.Dense, x, b []float64) float64 {
	max := 0.0
	for i := 0; i < A.NRows; i++ {
		r := 0.0
		for j, a := range A.Row(i) {
			r += a * x[j]
		}
		if d := math.Abs(r - b[i]); d > max {
			max = d
		}
	}
	return max
}

func TestLUKnownSystem(t *testing.T) {
	// 2x + y = 5; x + 3y = 10 -> x = 1, y = 3.
	A := sparse.NewDense(2, 2)
	A.Set(0, 0, 2)
	A.Set(0, 1, 1)
	A.Set(1, 0, 1)
	A.Set(1, 1, 3)
	x, err := SolveDense(A, []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Fatalf("x = %v, want [1 3]", x)
	}
}

func TestLURequiresPivoting(t *testing.T) {
	// Zero in the (0,0) position forces a row swap.
	A := sparse.NewDense(2, 2)
	A.Set(0, 1, 1)
	A.Set(1, 0, 1)
	x, err := SolveDense(A, []float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-3) > 1e-12 || math.Abs(x[1]-2) > 1e-12 {
		t.Fatalf("x = %v, want [3 2]", x)
	}
}

func TestLUSingular(t *testing.T) {
	A := sparse.NewDense(2, 2)
	A.Set(0, 0, 1)
	A.Set(0, 1, 2)
	A.Set(1, 0, 2)
	A.Set(1, 1, 4)
	if _, err := SolveDense(A, []float64{1, 2}); !errors.Is(err, ErrSingular) {
		t.Fatalf("expected ErrSingular, got %v", err)
	}
	rect := sparse.NewDense(2, 3)
	if _, err := Factor(rect); err == nil {
		t.Fatal("expected error for rectangular matrix")
	}
}

func TestLUSolveValidation(t *testing.T) {
	A := sparse.NewDense(2, 2)
	A.Set(0, 0, 1)
	A.Set(1, 1, 1)
	f, err := Factor(A)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Solve([]float64{1}); err == nil {
		t.Fatal("expected length error")
	}
}

func TestSolveCSR(t *testing.T) {
	A := sparse.Laplace1D(20)
	b := sparse.Ones(20)
	x, err := SolveCSR(A, b)
	if err != nil {
		t.Fatal(err)
	}
	if r := residual(A.ToDense(), x, b); r > 1e-9 {
		t.Fatalf("residual %g", r)
	}
}

func TestFactorReuse(t *testing.T) {
	A := sparse.RandomSPD(15, 3, 4).ToDense()
	f, err := Factor(A)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 3; seed++ {
		b := sparse.RandomVector(15, seed)
		x, err := f.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		if r := residual(A, x, b); r > 1e-8 {
			t.Fatalf("seed %d residual %g", seed, r)
		}
	}
}

// Property: LU solves random diagonally-dominant systems to small
// residual.
func TestLUQuick(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%20) + 2
		A := sparse.RandomSPD(n, 4, seed).ToDense()
		b := sparse.RandomVector(n, seed+1)
		x, err := SolveDense(A, b)
		if err != nil {
			return false
		}
		return residual(A, x, b) < 1e-7
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
