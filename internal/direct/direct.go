// Package direct implements the dense direct solver the paper
// positions iterative methods against (§1): Gaussian elimination (LU
// with partial pivoting). It serves as a numerical oracle in tests and
// as the baseline in experiment E12 (storage and arithmetic work of
// direct vs CG on sparse systems).
package direct

import (
	"errors"
	"fmt"
	"math"

	"hpfcg/internal/sparse"
)

// ErrSingular is returned when elimination meets a zero pivot.
var ErrSingular = errors.New("direct: matrix is singular to working precision")

// LU holds a dense LU factorisation with partial pivoting: P·A = L·U.
type LU struct {
	n    int
	lu   *sparse.Dense // L (unit lower, below diag) and U (upper) packed
	perm []int         // row permutation
}

// Factor computes the LU factorisation of dense square A (A is not
// modified).
func Factor(A *sparse.Dense) (*LU, error) {
	n := A.NRows
	if n != A.NCols {
		return nil, fmt.Errorf("direct: matrix must be square, got %dx%d", n, A.NCols)
	}
	lu := A.Clone()
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for k := 0; k < n; k++ {
		// Partial pivot: largest |entry| in column k at or below row k.
		pivRow, pivVal := k, math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if v := math.Abs(lu.At(i, k)); v > pivVal {
				pivRow, pivVal = i, v
			}
		}
		if pivVal == 0 {
			return nil, fmt.Errorf("%w: zero pivot at column %d", ErrSingular, k)
		}
		if pivRow != k {
			rk, rp := lu.Row(k), lu.Row(pivRow)
			for j := 0; j < n; j++ {
				rk[j], rp[j] = rp[j], rk[j]
			}
			perm[k], perm[pivRow] = perm[pivRow], perm[k]
		}
		pk := lu.At(k, k)
		for i := k + 1; i < n; i++ {
			m := lu.At(i, k) / pk
			lu.Set(i, k, m)
			ri, rk := lu.Row(i), lu.Row(k)
			for j := k + 1; j < n; j++ {
				ri[j] -= m * rk[j]
			}
		}
	}
	return &LU{n: n, lu: lu, perm: perm}, nil
}

// Solve returns x with A·x = b.
func (f *LU) Solve(b []float64) ([]float64, error) {
	if len(b) != f.n {
		return nil, fmt.Errorf("direct: rhs length %d != %d", len(b), f.n)
	}
	x := make([]float64, f.n)
	// Apply permutation, forward solve L·y = P·b (unit diagonal).
	for i := 0; i < f.n; i++ {
		sum := b[f.perm[i]]
		row := f.lu.Row(i)
		for j := 0; j < i; j++ {
			sum -= row[j] * x[j]
		}
		x[i] = sum
	}
	// Back solve U·x = y.
	for i := f.n - 1; i >= 0; i-- {
		row := f.lu.Row(i)
		sum := x[i]
		for j := i + 1; j < f.n; j++ {
			sum -= row[j] * x[j]
		}
		x[i] = sum / row[i]
	}
	return x, nil
}

// SolveDense is one-shot Gaussian elimination: factor A and solve for b.
func SolveDense(A *sparse.Dense, b []float64) ([]float64, error) {
	f, err := Factor(A)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}

// SolveCSR densifies a sparse matrix and solves directly — the
// "impractical for very large sparse systems" baseline whose O(n²)
// storage and O(n³) time experiment E12 quantifies.
func SolveCSR(A *sparse.CSR, b []float64) ([]float64, error) {
	return SolveDense(A.ToDense(), b)
}
