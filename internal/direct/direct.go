// Package direct implements the dense direct solvers the paper
// positions iterative methods against (§1): Gaussian elimination (LU
// with partial pivoting) and Cholesky factorisation. They serve as
// numerical oracles in tests and as the baseline in experiment E12
// (storage and arithmetic work of direct vs CG on sparse systems).
package direct

import (
	"errors"
	"fmt"
	"math"

	"hpfcg/internal/sparse"
)

// ErrSingular is returned when elimination meets a zero (or, for
// Cholesky, non-positive) pivot.
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

// Cholesky holds the lower-triangular factor of an SPD matrix: A = L·Lᵀ.
// L is stored twice, packed by rows, so that both triangular sweeps of a
// solve read contiguous memory: l holds row i of L (columns 0..i) at
// offset i(i+1)/2, and u holds row i of Lᵀ (columns i..n-1) at offset
// i·n − i(i−1)/2. Together they take n(n+1) words.
type Cholesky struct {
	n    int
	l, u []float64
}

// lRow returns row i of L, columns 0..i.
func (c *Cholesky) lRow(i int) []float64 { return c.l[i*(i+1)/2:][:i+1] }

// uRow returns row i of Lᵀ, columns i..n-1.
func (c *Cholesky) uRow(i int) []float64 { return c.u[i*c.n-i*(i-1)/2:][:c.n-i] }

// FactorCholesky computes the Cholesky factorisation of dense SPD A,
// row by row: entry (i, j) of L subtracts row i's and row j's first j
// entries in ascending order, so every entry, and the first non-positive
// pivot, is the same whichever order the rows and columns are visited.
func FactorCholesky(A *sparse.Dense) (*Cholesky, error) {
	n := A.NRows
	if n != A.NCols {
		return nil, fmt.Errorf("direct: matrix must be square, got %dx%d", n, A.NCols)
	}
	c := &Cholesky{n: n, l: make([]float64, n*(n+1)/2), u: make([]float64, n*(n+1)/2)}
	for i := 0; i < n; i++ {
		a, li := A.Row(i), c.lRow(i)
		for j := 0; j < i; j++ {
			lj, lij := c.lRow(j), li[:j]
			s := a[j]
			for k, v := range lj[:j] {
				s -= lij[k] * v
			}
			li[j] = s / lj[j]
		}
		sum := a[i]
		for _, v := range li[:i] {
			sum -= v * v
		}
		if sum <= 0 {
			return nil, fmt.Errorf("%w: non-positive pivot %g at column %d", ErrSingular, sum, i)
		}
		li[i] = math.Sqrt(sum)
	}
	for i := 0; i < n; i++ {
		ui := c.uRow(i)
		for k := range ui {
			ui[k] = c.lRow(i + k)[i]
		}
	}
	return c, nil
}

// Solve returns x with A·x = b via the two triangular solves.
func (c *Cholesky) Solve(b []float64) ([]float64, error) {
	x := make([]float64, len(b))
	if err := c.SolveInto(x, b, make([]float64, len(b))); err != nil {
		return nil, err
	}
	return x, nil
}

// N returns the factored dimension.
func (c *Cholesky) N() int { return c.n }

// SolveInto solves A·x = b into dst, using scratch for the forward
// substitution intermediate; all three slices must have length n and b
// may alias neither output. Unlike Solve it allocates nothing, which is
// what lets the multigrid coarsest-grid direct solve run inside a
// zero-allocation V-cycle.
func (c *Cholesky) SolveInto(dst, b, scratch []float64) error {
	if len(b) != c.n || len(dst) != c.n || len(scratch) != c.n {
		return fmt.Errorf("direct: SolveInto lengths %d/%d/%d != %d", len(dst), len(b), len(scratch), c.n)
	}
	y := scratch
	for i := 0; i < c.n; i++ {
		row, yj := c.lRow(i), y[:i]
		sum := b[i]
		for j, v := range row[:i] {
			sum -= v * yj[j]
		}
		y[i] = sum / row[i]
	}
	x := dst
	for i := c.n - 1; i >= 0; i-- {
		row := c.uRow(i)
		tail := row[1:]
		xj := x[i+1:][:len(tail)]
		sum := y[i]
		for j, v := range tail {
			sum -= v * xj[j]
		}
		x[i] = sum / row[0]
	}
	return nil
}
