package seq

import (
	"errors"
	"fmt"
	"math"

	"hpfcg/internal/sparse"
)

// Preconditioner approximates z = M⁻¹ r for a matrix M ≈ A. The paper
// observes that "a preconditioner for A can be added to any of the
// algorithms described above" while preserving their structure; PCG
// takes one through this interface.
type Preconditioner interface {
	// Apply computes z = M⁻¹ r. r is not modified; z must have the same
	// length.
	Apply(r, z []float64)
	// Name identifies the preconditioner in reports.
	Name() string
}

// Identity is the no-op preconditioner (PCG(Identity) == CG).
type Identity struct{}

// Apply implements Preconditioner.
func (Identity) Apply(r, z []float64) { copy(z, r) }

// Name implements Preconditioner.
func (Identity) Name() string { return "none" }

// Jacobi is diagonal scaling: M = diag(A). It is fully parallel under
// any aligned distribution (a pure element-wise operation), which makes
// it the natural preconditioner for the distributed solvers.
type Jacobi struct {
	invDiag []float64
}

// NewJacobi extracts the diagonal of A. It fails if any diagonal entry
// is zero.
func NewJacobi(A *sparse.CSR) (*Jacobi, error) {
	d := A.Diag()
	inv := make([]float64, len(d))
	for i, v := range d {
		if v == 0 {
			return nil, fmt.Errorf("seq: zero diagonal at %d, Jacobi undefined", i)
		}
		inv[i] = 1 / v
	}
	return &Jacobi{invDiag: inv}, nil
}

// Apply implements Preconditioner.
func (j *Jacobi) Apply(r, z []float64) {
	for i := range r {
		z[i] = r[i] * j.invDiag[i]
	}
}

// Name implements Preconditioner.
func (j *Jacobi) Name() string { return "jacobi" }

// SSOR is the symmetric successive over-relaxation preconditioner
// M = (D/ω + L) · ω/(2−ω) · D⁻¹ · (D/ω + U), applied by a forward and
// a backward triangular sweep.
type SSOR struct {
	a     *sparse.CSR
	diag  []float64
	omega float64
}

// NewSSOR builds the SSOR preconditioner with relaxation factor omega
// in (0, 2); omega = 1 gives symmetric Gauss-Seidel.
func NewSSOR(A *sparse.CSR, omega float64) (*SSOR, error) {
	if omega <= 0 || omega >= 2 {
		return nil, fmt.Errorf("seq: SSOR omega %g outside (0,2)", omega)
	}
	d := A.Diag()
	for i, v := range d {
		if v == 0 {
			return nil, fmt.Errorf("seq: zero diagonal at %d, SSOR undefined", i)
		}
	}
	return &SSOR{a: A, diag: d, omega: omega}, nil
}

// Apply implements Preconditioner:
// z = ω(2−ω) (D+ωU)⁻¹ D (D+ωL)⁻¹ r.
func (s *SSOR) Apply(r, z []float64) {
	n := len(r)
	w := s.omega
	t := make([]float64, n)
	// Forward solve (D + ωL) t = r.
	for i := 0; i < n; i++ {
		sum := r[i]
		cols, vals := s.a.Row(i)
		for k, j := range cols {
			if j < i {
				sum -= w * vals[k] * t[j]
			}
		}
		t[i] = sum / s.diag[i]
	}
	// Scale by D.
	for i := 0; i < n; i++ {
		t[i] *= s.diag[i]
	}
	// Backward solve (D + ωU) z = t.
	for i := n - 1; i >= 0; i-- {
		sum := t[i]
		cols, vals := s.a.Row(i)
		for k, j := range cols {
			if j > i {
				sum -= w * vals[k] * z[j]
			}
		}
		z[i] = sum / s.diag[i]
	}
	f := w * (2 - w)
	for i := range z {
		z[i] *= f
	}
}

// Name implements Preconditioner.
func (s *SSOR) Name() string { return fmt.Sprintf("ssor(%g)", s.omega) }

// ErrNotSPD is returned by NewIC0 when the incomplete factorisation
// hits a non-positive pivot.
var ErrNotSPD = errors.New("seq: matrix is not positive definite (IC(0) pivot failure)")

// IC0 is the zero-fill incomplete Cholesky preconditioner: M = L·Lᵀ
// where L has the sparsity of the lower triangle of A.
type IC0 struct {
	n      int
	rowPtr []int // lower triangle incl. diagonal, CSR
	col    []int
	val    []float64
	diagAt []int // position of the diagonal entry in each row
}

// NewIC0 computes the incomplete Cholesky factor of symmetric
// positive-definite A.
func NewIC0(A *sparse.CSR) (*IC0, error) {
	n := A.NRows
	if n != A.NCols {
		return nil, fmt.Errorf("seq: IC(0) needs a square matrix, got %dx%d", n, A.NCols)
	}
	// Extract the lower triangle (including diagonal).
	rowPtr := make([]int, n+1)
	var col []int
	var val []float64
	diagAt := make([]int, n)
	for i := 0; i < n; i++ {
		rowPtr[i] = len(col)
		cols, vals := A.Row(i)
		hasDiag := false
		for k, j := range cols {
			if j > i {
				break
			}
			if j == i {
				diagAt[i] = len(col)
				hasDiag = true
			}
			col = append(col, j)
			val = append(val, vals[k])
		}
		if !hasDiag {
			return nil, fmt.Errorf("seq: IC(0) missing diagonal at row %d", i)
		}
	}
	rowPtr[n] = len(col)

	// Row-oriented IC(0): for each row i and each stored k < i,
	// L[i,k] = (A[i,k] - Σ_{j<k} L[i,j]·L[k,j]) / L[k,k],
	// then L[i,i] = sqrt(A[i,i] - Σ_{j<i} L[i,j]²).
	for i := 0; i < n; i++ {
		for kk := rowPtr[i]; kk < rowPtr[i+1]; kk++ {
			k := col[kk]
			if k == i {
				sum := val[kk]
				for jj := rowPtr[i]; jj < kk; jj++ {
					sum -= val[jj] * val[jj]
				}
				if sum <= 0 {
					return nil, fmt.Errorf("%w: pivot %g at row %d", ErrNotSPD, sum, i)
				}
				val[kk] = math.Sqrt(sum)
				continue
			}
			sum := val[kk]
			// Sparse dot of rows i and k over columns < k.
			a, b := rowPtr[i], rowPtr[k]
			for a < kk && b < diagAt[k] {
				switch {
				case col[a] == col[b]:
					sum -= val[a] * val[b]
					a++
					b++
				case col[a] < col[b]:
					a++
				default:
					b++
				}
			}
			val[kk] = sum / val[diagAt[k]]
		}
	}
	return &IC0{n: n, rowPtr: rowPtr, col: col, val: val, diagAt: diagAt}, nil
}

// Apply implements Preconditioner: solve L·y = r then Lᵀ·z = y.
func (ic *IC0) Apply(r, z []float64) {
	n := ic.n
	y := make([]float64, n)
	// Forward: L y = r (L stored by rows).
	for i := 0; i < n; i++ {
		sum := r[i]
		for k := ic.rowPtr[i]; k < ic.diagAt[i]; k++ {
			sum -= ic.val[k] * y[ic.col[k]]
		}
		y[i] = sum / ic.val[ic.diagAt[i]]
	}
	// Backward: Lᵀ z = y, processed by columns of Lᵀ = rows of L.
	copy(z, y)
	for i := n - 1; i >= 0; i-- {
		z[i] /= ic.val[ic.diagAt[i]]
		zi := z[i]
		for k := ic.rowPtr[i]; k < ic.diagAt[i]; k++ {
			z[ic.col[k]] -= ic.val[k] * zi
		}
	}
}

// Name implements Preconditioner.
func (ic *IC0) Name() string { return "ic0" }

// ByName constructs a preconditioner from its CLI name: "none",
// "jacobi", "ssor" (omega 1.2) or "ic0".
func ByName(name string, A *sparse.CSR) (Preconditioner, error) {
	switch name {
	case "", "none":
		return Identity{}, nil
	case "jacobi":
		return NewJacobi(A)
	case "ssor":
		return NewSSOR(A, 1.2)
	case "ic0":
		return NewIC0(A)
	}
	return nil, fmt.Errorf("seq: unknown preconditioner %q", name)
}
