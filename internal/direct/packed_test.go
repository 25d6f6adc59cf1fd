package direct

import (
	"fmt"
	"math"
	"testing"

	"hpfcg/internal/mfree"
	"hpfcg/internal/sparse"
)

// refCholesky is the dense, At-based factor and solve the packed
// Cholesky replaced, kept verbatim as the bit reference: column by
// column, the backward sweep striding down a column of L.
type refCholesky struct {
	n int
	l *sparse.Dense
}

func refFactor(A *sparse.Dense) (*refCholesky, error) {
	n := A.NRows
	l := sparse.NewDense(n, n)
	for j := 0; j < n; j++ {
		sum := A.At(j, j)
		for k := 0; k < j; k++ {
			sum -= l.At(j, k) * l.At(j, k)
		}
		if sum <= 0 {
			return nil, fmt.Errorf("%w: non-positive pivot %g at column %d", ErrSingular, sum, j)
		}
		ljj := math.Sqrt(sum)
		l.Set(j, j, ljj)
		for i := j + 1; i < n; i++ {
			s := A.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			l.Set(i, j, s/ljj)
		}
	}
	return &refCholesky{n: n, l: l}, nil
}

func (c *refCholesky) solveInto(dst, b, scratch []float64) error {
	if len(b) != c.n || len(dst) != c.n || len(scratch) != c.n {
		return fmt.Errorf("direct: SolveInto lengths %d/%d/%d != %d", len(dst), len(b), len(scratch), c.n)
	}
	y := scratch
	for i := 0; i < c.n; i++ {
		sum := b[i]
		for j := 0; j < i; j++ {
			sum -= c.l.At(i, j) * y[j]
		}
		y[i] = sum / c.l.At(i, i)
	}
	x := dst
	for i := c.n - 1; i >= 0; i-- {
		sum := y[i]
		for j := i + 1; j < c.n; j++ {
			sum -= c.l.At(j, i) * x[j]
		}
		x[i] = sum / c.l.At(i, i)
	}
	return nil
}

// stencil27 is the dense 27-point operator multigrid's direct bottom
// factors on an X × Y × Z coarsest grid.
func stencil27(tb testing.TB, X, Y, Z int) *sparse.Dense {
	A, err := mfree.Spec{Stencil: "27pt", Nx: X, Ny: Y, Nz: Z}.Assemble()
	if err != nil {
		tb.Fatal(err)
	}
	return A.ToDense()
}

func shifted(A *sparse.Dense, by float64) *sparse.Dense {
	B := A.Clone()
	for i := 0; i < B.NRows; i++ {
		B.Set(i, i, B.At(i, i)+by)
	}
	return B
}

func fromRows(rows [][]float64) *sparse.Dense {
	A := sparse.NewDense(len(rows), len(rows))
	for i, r := range rows {
		copy(A.Row(i), r)
	}
	return A
}

// TestCholeskyPackedBitExact: the packed, row-ordered factor and its two
// contiguous sweeps hold every entry of L and every solution bit for
// bit to the dense column-ordered code they replaced, fail a matrix
// that is not positive definite with the same error at the same column,
// and reject the same mis-sized SolveInto arguments.
func TestCholeskyPackedBitExact(t *testing.T) {
	cases := []struct {
		name string
		A    *sparse.Dense
	}{
		{"27pt 2x2x8", stencil27(t, 2, 2, 8)},
		{"27pt 4x4x4", stencil27(t, 4, 4, 4)},
		{"27pt 5x5x20", stencil27(t, 5, 5, 20)},
		{"laplace2d 9x7", sparse.Laplace2D(9, 7).ToDense()},
		{"randspd 40", sparse.RandomSPD(40, 5, 3).ToDense()},
		{"n=1", fromRows([][]float64{{2.5}})},
		{"n=2", fromRows([][]float64{{3, -1.25}, {-1.25, 0.75}})},
		{"indefinite 3x3", fromRows([][]float64{{4, 2, 2}, {2, 2, 3}, {2, 3, 1}})},
		{"indefinite laplace2d", shifted(sparse.Laplace2D(6, 6).ToDense(), -2)},
		{"zero pivot n=1", fromRows([][]float64{{0}})},
	}
	for _, c := range cases {
		n := c.A.NRows
		want, wantErr := refFactor(c.A)
		got, err := FactorCholesky(c.A)
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Errorf("%s: factor error %v, reference %v", c.name, err, wantErr)
			continue
		}
		if err != nil {
			t.Logf("%s: %v", c.name, err)
			continue
		}
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				w := math.Float64bits(want.l.At(i, j))
				if math.Float64bits(got.lRow(i)[j]) != w || math.Float64bits(got.uRow(j)[i-j]) != w {
					t.Fatalf("%s: L(%d,%d) = %v / Lᵀ %v, reference %v", c.name, i, j, got.lRow(i)[j], got.uRow(j)[i-j], want.l.At(i, j))
				}
			}
		}
		for seed := int64(1); seed <= 3; seed++ {
			b := sparse.RandomVector(n, seed)
			x, y := make([]float64, n), make([]float64, n)
			xr, yr := make([]float64, n), make([]float64, n)
			if err := got.SolveInto(x, b, y); err != nil {
				t.Fatal(err)
			}
			if err := want.solveInto(xr, b, yr); err != nil {
				t.Fatal(err)
			}
			xs, err := got.Solve(b)
			if err != nil {
				t.Fatal(err)
			}
			for i := range x {
				if math.Float64bits(x[i]) != math.Float64bits(xr[i]) || math.Float64bits(xs[i]) != math.Float64bits(xr[i]) {
					t.Fatalf("%s seed %d: x[%d] = %v (Solve %v), reference %v", c.name, seed, i, x[i], xs[i], xr[i])
				}
			}
		}
		ok, short := make([]float64, n), make([]float64, n+1)
		for _, args := range [][3][]float64{{short, ok, ok}, {ok, short, ok}, {ok, ok, short}} {
			err := got.SolveInto(args[0], args[1], args[2])
			wantErr := want.solveInto(args[0], args[1], args[2])
			if err == nil || err.Error() != wantErr.Error() {
				t.Errorf("%s: SolveInto(%d, %d, %d) = %v, reference %v", c.name, len(args[0]), len(args[1]), len(args[2]), err, wantErr)
			}
		}
	}
}

// BenchmarkCholeskyFactor factors solve_hpcg's coarsest grid: the dense
// 27-point operator on 5 × 5 × 20 points, n = 500.
func BenchmarkCholeskyFactor(b *testing.B) {
	A := stencil27(b, 5, 5, 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FactorCholesky(A); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCholeskySolve is one bottom solve of a V-cycle on that grid:
// the forward and backward sweeps over the n = 500 factor.
func BenchmarkCholeskySolve(b *testing.B) {
	c, err := FactorCholesky(stencil27(b, 5, 5, 20))
	if err != nil {
		b.Fatal(err)
	}
	rhs := sparse.RandomVector(c.N(), 1)
	x, y := make([]float64, c.N()), make([]float64, c.N())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.SolveInto(x, rhs, y); err != nil {
			b.Fatal(err)
		}
	}
}
