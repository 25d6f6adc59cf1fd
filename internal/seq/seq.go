// Package seq provides sequential reference implementations of the
// conjugate gradient method (§2 of the paper), its preconditioned form
// and restarted GMRES (§2.1's "longer recurrences, greater storage"
// alternative, which has no distributed form). BiCG, CGS and BiCGSTAB
// live once, in package core. They serve three roles: numerical
// oracles for the distributed solvers, single-processor baselines for
// speedup measurements, and GMRES's row of the per-iteration operation
// counts experiment E5 tabulates.
//
// Every solver records its computational structure in Stats — matrix
// products, inner products and SAXPY-class updates — matching the
// paper's accounting ("the work per iteration is modest, amounting to a
// single matrix-vector multiplication ..., two inner products ..., and
// several SAXPY operations").
package seq

import (
	"errors"
	"fmt"
	"math"

	"hpfcg/internal/sparse"
)

// ErrBreakdown is returned when an algorithmic denominator vanishes
// (e.g. p·Ap = 0 or rho = 0 in CG) before convergence.
var ErrBreakdown = errors.New("seq: iterative method breakdown")

// Options controls iteration limits and tolerance.
type Options struct {
	// Tol is the convergence threshold on the relative residual
	// ||r|| / ||b||. Zero means 1e-10.
	Tol float64
	// MaxIter limits the iteration count. Zero means 2*n.
	MaxIter int
	// EstimateSpectrum, when true, makes CG record its alpha/beta
	// coefficients and report Ritz-value estimates of A's extremal
	// eigenvalues in Stats.Spectrum (the CG-Lanczos connection).
	EstimateSpectrum bool
}

func (o Options) withDefaults(n int) Options {
	if o.Tol == 0 {
		o.Tol = 1e-10
	}
	if o.MaxIter == 0 {
		o.MaxIter = 2 * n
	}
	return o
}

// Stats reports the outcome and computational structure of a solve.
type Stats struct {
	Iterations  int
	Converged   bool
	Residual    float64 // final relative residual
	MatVecs     int     // products with A
	DotProducts int
	AXPYs       int // SAXPY-class vector updates
	// Spectrum holds Ritz-value eigenvalue estimates when
	// Options.EstimateSpectrum was set (CG only).
	Spectrum *SpectrumEstimate
}

// String summarises the stats for reports.
func (s Stats) String() string {
	return fmt.Sprintf("iters=%d converged=%v relres=%.3e matvec=%d dot=%d axpy=%d",
		s.Iterations, s.Converged, s.Residual, s.MatVecs, s.DotProducts, s.AXPYs)
}

// counters bundles the vector primitives with operation counting.
type counters struct{ s *Stats }

func (c counters) dot(a, b []float64) float64 {
	c.s.DotProducts++
	sum := 0.0
	for i := range a {
		sum += a[i] * b[i]
	}
	return sum
}

func (c counters) axpy(y []float64, alpha float64, x []float64) {
	c.s.AXPYs++
	for i := range y {
		y[i] += alpha * x[i]
	}
}

// aypx computes y = beta*y + x (the paper's saypx).
func (c counters) aypx(y []float64, beta float64, x []float64) {
	c.s.AXPYs++
	for i := range y {
		y[i] = beta*y[i] + x[i]
	}
}

func (c counters) norm(a []float64) float64 { return math.Sqrt(c.dot(a, a)) }

func (c counters) matvec(A *sparse.CSR, x, y []float64) {
	c.s.MatVecs++
	A.MulVec(x, y)
}

func checkSystem(A *sparse.CSR, b, x []float64) {
	if A.NRows != A.NCols {
		panic(fmt.Sprintf("seq: matrix must be square, got %dx%d", A.NRows, A.NCols))
	}
	if len(b) != A.NRows || len(x) != A.NRows {
		panic(fmt.Sprintf("seq: dimension mismatch: A %d, b %d, x %d", A.NRows, len(b), len(x)))
	}
}

// residual0 computes r = b - A*x into r and returns (||r||, ||b||).
func residual0(c counters, A *sparse.CSR, b, x, r []float64) (rn, bn float64) {
	c.matvec(A, x, r)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	c.s.AXPYs++
	return c.norm(r), c.norm(b)
}

// CG solves A*x = b for symmetric positive-definite A by the classic
// non-preconditioned conjugate gradient method (§2 of the paper;
// per-iteration structure: 1 matvec, 2 inner products, 3 SAXPYs). x
// holds the initial guess on entry and the solution on return.
func CG(A *sparse.CSR, b, x []float64, opt Options) (Stats, error) {
	checkSystem(A, b, x)
	n := A.NRows
	opt = opt.withDefaults(n)
	var st Stats
	c := counters{&st}

	r := make([]float64, n)
	rn, bn := residual0(c, A, b, x, r)
	if bn == 0 {
		bn = 1
	}
	if rn/bn <= opt.Tol {
		st.Converged = true
		st.Residual = rn / bn
		return st, nil
	}
	p := make([]float64, n)
	copy(p, r)
	q := make([]float64, n)
	rho := c.dot(r, r)
	var alphas, betas []float64

	finishSpectrum := func() {
		if opt.EstimateSpectrum {
			st.Spectrum = estimateSpectrum(alphas, betas)
		}
	}
	for k := 1; k <= opt.MaxIter; k++ {
		st.Iterations = k
		c.matvec(A, p, q)
		pq := c.dot(p, q)
		if pq == 0 {
			finishSpectrum()
			return st, fmt.Errorf("%w: p·Ap = 0 at iteration %d", ErrBreakdown, k)
		}
		alpha := rho / pq
		c.axpy(x, alpha, p)  // x = x + alpha p
		c.axpy(r, -alpha, q) // r = r - alpha q
		rn = c.norm(r)
		rel := rn / bn
		if opt.EstimateSpectrum {
			alphas = append(alphas, alpha)
		}
		if rel <= opt.Tol {
			st.Converged = true
			st.Residual = rel
			finishSpectrum()
			return st, nil
		}
		rho0 := rho
		rho = c.dot(r, r)
		if rho0 == 0 {
			finishSpectrum()
			return st, fmt.Errorf("%w: rho = 0 at iteration %d", ErrBreakdown, k)
		}
		beta := rho / rho0
		if opt.EstimateSpectrum {
			betas = append(betas, beta)
		}
		c.aypx(p, beta, r) // p = beta p + r (saypx)
	}
	st.Residual = rn / bn
	finishSpectrum()
	return st, nil
}

// PCG is the preconditioned conjugate gradient method: identical
// structure to CG plus one preconditioner solve z = M⁻¹r per
// iteration. The paper notes preconditioning "will increase the speed
// of convergence" while keeping the computational structure.
func PCG(A *sparse.CSR, M Preconditioner, b, x []float64, opt Options) (Stats, error) {
	checkSystem(A, b, x)
	n := A.NRows
	opt = opt.withDefaults(n)
	var st Stats
	c := counters{&st}

	r := make([]float64, n)
	rn, bn := residual0(c, A, b, x, r)
	if bn == 0 {
		bn = 1
	}
	if rn/bn <= opt.Tol {
		st.Converged = true
		st.Residual = rn / bn
		return st, nil
	}
	z := make([]float64, n)
	M.Apply(r, z)
	p := make([]float64, n)
	copy(p, z)
	q := make([]float64, n)
	rho := c.dot(r, z)

	for k := 1; k <= opt.MaxIter; k++ {
		st.Iterations = k
		c.matvec(A, p, q)
		pq := c.dot(p, q)
		if pq == 0 {
			return st, fmt.Errorf("%w: p·Ap = 0 at iteration %d", ErrBreakdown, k)
		}
		alpha := rho / pq
		c.axpy(x, alpha, p)
		c.axpy(r, -alpha, q)
		rn = c.norm(r)
		rel := rn / bn
		if rel <= opt.Tol {
			st.Converged = true
			st.Residual = rel
			return st, nil
		}
		M.Apply(r, z)
		rho0 := rho
		rho = c.dot(r, z)
		if rho0 == 0 {
			return st, fmt.Errorf("%w: rho = 0 at iteration %d", ErrBreakdown, k)
		}
		beta := rho / rho0
		c.aypx(p, beta, z)
	}
	st.Residual = rn / bn
	return st, nil
}
