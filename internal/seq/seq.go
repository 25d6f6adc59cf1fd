// Package seq provides sequential reference implementations of the
// solver family the paper discusses (§2, §2.1): the classic conjugate
// gradient method, its preconditioned form, BiCG (with the A^T
// product), CGS (which avoids A^T but can diverge), stabilized BiCG
// (BiCGSTAB, with its four inner products per iteration), and
// restarted GMRES (the "longer recurrences, greater storage"
// alternative). They serve three roles: numerical oracles for the
// distributed solvers, single-processor baselines for speedup
// measurements, and the source of the per-iteration operation counts
// experiment E5 tabulates.
//
// Every solver records its computational structure in Stats — matrix
// products, transpose products, inner products, SAXPY-class updates and
// working vectors — matching the paper's accounting ("the work per
// iteration is modest, amounting to a single matrix-vector
// multiplication ..., two inner products ..., and several SAXPY
// operations").
package seq

import (
	"errors"
	"fmt"
	"math"

	"hpfcg/internal/sparse"
)

// ErrBreakdown is returned when an algorithmic denominator vanishes
// (e.g. p·Ap = 0 in CG or omega = 0 in BiCGSTAB) before convergence.
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
	Iterations   int
	Converged    bool
	Residual     float64 // final relative residual
	MatVecs      int     // products with A
	TransMatVecs int     // products with A^T (BiCG only)
	DotProducts  int
	AXPYs        int // SAXPY-class vector updates
	WorkVectors  int // working vectors allocated (storage, §2.1)
	// Spectrum holds Ritz-value eigenvalue estimates when
	// Options.EstimateSpectrum was set (CG only).
	Spectrum *SpectrumEstimate
}

// String summarises the stats for reports.
func (s Stats) String() string {
	return fmt.Sprintf("iters=%d converged=%v relres=%.3e matvec=%d matvecT=%d dot=%d axpy=%d vecs=%d",
		s.Iterations, s.Converged, s.Residual, s.MatVecs, s.TransMatVecs, s.DotProducts, s.AXPYs, s.WorkVectors)
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

func (c counters) matvecT(A *sparse.CSR, x, y []float64) {
	c.s.TransMatVecs++
	A.MulVecT(x, y)
}

func (c counters) newVec(n int) []float64 {
	c.s.WorkVectors++
	return make([]float64, n)
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

	r := c.newVec(n)
	rn, bn := residual0(c, A, b, x, r)
	if bn == 0 {
		bn = 1
	}
	if rn/bn <= opt.Tol {
		st.Converged = true
		st.Residual = rn / bn
		return st, nil
	}
	p := c.newVec(n)
	copy(p, r)
	q := c.newVec(n)
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

	r := c.newVec(n)
	rn, bn := residual0(c, A, b, x, r)
	if bn == 0 {
		bn = 1
	}
	if rn/bn <= opt.Tol {
		st.Converged = true
		st.Residual = rn / bn
		return st, nil
	}
	z := c.newVec(n)
	M.Apply(r, z)
	p := c.newVec(n)
	copy(p, z)
	q := c.newVec(n)
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

// BiCG solves A*x = b for general (non-symmetric) A using two mutually
// orthogonal residual sequences (§2.1). It performs two matrix products
// per iteration, one with A and one with A^T — the transpose product
// that negates row-vs-column distribution optimisations.
func BiCG(A *sparse.CSR, b, x []float64, opt Options) (Stats, error) {
	checkSystem(A, b, x)
	n := A.NRows
	opt = opt.withDefaults(n)
	var st Stats
	c := counters{&st}

	r := c.newVec(n)
	rn, bn := residual0(c, A, b, x, r)
	if bn == 0 {
		bn = 1
	}
	if rn/bn <= opt.Tol {
		st.Converged = true
		st.Residual = rn / bn
		return st, nil
	}
	rt := c.newVec(n) // shadow residual
	copy(rt, r)
	p := c.newVec(n)
	pt := c.newVec(n)
	copy(p, r)
	copy(pt, rt)
	q := c.newVec(n)
	qt := c.newVec(n)
	rho := c.dot(rt, r)

	for k := 1; k <= opt.MaxIter; k++ {
		st.Iterations = k
		c.matvec(A, p, q)
		c.matvecT(A, pt, qt)
		ptq := c.dot(pt, q)
		if ptq == 0 {
			return st, fmt.Errorf("%w: p̃·Ap = 0 at iteration %d", ErrBreakdown, k)
		}
		alpha := rho / ptq
		c.axpy(x, alpha, p)
		c.axpy(r, -alpha, q)
		c.axpy(rt, -alpha, qt)
		rn = c.norm(r)
		rel := rn / bn
		if rel <= opt.Tol {
			st.Converged = true
			st.Residual = rel
			return st, nil
		}
		rho0 := rho
		rho = c.dot(rt, r)
		if rho == 0 || rho0 == 0 {
			return st, fmt.Errorf("%w: rho = 0 at iteration %d", ErrBreakdown, k)
		}
		beta := rho / rho0
		c.aypx(p, beta, r)
		c.aypx(pt, beta, rt)
	}
	st.Residual = rn / bn
	return st, nil
}

// CGS is the conjugate gradient squared method (§2.1): it avoids A^T
// (two products with A instead) but "can have some undesirable
// numerical properties such as actual divergence or irregular rates of
// convergence" — callers should prefer BiCGSTAB.
func CGS(A *sparse.CSR, b, x []float64, opt Options) (Stats, error) {
	checkSystem(A, b, x)
	n := A.NRows
	opt = opt.withDefaults(n)
	var st Stats
	c := counters{&st}

	r := c.newVec(n)
	rn, bn := residual0(c, A, b, x, r)
	if bn == 0 {
		bn = 1
	}
	if rn/bn <= opt.Tol {
		st.Converged = true
		st.Residual = rn / bn
		return st, nil
	}
	rt := c.newVec(n)
	copy(rt, r)
	p := c.newVec(n)
	u := c.newVec(n)
	qv := c.newVec(n)
	vh := c.newVec(n)
	uq := c.newVec(n)
	copy(p, r)
	copy(u, r)
	rho := c.dot(rt, r)

	for k := 1; k <= opt.MaxIter; k++ {
		st.Iterations = k
		c.matvec(A, p, vh)
		sigma := c.dot(rt, vh)
		if sigma == 0 {
			return st, fmt.Errorf("%w: r̃·Ap = 0 at iteration %d", ErrBreakdown, k)
		}
		alpha := rho / sigma
		// q = u - alpha*vh
		st.AXPYs++
		for i := range qv {
			qv[i] = u[i] - alpha*vh[i]
		}
		// uq = u + q
		st.AXPYs++
		for i := range uq {
			uq[i] = u[i] + qv[i]
		}
		c.axpy(x, alpha, uq)
		c.matvec(A, uq, vh)
		c.axpy(r, -alpha, vh)
		rn = c.norm(r)
		rel := rn / bn
		if rel <= opt.Tol {
			st.Converged = true
			st.Residual = rel
			return st, nil
		}
		rho0 := rho
		rho = c.dot(rt, r)
		if rho == 0 || rho0 == 0 {
			return st, fmt.Errorf("%w: rho = 0 at iteration %d", ErrBreakdown, k)
		}
		beta := rho / rho0
		// u = r + beta*q
		st.AXPYs++
		for i := range u {
			u[i] = r[i] + beta*qv[i]
		}
		// p = u + beta*(q + beta*p)
		st.AXPYs += 2
		for i := range p {
			p[i] = u[i] + beta*(qv[i]+beta*p[i])
		}
	}
	st.Residual = rn / bn
	return st, nil
}

// BiCGSTAB is the stabilized BiCG method (§2.1): two products with A
// (no A^T) and four inner products per iteration — the paper notes the
// "greater demand for an efficient intrinsic" for DOT_PRODUCT.
func BiCGSTAB(A *sparse.CSR, b, x []float64, opt Options) (Stats, error) {
	checkSystem(A, b, x)
	n := A.NRows
	opt = opt.withDefaults(n)
	var st Stats
	c := counters{&st}

	r := c.newVec(n)
	rn, bn := residual0(c, A, b, x, r)
	if bn == 0 {
		bn = 1
	}
	if rn/bn <= opt.Tol {
		st.Converged = true
		st.Residual = rn / bn
		return st, nil
	}
	rt := c.newVec(n)
	copy(rt, r)
	p := c.newVec(n)
	v := c.newVec(n)
	s := c.newVec(n)
	t := c.newVec(n)
	copy(p, r)
	rho := c.dot(rt, r)

	for k := 1; k <= opt.MaxIter; k++ {
		st.Iterations = k
		c.matvec(A, p, v)
		rtv := c.dot(rt, v)
		if rtv == 0 {
			return st, fmt.Errorf("%w: r̃·Ap = 0 at iteration %d", ErrBreakdown, k)
		}
		alpha := rho / rtv
		// s = r - alpha*v
		st.AXPYs++
		for i := range s {
			s[i] = r[i] - alpha*v[i]
		}
		c.matvec(A, s, t)
		tt := c.dot(t, t)
		var omega float64
		if tt != 0 {
			omega = c.dot(t, s) / tt
		}
		if omega == 0 {
			// s is already (numerically) zero or t vanished: take the
			// half step and test.
			c.axpy(x, alpha, p)
			copy(r, s)
			rn = c.norm(r)
			rel := rn / bn
			if rel <= opt.Tol {
				st.Converged = true
				st.Residual = rel
				return st, nil
			}
			return st, fmt.Errorf("%w: omega = 0 at iteration %d", ErrBreakdown, k)
		}
		c.axpy(x, alpha, p)
		c.axpy(x, omega, s)
		// r = s - omega*t
		st.AXPYs++
		for i := range r {
			r[i] = s[i] - omega*t[i]
		}
		rn = c.norm(r)
		rel := rn / bn
		if rel <= opt.Tol {
			st.Converged = true
			st.Residual = rel
			return st, nil
		}
		rho0 := rho
		rho = c.dot(rt, r)
		if rho == 0 || rho0 == 0 {
			return st, fmt.Errorf("%w: rho = 0 at iteration %d", ErrBreakdown, k)
		}
		beta := (rho / rho0) * (alpha / omega)
		// p = r + beta*(p - omega*v)
		st.AXPYs += 2
		for i := range p {
			p[i] = r[i] + beta*(p[i]-omega*v[i])
		}
	}
	st.Residual = rn / bn
	return st, nil
}
