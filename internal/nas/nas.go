// Package nas implements the NAS-CG benchmark kernel the paper cites
// among the codes that exercise conjugate gradient (§1, refs [1],
// [12]): a shifted-inverse power iteration that estimates the smallest
// eigenvalue region of a large sparse SPD matrix, with an inner loop of
// exactly 25 (untested-for-convergence) CG iterations per outer step.
//
// Substitution note (DESIGN.md): the matrix comes from
// sparse.NASCGMatrix, a documented simplification of the official
// `makea` generator that preserves the irregular random SPD structure
// the kernel's communication pattern depends on; absolute zeta values
// therefore differ from the published verification numbers, but the
// convergence trajectory (zeta stabilising over outer iterations,
// residual collapsing inside each inner solve) is reproduced and
// checked by tests.
package nas

import (
	"fmt"
	"math"

	"hpfcg/internal/comm"
	"hpfcg/internal/darray"
	"hpfcg/internal/dist"
	"hpfcg/internal/sparse"
	"hpfcg/internal/spmv"
)

// InnerIters is the fixed CG iteration count of the NAS CG kernel.
const InnerIters = 25

// Result reports one NAS-CG run.
type Result struct {
	Zetas    []float64 // zeta after each outer iteration
	RNorms   []float64 // inner-solve final residual norms
	MatVecs  int
	OuterIts int
}

// FinalZeta returns the last zeta estimate.
func (r Result) FinalZeta() float64 { return r.Zetas[len(r.Zetas)-1] }

// innerCG runs exactly InnerIters unpreconditioned CG iterations on
// A z = x starting from z = 0 and returns ||r|| at exit (the NAS
// kernel's structure; no convergence test inside).
func innerCG(A *sparse.CSR, x, z []float64) float64 {
	n := A.NRows
	for i := range z {
		z[i] = 0
	}
	r := make([]float64, n)
	copy(r, x)
	p := make([]float64, n)
	copy(p, x)
	q := make([]float64, n)
	rho := dot(r, r)
	for it := 0; it < InnerIters; it++ {
		A.MulVec(p, q)
		alpha := rho / dot(p, q)
		axpy(z, alpha, p)
		axpy(r, -alpha, q)
		rho0 := rho
		rho = dot(r, r)
		beta := rho / rho0
		for i := range p {
			p[i] = r[i] + beta*p[i]
		}
	}
	return math.Sqrt(rho)
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func axpy(y []float64, alpha float64, x []float64) {
	for i := range y {
		y[i] += alpha * x[i]
	}
}

// RunWithMatrix executes the kernel against a caller-provided matrix
// (so distributed and sequential runs can share one).
func RunWithMatrix(cls sparse.NASCGClass, A *sparse.CSR) Result {
	n := cls.N
	x := sparse.Ones(n)
	z := make([]float64, n)
	res := Result{OuterIts: cls.NIter}
	for it := 0; it < cls.NIter; it++ {
		rnorm := innerCG(A, x, z)
		res.MatVecs += InnerIters
		zeta := cls.Shift + 1/dot(x, z)
		res.Zetas = append(res.Zetas, zeta)
		res.RNorms = append(res.RNorms, rnorm)
		// x = z / ||z||
		zn := math.Sqrt(dot(z, z))
		for i := range x {
			x[i] = z[i] / zn
		}
	}
	return res
}

// RunDistributed executes the same kernel SPMD over the machine, using
// the row-block CSR operator of Scenario 1. Every processor returns the
// same Result.
func RunDistributed(p *comm.Proc, cls sparse.NASCGClass, A *sparse.CSR) Result {
	n := cls.N
	d := dist.NewBlock(n, p.NP())
	op := spmv.NewRowBlockCSR(p, A, d)

	x := darray.New(p, d)
	x.Fill(1)
	z := darray.New(p, d)
	r := darray.New(p, d)
	pd := darray.New(p, d)
	q := darray.New(p, d)

	res := Result{OuterIts: cls.NIter}
	for it := 0; it < cls.NIter; it++ {
		// Inner CG: z = A⁻¹x approximately, 25 iterations.
		z.Fill(0)
		r.CopyFrom(x)
		pd.CopyFrom(x)
		rho := r.Dot(r)
		for k := 0; k < InnerIters; k++ {
			op.Apply(pd, q)
			alpha := rho / pd.Dot(q)
			z.AXPY(alpha, pd)
			r.AXPY(-alpha, q)
			rho0 := rho
			rho = r.Dot(r)
			pd.AYPX(rho/rho0, r)
		}
		res.MatVecs += InnerIters
		res.RNorms = append(res.RNorms, math.Sqrt(rho))
		zeta := cls.Shift + 1/x.Dot(z)
		res.Zetas = append(res.Zetas, zeta)
		zn := z.Norm2()
		x.CopyFrom(z)
		x.Scale(1 / zn)
	}
	return res
}

// Verify checks the structural health of a run: zeta must settle (the
// power iteration converges) and the inner residuals must be small
// relative to the first one. It returns nil when the trajectory looks
// like a correct NAS-CG run.
func Verify(res Result) error {
	if len(res.Zetas) < 2 {
		return fmt.Errorf("nas: too few outer iterations (%d)", len(res.Zetas))
	}
	last := res.Zetas[len(res.Zetas)-1]
	prev := res.Zetas[len(res.Zetas)-2]
	firstDelta := math.Abs(res.Zetas[1] - res.Zetas[0])
	lastDelta := math.Abs(last - prev)
	// The shifted power iteration converges linearly; after the outer
	// loop the step size must be both small relative to zeta and much
	// smaller than the initial step.
	if lastDelta > 0.01*math.Abs(last) {
		return fmt.Errorf("nas: zeta has not settled: %.10g vs %.10g", prev, last)
	}
	if firstDelta > 0 && lastDelta > 0.5*firstDelta {
		return fmt.Errorf("nas: zeta trajectory not contracting: first step %g, last step %g", firstDelta, lastDelta)
	}
	if !(last > 0) || math.IsNaN(last) || math.IsInf(last, 0) {
		return fmt.Errorf("nas: bad final zeta %g", last)
	}
	first, final := res.RNorms[0], res.RNorms[len(res.RNorms)-1]
	if final > first {
		return fmt.Errorf("nas: inner residual grew: %g -> %g", first, final)
	}
	return nil
}
