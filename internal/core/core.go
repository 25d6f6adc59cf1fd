// Package core implements the paper's subject matter: conjugate
// gradient iterative solvers expressed over the HPF-style data-parallel
// runtime — distributed vectors (darray), HPF distributions (dist) and
// the two matrix-vector partitionings (spmv). CG and PCG are the
// direct data-parallel transcriptions of their sequential counterparts
// in package seq, and BiCG, CGS and BiCGSTAB live only here; the code
// shape matches the paper's Figure 2:
//
//	DO k=1,Niter
//	  rho0 = rho
//	  rho  = DOT_PRODUCT(r, r)       ! sdot   (allreduce merge)
//	  beta = rho / rho0
//	  p    = beta*p + r              ! saypx  (local)
//	  q    = A . p                   ! distributed mat-vec
//	  alpha = rho / DOT_PRODUCT(p,q)
//	  x    = x + alpha*p             ! saxpy  (local)
//	  r    = r - alpha*q             ! saxpy  (local)
//	  IF (stop_criterion) EXIT
//	END DO
//
// Every processor of a comm.Machine executes the same solver body
// (SPMD); scalars such as rho and alpha are produced by collective
// reductions, so control flow stays identical across processors.
//
// What every method shares is written once, in the unexported solver
// skeleton: one prologue (open: defaulted options, the Stats, the
// workspace, r = b − A·x and ‖b‖ merged in one round, and the early
// exit when x already meets the tolerance), one r = b − A·x step, one
// stop test (check, or stop outside an iteration), one close (finish)
// and one breakdown error. Each method keeps only its recurrence.
//
// The Figure 2 loop itself is written once too (the unexported cg
// recurrence: seed, restart, iterate), and §2.1's view of every other
// method as a small delta on it is how the CG family is built: CG and
// PCG are the prologue plus that loop, CGResilient a restore-or-clean
// prologue plus a checkpoint hook on each iteration, CGSStep and
// CGPipelined replacement loops whose guard-trip tail is restart +
// iterate. CGUnfused — the literal three-round Figure 2 kept as E19's
// baseline, which keeps its unbatched setup rounds — is a different
// recurrence on the same skeleton, as are BiCG, CGS, BiCGSTAB and
// Chebyshev.
//
// The solvers are communication-avoiding in the scalar merges: local
// dot-product partials that the textbook form merges one at a time are
// batched into single comm.AllreduceScalars rounds (element-wise
// combination in a batch is the same arithmetic as separate scalar
// allreduces, so the batched solvers produce bit-identical iterates).
// CG additionally reuses the merged ||r||² as the next rho — the
// Figure 2 loop recomputes DOT_PRODUCT(r,r) the merge already produced
// — dropping its synchronisation count from three rounds per iteration
// to two; CGPipelined trades bit-compatibility for a single round,
// overlapped with the mat-vec. Stats counts the rounds, and experiment
// E19 measures the effect.
package core

import (
	"errors"
	"fmt"
	"math"

	"hpfcg/internal/comm"
	"hpfcg/internal/darray"
	"hpfcg/internal/spmv"
)

// ErrBreakdown mirrors seq.ErrBreakdown for the distributed solvers.
var ErrBreakdown = errors.New("core: iterative method breakdown")

// Options controls iteration limits and tolerance.
type Options struct {
	// Tol is the threshold on the relative residual ||r||/||b||.
	// Zero means 1e-10.
	Tol float64
	// MaxIter limits iterations; zero means 2*n.
	MaxIter int
	// History, when true, records the relative residual per iteration.
	History bool
	// Work, when non-nil, supplies the solver's temporary vectors from
	// a reusable per-processor pool instead of fresh allocations, so
	// repeated solves (and their iterations) stay off the heap. Each
	// processor must pass its own Workspace.
	Work *Workspace
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

// Stats reports a distributed solve's outcome and operation structure
// (identical on every processor).
type Stats struct {
	Iterations   int
	Converged    bool
	Residual     float64
	MatVecs      int
	TransMatVecs int
	DotProducts  int
	AXPYs        int
	// Reductions counts scalar allreduce merge rounds — the t_s·log NP
	// synchronisations per solve. Batched merges count one round
	// regardless of how many partials they carry, so this is the
	// communication-avoidance metric of experiment E19.
	Reductions int
	History    []float64
	// Checkpoints, Restores and Replacements count CGResilient's
	// resilience actions in this attempt: checkpoints written, restores
	// performed at entry, and residual replacements the guard forced.
	// CGSStep and CGPipelined count their guard trip as a replacement
	// too: the tail of such a solve ran as plain CG. Zero otherwise.
	Checkpoints  int
	Restores     int
	Replacements int
	// StartIteration is the iteration CGResilient resumed from (0 on a
	// clean start); Iterations stays the global count, so the attempt
	// itself ran Iterations - StartIteration iterations.
	StartIteration int
}

// String summarises the stats.
func (s Stats) String() string {
	return fmt.Sprintf("iters=%d converged=%v relres=%.3e matvec=%d matvecT=%d dot=%d axpy=%d reduce=%d",
		s.Iterations, s.Converged, s.Residual, s.MatVecs, s.TransMatVecs, s.DotProducts, s.AXPYs, s.Reductions)
}

// cg is the loop state of the plain (preconditioned) CG recurrence —
// the one place the Figure 2 update lives. Every solver built on it
// adds only what differs: CG and PCG the prologue, CGResilient a
// restore-or-clean prologue and a checkpointer, CGSStep and CGPipelined
// their own loops with restart + iterate as the guard-trip tail. The
// Stats travel beside the state (in the solver), not inside it.
type cg struct {
	A spmv.Operator
	M Preconditioner // nil: z aliases r and rho is ‖r‖²
	// b and x are the caller's; r, z, p, q the solver's temporaries.
	b, x, r, z, p, q *darray.Vector
	rho              float64
}

// newCG builds the recurrence over the solver's r, taking the other
// temporaries from its workspace.
func newCG(o *solver, A spmv.Operator, M Preconditioner, b, x *darray.Vector) cg {
	c := cg{A: A, M: M, b: b, x: x, r: o.r, z: o.r}
	if M != nil {
		c.z = o.w.take(b)
	}
	c.p, c.q = o.w.take(b), o.w.take(b)
	return c
}

// seed starts the recurrence from the residual held in r, whose merged
// ‖r‖² is rnsq: p = z = M⁻¹·r and rho = r·z.
func (c *cg) seed(o *solver, rnsq float64) {
	c.rho = rnsq
	if c.M != nil {
		c.M.Apply(c.r, c.z)
		c.rho = o.dot(c.r, c.z)
	}
	c.p.CopyFrom(c.z)
}

// restart is the explicit residual replacement r = b − A·x followed by
// seed: the recurrence starts over from the current x. It reports true
// when that residual already meets the tolerance. It is what a variant
// whose own recurrence drifted falls back through, and how a
// convergence claim is confirmed against the true residual.
func (c *cg) restart(o *solver) bool {
	o.residual(c.A, c.b, c.x, c.r)
	rnsq := o.normSq(c.r)
	if o.stop(math.Sqrt(rnsq) / o.bn) {
		return true
	}
	c.seed(o, rnsq)
	return false
}

// resume is the guard-trip tail of CGSStep and CGPipelined: one
// counted residual replacement, then the plain recurrence from the
// current x — stability priced, never the answer.
func (c *cg) resume(o *solver) (Stats, error) {
	o.Replacements++
	if c.restart(o) {
		return o.finish()
	}
	return c.iterate(o, nil)
}

// iterate runs the recurrence from iteration Stats.Iterations+1 to
// convergence or MaxIter — the communication-avoiding restructuring of
// Figure 2: the mat-vec is fused with DOT_PRODUCT(p,q) (one merge), the
// residual update with its norm (a second merge), and the merged ‖r‖²
// is reused as the next rho instead of recomputing DOT_PRODUCT(r,r) —
// two allreduce rounds per iteration instead of three, with iterates
// bit-identical to the textbook ordering (the dropped merge would have
// reduced exactly the partials the norm merge already did). With a
// preconditioner the solve z = M⁻¹·r is hoisted before the stopping
// test so DOT_PRODUCT(r,z) batches with the norm: still two rounds, the
// second two words wide (the hoist spends one discarded M-solve on the
// final iteration). ck, when non-nil, is told of every iteration's
// start and unconverged end.
func (c *cg) iterate(o *solver, ck *checkpointer) (Stats, error) {
	for k := o.Iterations + 1; k <= o.opt.MaxIter; k++ {
		o.Iterations = k
		ck.begin(k)
		// Round 1: q = A·p fused with the p·q partial.
		pq := o.mergeScalar(o.applyDotLocal(c.A, c.p, c.q))
		if pq == 0 {
			return o.breakdown("p·Ap", k)
		}
		alpha := c.rho / pq
		o.axpy(c.x, alpha, c.p)
		// Round 2: r -= alpha*q fused with ||r||², which serves the
		// stopping test and — unpreconditioned — the next rho.
		rho0 := c.rho
		rnsq := o.axpyNormSqLocal(c.r, -alpha, c.q)
		if c.M == nil {
			rnsq = o.mergeScalar(rnsq)
			c.rho = rnsq
		} else {
			c.M.Apply(c.r, c.z)
			d := [2]float64{rnsq, o.dotLocal(c.r, c.z)}
			o.merge(d[:])
			rnsq, c.rho = d[0], d[1]
		}
		if o.check(math.Sqrt(rnsq) / o.bn) {
			return o.finish()
		}
		if rho0 == 0 {
			return o.breakdown("rho", k)
		}
		beta := c.rho / rho0
		o.aypx(c.p, beta, c.z)
		ck.end(k, c, o)
	}
	return o.finish()
}

// CG solves A·x = b on the distributed machine — the Figure 2 HPF
// code. x carries the initial guess in and the solution out; b and x
// must be aligned with A's vector distribution. It is PCG without a
// preconditioner.
func CG(p *comm.Proc, A spmv.Operator, b, x *darray.Vector, opt Options) (Stats, error) {
	return PCG(p, A, nil, b, x, opt)
}

// PCG is CG with a distributed preconditioner (z = M⁻¹r per
// iteration); a nil M is plain CG, whose norm merge stays one word wide.
func PCG(p *comm.Proc, A spmv.Operator, M Preconditioner, b, x *darray.Vector, opt Options) (Stats, error) {
	var o solver
	rnsq, done := o.open(p, A, b, x, opt)
	if done {
		return o.finish()
	}
	c := newCG(&o, A, M, b, x)
	c.seed(&o, rnsq)
	return c.iterate(&o, nil)
}

// CGUnfused is the literal Figure 2 transcription kept as the
// measurement baseline for experiment E19: every scalar merges in its
// own allreduce round — the two setup norms, DOT_PRODUCT(p,q), the
// convergence norm, and a recomputed DOT_PRODUCT(r,r), three rounds per
// iteration — with fresh work vectors every call. Its iterates are
// bit-identical to CG's (the fusions reorder no arithmetic); only the
// synchronisation and allocation behaviour differ.
func CGUnfused(p *comm.Proc, A spmv.Operator, b, x *darray.Vector, opt Options) (Stats, error) {
	var o solver
	opt.Work = nil // the baseline allocates its vectors fresh
	o.begin(p, A.N(), b, opt)
	r := o.r
	o.residual(A, b, x, r)
	rn := math.Sqrt(o.dot(r, r))
	o.setNorm(o.dot(b, b))
	if o.stop(rn / o.bn) {
		return o.finish()
	}
	pv := o.w.copyOf(r)
	q := o.w.take(b)
	rho := o.dot(r, r)

	for k := 1; k <= o.opt.MaxIter; k++ {
		o.Iterations = k
		o.apply(A, pv, q)
		pq := o.dot(pv, q)
		if pq == 0 {
			return o.breakdown("p·Ap", k)
		}
		alpha := rho / pq
		o.axpy(x, alpha, pv)
		o.axpy(r, -alpha, q)
		if o.check(math.Sqrt(o.dot(r, r)) / o.bn) {
			return o.finish()
		}
		rho0 := rho
		rho = o.dot(r, r)
		if rho0 == 0 {
			return o.breakdown("rho", k)
		}
		beta := rho / rho0
		o.aypx(pv, beta, r)
	}
	return o.finish()
}

// BiCG solves a general system using the two-residual recurrence. A
// must support the transpose product; under a row-block distribution
// that product re-introduces the merge communication (§2.1), which is
// why the paper singles BiCG out. The convergence norm and
// DOT_PRODUCT(r̃,r) batch into one round: two merges per iteration.
func BiCG(p *comm.Proc, A spmv.TransposeOperator, b, x *darray.Vector, opt Options) (Stats, error) {
	var o solver
	// r̃ = r initially, so DOT_PRODUCT(r̃,r) = ||r||².
	rho, done := o.open(p, A, b, x, opt)
	if done {
		return o.finish()
	}
	r, w := o.r, o.w
	rt := w.copyOf(r)
	pv := w.copyOf(r)
	pt := w.copyOf(rt)
	q := w.take(b)
	qt := w.take(b)
	var d [2]float64

	for k := 1; k <= o.opt.MaxIter; k++ {
		o.Iterations = k
		o.apply(A, pv, q)
		o.applyT(A, pt, qt)
		ptq := o.mergeScalar(o.dotLocal(pt, q))
		if ptq == 0 {
			return o.breakdown("p̃·Ap", k)
		}
		alpha := rho / ptq
		o.axpy(x, alpha, pv)
		d[0] = o.axpyNormSqLocal(r, -alpha, q)
		o.axpy(rt, -alpha, qt)
		d[1] = o.dotLocal(rt, r)
		o.merge(d[:])
		if o.check(math.Sqrt(d[0]) / o.bn) {
			return o.finish()
		}
		rho0 := rho
		rho = d[1]
		if rho == 0 || rho0 == 0 {
			return o.breakdown("rho", k)
		}
		beta := rho / rho0
		o.aypx(pv, beta, r)
		o.aypx(pt, beta, rt)
	}
	return o.finish()
}

// CGS avoids A^T with two forward products per iteration (§2.1), at
// the cost of possibly irregular convergence. Two merge rounds per
// iteration (sigma, then the batched norm + rho).
func CGS(p *comm.Proc, A spmv.Operator, b, x *darray.Vector, opt Options) (Stats, error) {
	var o solver
	rho, done := o.open(p, A, b, x, opt)
	if done {
		return o.finish()
	}
	r, w := o.r, o.w
	rt := w.copyOf(r)
	pv := w.copyOf(r)
	u := w.copyOf(r)
	qv := w.take(b)
	vh := w.take(b)
	uq := w.take(b)
	var d [2]float64

	for k := 1; k <= o.opt.MaxIter; k++ {
		o.Iterations = k
		o.apply(A, pv, vh)
		sigma := o.mergeScalar(o.dotLocal(rt, vh))
		if sigma == 0 {
			return o.breakdown("r̃·Ap", k)
		}
		alpha := rho / sigma
		qv.CopyFrom(u)
		o.axpy(qv, -alpha, vh) // q = u - alpha*A*p
		uq.CopyFrom(u)
		o.axpy(uq, 1, qv) // uq = u + q
		o.axpy(x, alpha, uq)
		o.apply(A, uq, vh)
		d[0] = o.axpyNormSqLocal(r, -alpha, vh)
		d[1] = o.dotLocal(rt, r)
		o.merge(d[:])
		if o.check(math.Sqrt(d[0]) / o.bn) {
			return o.finish()
		}
		rho0 := rho
		rho = d[1]
		if rho == 0 || rho0 == 0 {
			return o.breakdown("rho", k)
		}
		beta := rho / rho0
		u.CopyFrom(r)
		o.axpy(u, beta, qv) // u = r + beta*q
		// p = u + beta*(q + beta*p)
		o.aypx(pv, beta, qv) // p = beta*p + q
		o.aypx(pv, beta, u)  // p = beta*p + u
	}
	return o.finish()
}

// BiCGSTAB is the stabilized variant: no A^T, two forward products and
// five inner products per iteration — the paper's note about demand on
// the DOT_PRODUCT intrinsic. Batching pairs them into three allreduce
// merges per loop: r̃·Ap, then {t·t, t·s}, then the norm with r̃·r.
func BiCGSTAB(p *comm.Proc, A spmv.Operator, b, x *darray.Vector, opt Options) (Stats, error) {
	var o solver
	rho, done := o.open(p, A, b, x, opt)
	if done {
		return o.finish()
	}
	r, w := o.r, o.w
	rt := w.copyOf(r)
	pv := w.copyOf(r)
	v := w.take(b)
	s := w.take(b)
	tv := w.take(b)
	var d [2]float64

	for k := 1; k <= o.opt.MaxIter; k++ {
		o.Iterations = k
		o.apply(A, pv, v)
		rtv := o.mergeScalar(o.dotLocal(rt, v))
		if rtv == 0 {
			return o.breakdown("r̃·Ap", k)
		}
		alpha := rho / rtv
		s.CopyFrom(r)
		o.axpy(s, -alpha, v)
		o.apply(A, s, tv)
		d[0] = o.dotLocal(tv, tv)
		d[1] = o.dotLocal(tv, s)
		o.merge(d[:])
		tt, ts := d[0], d[1]
		var omega float64
		if tt != 0 {
			omega = ts / tt
		}
		if omega == 0 {
			o.axpy(x, alpha, pv)
			r.CopyFrom(s)
			if o.check(math.Sqrt(o.normSq(r)) / o.bn) {
				return o.finish()
			}
			return o.breakdown("omega", k)
		}
		o.axpy(x, alpha, pv)
		o.axpy(x, omega, s)
		r.CopyFrom(s)
		d[0] = o.axpyNormSqLocal(r, -omega, tv)
		d[1] = o.dotLocal(rt, r)
		o.merge(d[:])
		if o.check(math.Sqrt(d[0]) / o.bn) {
			return o.finish()
		}
		rho0 := rho
		rho = d[1]
		if rho == 0 || rho0 == 0 {
			return o.breakdown("rho", k)
		}
		beta := (rho / rho0) * (alpha / omega)
		o.axpy(pv, -omega, v) // p = p - omega*v
		o.aypx(pv, beta, r)   // p = beta*p + r
	}
	return o.finish()
}
