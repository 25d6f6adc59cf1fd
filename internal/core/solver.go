package core

import (
	"fmt"
	"math"

	"hpfcg/internal/comm"
	"hpfcg/internal/darray"
	"hpfcg/internal/spmv"
)

// solver is what every method in this package shares: the processor,
// the defaulted options, the Stats it counts into, the workspace, the
// residual r and ‖b‖ from the prologue, and the last measured relative
// residual. A method opens with open (or begin), tests with check or
// stop, ends with finish or breakdown, and adds only its recurrence.
// Every operation that counts goes through a method here, so the Stats
// tally what ran. It lives on the method's stack; the Stats are copied
// out at the end.
type solver struct {
	Stats
	p   *comm.Proc
	opt Options
	w   *Workspace
	r   *darray.Vector
	bn  float64 // ‖b‖, 1 when b = 0
	rel float64 // the last measured ‖r‖/‖b‖
}

// begin defaults the options, preallocates the residual history to its
// MaxIter bound so record never reallocates mid-solve, begins the
// workspace and takes r from it. n is the system size.
func (o *solver) begin(p *comm.Proc, n int, b *darray.Vector, opt Options) {
	o.p, o.opt = p, opt.withDefaults(n)
	if o.opt.History {
		o.History = make([]float64, 0, o.opt.MaxIter)
	}
	o.w = o.opt.Work.begin()
	o.r = o.w.take(b)
}

// open is the one prologue: begin, then r = b − A·x with ‖r‖² and ‖b‖
// merged in one batched round (one matvec, two dots). It returns ‖r‖²,
// unsquare-rooted because CG reuses it as the initial rho, and reports
// whether x already meets the tolerance.
func (o *solver) open(p *comm.Proc, A spmv.Operator, b, x *darray.Vector, opt Options) (rnsq float64, done bool) {
	o.begin(p, A.N(), b, opt)
	o.residual(A, b, x, o.r)
	d := [2]float64{o.r.NormSqLocal(), b.NormSqLocal()}
	o.DotProducts += 2
	o.merge(d[:])
	o.setNorm(d[1])
	return d[0], o.stop(math.Sqrt(d[0]) / o.bn)
}

// setNorm sets ‖b‖ from its merged square. A zero b leaves the
// residual test absolute.
func (o *solver) setNorm(bnsq float64) {
	o.bn = math.Sqrt(bnsq)
	if o.bn == 0 {
		o.bn = 1
	}
}

// residual is the one r = b − A·x: a matvec, a negation and an axpy.
func (o *solver) residual(A spmv.Operator, b, x, r *darray.Vector) {
	o.apply(A, x, r)
	r.Scale(-1)
	o.axpy(r, 1, b)
}

// stop is the one stop test: rel becomes the last measured relative
// residual, and stop reports whether it meets the tolerance.
func (o *solver) stop(rel float64) bool {
	o.rel = rel
	return rel <= o.opt.Tol
}

// check is stop inside an iteration, where rel first joins the history
// when Options.History is on.
func (o *solver) check(rel float64) bool {
	if o.opt.History {
		o.History = append(o.History, rel)
	}
	return o.stop(rel)
}

// finish closes the Stats of a solve that stopped or ran out of
// iterations: Residual is the last measured relative residual, and the
// solve converged when that met the tolerance.
func (o *solver) finish() (Stats, error) {
	o.Residual = o.rel
	if o.rel <= o.opt.Tol {
		o.Converged = true
	}
	return o.Stats, nil
}

// breakdown ends a solve whose recurrence divides by a vanished scalar:
// what names it, k is the iteration.
func (o *solver) breakdown(what string, k int) (Stats, error) {
	return o.Stats, fmt.Errorf("%w: %s = 0 at iteration %d", ErrBreakdown, what, k)
}

func (o *solver) dot(a, b *darray.Vector) float64 {
	o.DotProducts++
	o.Reductions++
	return a.Dot(b)
}

// dotLocal is the communication-free half of a dot product; the caller
// batches the partial into a merge round.
func (o *solver) dotLocal(a, b *darray.Vector) float64 {
	o.DotProducts++
	return a.DotLocal(b)
}

// normSq is the merged ‖v‖², in its own round.
func (o *solver) normSq(v *darray.Vector) float64 {
	o.DotProducts++
	return o.mergeScalar(v.NormSqLocal())
}

// mergeScalar merges one local partial sum in a single allreduce round.
func (o *solver) mergeScalar(v float64) float64 {
	o.Reductions++
	return o.p.AllreduceScalar(v, comm.OpSum)
}

// merge combines several local partial sums in ONE batched allreduce
// round — the fused form of len(d) separate mergeScalar calls, with
// identical element-wise arithmetic (so identical results) but a single
// t_s·log NP synchronisation.
func (o *solver) merge(d []float64) {
	o.Reductions++
	o.p.AllreduceScalars(d, comm.OpSum)
}

func (o *solver) axpy(y *darray.Vector, alpha float64, x *darray.Vector) {
	o.AXPYs++
	y.AXPY(alpha, x)
}

// axpyNormSqLocal fuses y += alpha*x with the local partial of the
// updated ||y||² (one sweep instead of two, bit-identical results).
func (o *solver) axpyNormSqLocal(y *darray.Vector, alpha float64, x *darray.Vector) float64 {
	o.AXPYs++
	o.DotProducts++
	return y.AXPYNormSqLocal(alpha, x)
}

func (o *solver) aypx(y *darray.Vector, beta float64, x *darray.Vector) {
	o.AXPYs++
	y.AYPX(beta, x)
}

// pipelinedUpdate is one pipelined iteration's three aypx, three axpy
// and the next round's two local partials in one pass
// (darray.PipelinedUpdate, bit-identical to the eight calls).
func (o *solver) pipelinedUpdate(x, r, w, p, s, z, q *darray.Vector, alpha, beta float64) (rr, wr float64) {
	o.AXPYs += 6
	o.DotProducts += 2
	return darray.PipelinedUpdate(x, r, w, p, s, z, q, alpha, beta)
}

func (o *solver) apply(A spmv.Operator, x, y *darray.Vector) {
	o.MatVecs++
	A.Apply(x, y)
}

// applyDotLocal computes y = A·x and the local partial of x·y — in one
// matrix pass when the operator supports fusion (spmv.FusedOperator),
// or as Apply followed by the local dot otherwise. Either way the
// partial is bit-identical and no communication happens here; the
// caller batches it into a merge round.
func (o *solver) applyDotLocal(A spmv.Operator, x, y *darray.Vector) float64 {
	o.MatVecs++
	o.DotProducts++
	if f, ok := A.(spmv.FusedOperator); ok {
		return f.ApplyDot(x, y)
	}
	A.Apply(x, y)
	return x.DotLocal(y)
}

func (o *solver) applyT(A spmv.TransposeOperator, x, y *darray.Vector) {
	o.TransMatVecs++
	A.ApplyT(x, y)
}
