// Pipelined (communication-hiding) conjugate gradient. CGSStep attacks
// the §4 latency term by batching rounds — s iterations per allreduce;
// this file attacks it from the other side by *overlapping*: one
// allreduce per iteration, started nonblocking and hidden behind the
// iteration's matrix-vector product. The rearrangement is
// Ghysels–Vanroose: carry w = A·r alongside the usual vectors, merge
// both scalars an iteration needs — γ = (r,r) and δ = (w,r) — in one
// comm.IallreduceScalars round, compute q = A·w while the round is in
// flight, and recover α and β locally from the recurrence
//
//	β = γ/γ_old,   α = γ / (δ - β·γ/α_old)
//
// once the Wait completes (for free when the mat-vec covered the
// reduction). Auxiliary recurrences z = q + βz, s = w + βs keep A·p and
// A·s available without further applies, so each iteration is still one
// operator application. Because α and β are both known before any
// vector moves, the six vector updates and the next round's two
// partials run as one fused pass (darray.PipelinedUpdate), so each
// iteration touches every vector entry once.
//
// Like CGSStep, the recurrence changes the floating-point
// trajectory and can drift from the true residual, so stability is
// priced rather than trusted: convergence claims are confirmed against
// an explicitly recomputed residual (a residual replacement at the
// claim), and any anomalous scalar (γ ≤ 0, δ ≤ 0, NaN, a non-positive
// α denominator, stagnation or blow-up of γ) triggers one explicit
// replacement r = b − A·x followed by a permanent fall back to plain
// CG from the current x — which on an SPD system always converges, so
// the guard can cost time, never the answer.
package core

import (
	"math"

	"hpfcg/internal/comm"
	"hpfcg/internal/darray"
	"hpfcg/internal/spmv"
)

// pipeStagIters and pipeGrowthTol bound the consistent-but-wrong
// regime, mirroring CGSStep's block guard at iteration granularity: no
// new best ‖r‖² for pipeStagIters iterations, or growth far past the
// best, abandons the pipelined recurrence.
const (
	pipeStagIters = 50
	pipeGrowthTol = 1e4
)

// imerge starts ONE nonblocking batched allreduce of the local partials
// in d — the pipelined solver's single round per iteration. It counts a
// reduction round like merge; the caller overlaps compute against the
// returned handle and settles the modeled cost with Wait.
func (o *solver) imerge(d []float64) *comm.ReduceHandle {
	o.Reductions++
	return o.p.IallreduceScalars(d, comm.OpSum)
}

// CGPipelined solves A·x = b with the Ghysels–Vanroose pipelined
// recurrence: one nonblocking allreduce per iteration whose modeled
// cost hides behind the iteration's mat-vec (Wait charges only the
// exposed remainder — see comm.IallreduceScalars), and per iteration
// one operator apply and one fused vector pass, which from the second
// iteration on makes all six updates and the next round's two dot
// partials (the first iteration copies p, s and z and runs three axpy,
// and the first two rounds' partials are separate dots). It changes the
// floating-point trajectory like CGSStep does, converges to the same
// tolerance, and falls back to plain CG after one residual replacement
// if the drift guard trips. Any spmv.Operator works, assembled or
// matrix-free.
func CGPipelined(p *comm.Proc, A spmv.Operator, b, x *darray.Vector, opt Options) (Stats, error) {
	var o solver
	rnsq, done := o.open(p, A, b, x, opt)
	if done {
		return o.finish()
	}
	r, w := o.r, o.w
	wv := w.take(b) // w = A·r, the pipelined auxiliary residual image
	o.apply(A, r, wv)
	pv := w.take(b) // search direction
	sv := w.take(b) // s = A·p
	zv := w.take(b) // z = A·s
	qv := w.take(b) // q = A·w, computed inside the overlap window

	var d [2]float64
	var gamma, gammaOld, alphaOld float64
	bestGamma := rnsq
	sinceBest := 0
	first := true
	fused := false // the last update left the next round's partials in d
	claimed := false
	fallback := false

	for {
		// The round: {γ = r·r, δ = w·r} start one nonblocking merge;
		// q = A·w runs while it is in flight; Wait charges only what
		// the mat-vec did not cover. From the third round on the
		// previous update's fused pass left the two partials in d.
		if !fused {
			d[0] = o.dotLocal(r, r)
			d[1] = o.dotLocal(wv, r)
		}
		h := o.imerge(d[:])
		o.apply(A, wv, qv)
		h.Wait()
		gamma = d[0]
		delta := d[1]
		if math.IsNaN(gamma) || math.IsNaN(delta) || gamma <= 0 || delta <= 0 {
			fallback = true
			break
		}
		if !first {
			// γ is the exact merged ‖r‖² of the recurrence residual:
			// the stopping test for the previous update, free inside
			// the round (same quality as plain CG's test), and a claim
			// the true residual confirms below.
			if o.check(math.Sqrt(gamma) / o.bn) {
				claimed = true
				break
			}
			if gamma < bestGamma {
				bestGamma = gamma
				sinceBest = 0
			} else {
				sinceBest++
				if sinceBest >= pipeStagIters || gamma > pipeGrowthTol*bestGamma {
					fallback = true
					break
				}
			}
		}
		if o.Iterations >= o.opt.MaxIter {
			break
		}
		o.Iterations++
		var alpha float64
		if first {
			first = false
			alpha = gamma / delta
			zv.CopyFrom(qv)
			sv.CopyFrom(wv)
			pv.CopyFrom(r)
			o.axpy(x, alpha, pv)   // x += α·p
			o.axpy(r, -alpha, sv)  // r -= α·s
			o.axpy(wv, -alpha, zv) // w -= α·z   (keeps w = A·r)
		} else {
			beta := gamma / gammaOld
			den := delta - beta*gamma/alphaOld
			if math.IsNaN(den) || den <= 0 {
				fallback = true
				break
			}
			alpha = gamma / den
			// z = q + β·z (= A·s), s = w + β·s (= A·p), p = r + β·p,
			// x += α·p, r -= α·s, w -= α·z (keeps w = A·r), and the next
			// round's partials of r·r and w·r: one pass over the vectors.
			d[0], d[1] = o.pipelinedUpdate(x, r, wv, pv, sv, zv, qv, alpha, beta)
			fused = true
		}
		gammaOld, alphaOld = gamma, alpha
	}

	c := cg{A: A, b: b, x: x, r: r, z: r, p: pv, q: qv}
	if claimed {
		// The recurrence claims convergence: confirm against the true
		// residual — an explicit replacement at the claim, like
		// CGSStep's end-of-block confirmation. A confirmed claim
		// returns; an unconfirmed one is drift and falls back.
		if c.restart(&o) {
			return o.finish()
		}
		fallback = true
	}
	if !fallback {
		// MaxIter exhausted; the last check measured the final iterate.
		return o.finish()
	}
	// The guard tripped: the plain recurrence from the current x.
	return c.resume(&o)
}
