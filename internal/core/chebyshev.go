package core

import (
	"fmt"
	"math"

	"hpfcg/internal/comm"
	"hpfcg/internal/darray"
	"hpfcg/internal/spmv"
)

// Chebyshev is the distributed Chebyshev semi-iteration: the
// communication-minimal solver for the §4 cost model. Where every CG
// iteration pays two or three DOT_PRODUCT merges (t_s·log NP
// allreduces each), the Chebyshev recurrence needs none — its only
// communication is the matrix product plus one norm per checkEvery
// iterations for the stopping test. On machines with large t_s it
// therefore beats CG per unit of modeled time even when it needs more
// iterations (experiment E17). Spectral bounds come from a short CG
// probe (seq.Options.EstimateSpectrum) or analytic knowledge.
func Chebyshev(p *comm.Proc, A spmv.Operator, b, x *darray.Vector, eigMin, eigMax float64, opt Options) (Stats, error) {
	if !(eigMin > 0) || !(eigMax >= eigMin) {
		return Stats{}, fmt.Errorf("core: Chebyshev needs 0 < eigMin <= eigMax, got [%g, %g]", eigMin, eigMax)
	}
	var o solver
	if _, done := o.open(p, A, b, x, opt); done {
		return o.finish()
	}
	r := o.r
	d := (eigMax + eigMin) / 2
	cc := (eigMax - eigMin) / 2
	pv := o.w.take(b)
	q := o.w.take(b)
	var alpha, beta float64
	const checkEvery = 10

	for k := 1; k <= o.opt.MaxIter; k++ {
		o.Iterations = k
		if k == 1 {
			pv.CopyFrom(r)
			o.AXPYs++
			alpha = 1 / d
		} else {
			beta = (cc * alpha / 2) * (cc * alpha / 2)
			alpha = 1 / (d - beta/alpha)
			o.aypx(pv, beta, r)
		}
		o.axpy(x, alpha, pv)
		o.apply(A, pv, q)
		o.axpy(r, -alpha, q)
		// The one norm per checkEvery iterations, and one at the last.
		if (k%checkEvery == 0 || k == o.opt.MaxIter) && o.check(math.Sqrt(o.normSq(r))/o.bn) {
			return o.finish()
		}
	}
	return o.finish()
}
