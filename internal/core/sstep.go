// The s-step (communication-avoiding) conjugate gradient. CG merges
// twice per iteration and CGPipelined once; the latency term of the
// paper's §4 cost model still charges a round every iteration. The
// s-step reformulation (Chronopoulos/Gear; the basis treatment follows
// Demmel/Hoemmen/Mohiyuddin and the CA-Krylov literature cited in
// PAPERS.md) runs s iterations per ONE round: a matrix-powers kernel
// produces the monomial basis block
//
//	B = [p, Ap, …, Aˢp, r, Ar, …, Aˢ⁻¹r]   (m = 2s+1 columns)
//
// with a single widened ghost exchange (spmv.PowersOperator), one
// batched allreduce merges the Gram matrix G = BᵀB, and the s
// iterations then run entirely on length-m coefficient vectors: every
// inner product CG would merge is the quadratic form aᵀGb of merged
// data, and multiplying by A is the exact shift of basis coefficients
// (degree induction keeps all shifts inside the block, so no top-power
// coefficient is ever lost). At block end the iterates are recovered by
// local gemvs x += B·xc, r = B·rc, p = B·pc.
//
// The monomial basis is numerically the worst choice (its conditioning
// grows like the s-th power of A's spectral radius) but the simplest,
// so stability is guarded rather than assumed: G[r,r] is the exact
// merged ‖r‖² of the block's seed residual, so every block start compares it against the rho the
// coefficient recurrence carried over — for free, inside the Gram
// round. If they disagree beyond driftTol, or an inner step produces a
// non-SPD-shaped scalar (p·Ap ≤ 0, ‖r‖² < 0, NaN), the solver performs
// one explicit residual replacement (r = b − A·x) and permanently falls
// back to plain CG from the current x — which on an SPD system always
// converges, so the guard can degrade performance but never the answer.
package core

import (
	"math"

	"hpfcg/internal/comm"
	"hpfcg/internal/darray"
	"hpfcg/internal/spmv"
)

// driftTol bounds the relative disagreement between the recurrence rho
// and the exact merged ‖r‖² the Gram round delivers before the
// stability guard abandons s-stepping. The scaled basis keeps healthy
// blocks a decade or more below this (~2e-4 at s=8 on the banded
// suite); genuinely degrading solves shoot past it.
const driftTol = 1e-3

// CGSStep solves A·x = b with s-step CG: one batched Gram allreduce —
// and, when A implements spmv.PowersOperator, one widened ghost
// exchange — per s iterations. s <= 1 delegates to CG (bit-identical
// by construction); s > 1 changes the floating-point trajectory like
// CGPipelined does, converges to the same tolerance, and typically spends
// a few extra iterations per guard event (experiment E23 maps the
// frontier). Any Operator works: without the powers contract the basis
// falls back to 2s-1 plain applies, still merging one round per s
// iterations.
func CGSStep(p *comm.Proc, A spmv.Operator, b, x *darray.Vector, opt Options, s int) (Stats, error) {
	if s <= 1 {
		return CG(p, A, b, x, opt)
	}
	var o solver
	rho, done := o.open(p, A, b, x, opt)
	if done {
		return o.finish()
	}
	r, w := o.r, o.w
	pv := w.copyOf(r)

	// Basis storage: V_j = A^j·p lives in bl[j] (V_0 = p itself), W_j =
	// A^j·r in bl[s+1+j] (W_0 = r itself). All taken from the workspace
	// once; the block loop allocates nothing.
	m := 2*s + 1
	AP := make([]*darray.Vector, s)
	AR := make([]*darray.Vector, s-1)
	for j := range AP {
		AP[j] = w.take(b)
	}
	for j := range AR {
		AR[j] = w.take(b)
	}
	scratchR := w.take(b)
	scratchP := w.take(b)
	seeds := []*darray.Vector{pv, r}
	outs := [][]*darray.Vector{AP, AR}
	bl := make([][]float64, m)
	bl[0] = pv.Local()
	for j := 0; j < s; j++ {
		bl[1+j] = AP[j].Local()
	}
	bl[s+1] = r.Local()
	for j := 0; j < s-1; j++ {
		bl[s+2+j] = AR[j].Local()
	}
	nloc := len(bl[0])

	pow, _ := A.(spmv.PowersOperator)
	usePowers := pow != nil && pow.MaxDepth() >= s

	// The packed upper triangle of G and a full m×m index into it. The
	// inner loop actually runs on the diagonally scaled Ĝ = DGD with
	// D = diag(1/√G[i,i]) — column-scaling the monomial basis to unit
	// norms. The scaling is applied to merged data, so it costs no
	// communication and is identical on every rank; it is what keeps
	// s = 8 usable (unscaled, the quadratic forms mix magnitudes
	// spanning ‖A‖^(2s) and cancel to noise within a block or two).
	nG := m * (m + 1) / 2
	g := make([]float64, nG)
	gs := make([]float64, nG)
	dscale := make([]float64, m)
	gIdx := make([][]int, m)
	for i := range gIdx {
		gIdx[i] = make([]int, m)
	}
	for i, idx := 0, 0; i < m; i++ {
		for j := i; j < m; j++ {
			gIdx[i][j] = idx
			gIdx[j][i] = idx
			idx++
		}
	}
	// quad evaluates aᵀĜb from the merged, scaled triangle — the s-step
	// stand-in for an allreduced inner product (quadratic forms are
	// invariant under the basis scaling, so the values keep their
	// unscaled meaning).
	quad := func(a, c []float64) float64 {
		t := 0.0
		for i := 0; i < m; i++ {
			if a[i] == 0 {
				continue
			}
			row := gIdx[i]
			ti := 0.0
			for j := 0; j < m; j++ {
				ti += gs[row[j]] * c[j]
			}
			t += a[i] * ti
		}
		o.p.Compute(2 * m * m)
		return t
	}

	// Coefficient vectors (length m) and the previous-step snapshots the
	// anomaly rollback restores.
	xc := make([]float64, m)
	rc := make([]float64, m)
	pc := make([]float64, m)
	qc := make([]float64, m)
	xcP := make([]float64, m)
	rcP := make([]float64, m)
	pcP := make([]float64, m)

	// recover computes dst = B·(D·c) (or += when add), the local gemv
	// that materialises a scaled-space coefficient vector against the
	// unscaled stored basis.
	recover := func(c, dst []float64, add bool) {
		if !add {
			for i := range dst {
				dst[i] = 0
			}
		}
		for k := 0; k < m; k++ {
			ck := c[k] * dscale[k]
			if ck == 0 {
				continue
			}
			col := bl[k]
			for i := range dst {
				dst[i] += ck * col[i]
			}
		}
		o.p.Compute(2 * m * nloc)
	}

	// The drift comparison catches inconsistent arithmetic; these two
	// catch the consistent-but-wrong regime (a degraded basis can carry
	// a recurrence that agrees with its own Gram while the true residual
	// goes nowhere): no new best ‖r‖² for stagBlocks whole blocks, or a
	// blow-up far past the best, both abandon s-stepping.
	const stagBlocks = 8
	const growthTol = 1e4
	bestRho := rho
	sinceBest := 0

	fallback := false
	for o.Iterations < o.opt.MaxIter && !fallback {
		// One widened exchange brings both chains' halos; one batched
		// round merges the whole Gram triangle.
		if usePowers {
			pow.ApplyPowersBlock(seeds, outs)
			o.MatVecs += 2*s - 1
		} else {
			cur := pv
			for j := 0; j < s; j++ {
				o.apply(A, cur, AP[j])
				cur = AP[j]
			}
			cur = r
			for j := 0; j < s-1; j++ {
				o.apply(A, cur, AR[j])
				cur = AR[j]
			}
		}
		for i, idx := 0, 0; i < m; i++ {
			for j := i; j < m; j++ {
				bi, bj := bl[i], bl[j]
				t := 0.0
				for k := range bi {
					t += bi[k] * bj[k]
				}
				g[idx] = t
				idx++
			}
		}
		o.DotProducts += nG
		o.p.Compute(2 * nloc * nG)
		o.merge(g)

		// The free stability check: G[W0,W0] is the exact merged ‖r‖²;
		// rho is what the previous block's recurrence predicted for it.
		grr := g[gIdx[s+1][s+1]]
		if !(grr > 0) || math.Abs(grr-rho) > driftTol*grr {
			fallback = true
			break
		}
		rho = grr

		// Column-scale: D = diag(1/√G[i,i]), Ĝ = DGD. Merged data only,
		// so every rank computes the same scaling with no extra round.
		for i := 0; i < m; i++ {
			if gii := g[gIdx[i][i]]; gii > 0 {
				dscale[i] = 1 / math.Sqrt(gii)
			} else {
				dscale[i] = 1
			}
		}
		for i, idx := 0, 0; i < m; i++ {
			for j := i; j < m; j++ {
				gs[idx] = g[idx] * dscale[i] * dscale[j]
				idx++
			}
		}
		o.p.Compute(3 * nG)

		// Coefficients live in scaled space: v = B·(D·c), so the seeds
		// p = B·e_V0 and r = B·e_W0 start at 1/d.
		for i := range xc {
			xc[i], rc[i], pc[i] = 0, 0, 0
		}
		pc[0] = 1 / dscale[0]
		rc[s+1] = 1 / dscale[s+1]

		claimed := false
		rhoPrev := rho
		for i := 0; i < s && o.Iterations < o.opt.MaxIter; i++ {
			copy(xcP, xc)
			copy(rcP, rc)
			copy(pcP, pc)
			rhoPrev = rho
			o.Iterations++
			// q = A·p is the coefficient shift V_j→V_{j+1}, W_j→W_{j+1}
			// (with the scaling ratio d_j/d_{j+1}, since A·B̂_j =
			// (d_j/d_{j+1})·B̂_{j+1}); the degree induction (deg_V(p) ≤ i,
			// deg_W(p) ≤ i-1 entering step i+1) keeps it inside B.
			for j := range qc {
				qc[j] = 0
			}
			for j := 0; j < s; j++ {
				qc[j+1] = pc[j] * dscale[j] / dscale[j+1]
			}
			for j := 0; j < s-1; j++ {
				qc[s+2+j] = pc[s+1+j] * dscale[s+1+j] / dscale[s+2+j]
			}
			pq := quad(pc, qc)
			o.DotProducts++
			if math.IsNaN(pq) || pq <= 0 {
				o.Iterations--
				copy(xc, xcP)
				copy(rc, rcP)
				copy(pc, pcP)
				rho = rhoPrev
				fallback = true
				break
			}
			alpha := rho / pq
			for j := range xc {
				xc[j] += alpha * pc[j]
				rc[j] -= alpha * qc[j]
			}
			o.p.Compute(4 * m)
			o.AXPYs += 2
			rhoNew := quad(rc, rc)
			o.DotProducts++
			if math.IsNaN(rhoNew) || rhoNew < 0 {
				o.Iterations--
				copy(xc, xcP)
				copy(rc, rcP)
				copy(pc, pcP)
				rho = rhoPrev
				fallback = true
				break
			}
			rho0 := rho
			rho = rhoNew
			if o.check(math.Sqrt(rhoNew) / o.bn) {
				claimed = true
				break
			}
			beta := rho / rho0
			for j := range pc {
				pc[j] = rc[j] + beta*pc[j]
			}
			o.p.Compute(2 * m)
			o.AXPYs++
		}

		// Recover the iterates: x += B·xc, and r/p through scratch (they
		// are themselves basis columns W0/V0).
		recover(xc, x.Local(), true)
		recover(rc, scratchR.Local(), false)
		recover(pc, scratchP.Local(), false)
		copy(r.Local(), scratchR.Local())
		copy(pv.Local(), scratchP.Local())
		o.AXPYs += 3

		if claimed {
			// The recurrence says converged: confirm with an explicit
			// merged norm, like CGPipelined (one extra round, paid only
			// near the end). Unconfirmed claims are drift — guard trips.
			if o.stop(math.Sqrt(o.normSq(r)) / o.bn) {
				return o.finish()
			}
			fallback = true
		}

		if rho < bestRho {
			bestRho = rho
			sinceBest = 0
		} else {
			sinceBest++
			if sinceBest >= stagBlocks || rho > growthTol*bestRho {
				fallback = true
			}
		}
	}

	if !fallback {
		// MaxIter exhausted; the last check measured the final rho.
		return o.finish()
	}
	// The guard tripped: the plain recurrence from the current x. On an
	// SPD system this always converges — the fallback can cost
	// iterations, never the answer.
	c := cg{A: A, b: b, x: x, r: r, z: r, p: pv, q: scratchR}
	return c.resume(&o)
}
