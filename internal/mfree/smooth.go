package mfree

// The kernels internal/mg's V-cycle needs beside the apply, on the
// 27-point stencil only (nothing smooths a 5-point operator). They take
// and return the rank's local blocks, as the V-cycle's level scratch is
// plain slices. All are bit-identical to the assembled level's CSR
// loops — s = r[i], then s -= coef·v over the row's entries in ascending
// column order, the diagonal included — and carry the same flop charges.

// Residual computes res = r - A·x on the owned points: one halo exchange
// of x, then the apply sweep seeded with r (see sweep27).
func (a *Operator) Residual(r, x, res []float64) {
	a.need27("Residual")
	low, high := a.exchange(x)
	a.sweep27(r, x, low, high, res, -a.spec.Center, -a.spec.Off)
	a.p.Compute(2*a.nnzLocal + len(res))
}

// SymGS runs one symmetric Gauss-Seidel sweep on A·x = r in place: ONE
// halo exchange, then a forward pass over the owned points in ascending
// order and a backward pass in descending order, the ghost planes frozen
// throughout — Gauss-Seidel within the rank, block-Jacobi across ranks,
// the HPCG smoother. Each point does s = r[i]; s -= coef·v for all its
// in-grid terms in ascending column order, whatever the pass direction
// and including its own; then s += c·x[i]; x[i] = s/c. The source rows
// are slices of x itself, so a point reads its already-swept neighbours
// updated and the others old exactly as the CSR loop over x does; only
// the x-1 (forward) or x+1 (backward) term is carried from the point
// before.
func (a *Operator) SymGS(r, x []float64) {
	a.need27("SymGS")
	low, high := a.exchange(x)
	a.symGS(r, x, low, high)
}

// SymGSFromZero is SymGS from x = 0, the first pre-smoothing sweep of a
// V-cycle level: it sets x to +0.0 (one flop per point, the zeroing's
// charge) and sweeps with ghost planes of +0.0 — exactly what an
// exchange of the neighbours' zeroed x would bring — so no message
// moves, and x and the flop charges are SymGS's bit for bit. The planes
// are the halo schedule's own ghost buffer, zeroed in place.
func (a *Operator) SymGSFromZero(r, x []float64) {
	a.need27("SymGSFromZero")
	clear(x)
	a.p.Compute(len(x))
	low, high := a.ghostPlanes(a.halo.ZeroGhosts())
	a.symGS(r, x, low, high)
}

// symGS is the sweep body of SymGS and SymGSFromZero over the ghost
// planes low and high.
func (a *Operator) symGS(r, x, low, high []float64) {
	Y := a.brick.Y
	for z := a.zlo; z < a.zhi; z++ {
		for y := 0; y < Y; {
			y += a.gsRows(r, x, low, high, z, y, 1)
		}
	}
	for z := a.zhi - 1; z >= a.zlo; z-- {
		for y := Y - 1; y >= 0; {
			y -= a.gsRows(r, x, low, high, z, y, -1)
		}
	}
	a.p.Compute(4*a.nnzLocal + 6*len(x))
}

func (a *Operator) need27(op string) {
	if a.spec.Stencil != "27pt" {
		panic("mfree: " + op + " is defined on the 27pt stencil only")
	}
}

// gsRows relaxes row (z, y) in the direction of step (+1: ascending x,
// next row y+1; -1: descending x, next row y-1) and, where it can, the
// next row with it; it returns how many rows it did. Row-sliced like
// sweep27: the straight-line kernels on the x-interior of rows with all
// nine source rows, gsSpan elsewhere.
//
// One row alone is latency-bound: with the order of subtractions fixed,
// a point waits for the point before it through the 15 terms from x∓1
// on, the add and the divide. So a row A whose next row B also has nine
// source rows is swept together with it, B trailing A by two points.
// Every point still reads exactly what it reads in lexicographic order —
// B(x) needs A up to x+1 done, A(x) needs B from x-1 on untouched — so
// the bits do not change, and the core has two independent chains.
func (a *Operator) gsRows(rl, xl, low, high []float64, z, y, step int) int {
	X, Y := a.brick.X, a.brick.Y
	c, o := a.spec.Center, a.spec.Off
	below, own, above := a.planes(xl, low, high, z)
	var ra, rb [9][]float64
	var mid [9]float64
	k := rows27(&ra, &mid, below, own, above, y, X, Y, c, o)
	rhs := rl[(z-a.zlo)*X*Y:][:X*Y]
	rra, xa := rhs[y*X:][:X], own[y*X:][:X]
	first, last := 0, X-1
	if step < 0 {
		first, last = last, first
	}
	if k < 9 || X < 3 {
		gsSpan(ra[:k], mid[:k], c, o, rra, xa, first, last+step, step)
		return 1
	}
	yb := y + step
	if X < 5 || yb < 1 || yb > Y-2 {
		gsSpan(ra[:], mid[:], c, o, rra, xa, first, first+step, step)
		gsInterior(&ra, c, o, rra, first+step, last, step)
		gsSpan(ra[:], mid[:], c, o, rra, xa, last, last+step, step)
		return 1
	}
	rows27(&rb, &mid, below, own, above, yb, X, Y, c, o)
	rrb, xb := rhs[yb*X:][:X], own[yb*X:][:X]
	gsSpan(ra[:], mid[:], c, o, rra, xa, first, first+step, step)
	gsInterior(&ra, c, o, rra, first+step, first+3*step, step)
	gsSpan(rb[:], mid[:], c, o, rrb, xb, first, first+step, step)
	gsPair(&ra, &rb, c, o, rra, rrb, first+3*step, last, step)
	gsSpan(ra[:], mid[:], c, o, rra, xa, last, last+step, step)
	gsInterior(&rb, c, o, rrb, last-2*step, last, step)
	gsSpan(rb[:], mid[:], c, o, rrb, xb, last, last+step, step)
	return 2
}

// gsSpan is the generic relaxation: points x0, x0+step, … up to but not
// including x1, over whichever source rows exist, the x-1 / x+1 terms
// dropped at the row ends. xr is the row being relaxed (one of rows).
func gsSpan(rows [][]float64, mid []float64, c, o float64, rr, xr []float64, x0, x1, step int) {
	for x := x0; x != x1; x += step {
		left, right := x > 0, x < len(xr)-1
		s := rr[x]
		for j, r := range rows {
			if left {
				s -= o * r[x-1]
			}
			s -= mid[j] * r[x]
			if right {
				s -= o * r[x+1]
			}
		}
		s += c * xr[x]
		xr[x] = s / c
	}
}

// gsInterior is the fast path: interior points x0, x0+step, … short of
// x1 of a row whose nine source rows all exist; r[4] is the row being
// relaxed.
func gsInterior(r *[9][]float64, c, o float64, rr []float64, x0, x1, step int) {
	X := len(rr)
	r0, r1, r2 := r[0][:X], r[1][:X], r[2][:X]
	r3, r4, r5 := r[3][:X], r[4][:X], r[5][:X]
	r6, r7, r8 := r[6][:X], r[7][:X], r[8][:X]
	for x := x0; x != x1; x += step {
		s := rr[x]
		s -= o * r0[x-1]
		s -= o * r0[x]
		s -= o * r0[x+1]
		s -= o * r1[x-1]
		s -= o * r1[x]
		s -= o * r1[x+1]
		s -= o * r2[x-1]
		s -= o * r2[x]
		s -= o * r2[x+1]
		s -= o * r3[x-1]
		s -= o * r3[x]
		s -= o * r3[x+1]
		s -= o * r4[x-1]
		s -= c * r4[x]
		s -= o * r4[x+1]
		s -= o * r5[x-1]
		s -= o * r5[x]
		s -= o * r5[x+1]
		s -= o * r6[x-1]
		s -= o * r6[x]
		s -= o * r6[x+1]
		s -= o * r7[x-1]
		s -= o * r7[x]
		s -= o * r7[x+1]
		s -= o * r8[x-1]
		s -= o * r8[x]
		s -= o * r8[x+1]
		s += c * r4[x]
		r4[x] = s / c
	}
}

// gsPair is the fast path over two rows: A's interior points x0,
// x0+step, … short of x1, each followed by B's point two behind it.
// ra and rb are the rows' nine source rows (ra[4] is A, rb[4] is B; six
// of them are shared). Within one trip the two points touch disjoint
// elements of A and B, so neither chain waits for the other.
func gsPair(ra, rb *[9][]float64, c, o float64, rra, rrb []float64, x0, x1, step int) {
	X := len(rra)
	rrb = rrb[:X]
	a0, a1, a2 := ra[0][:X], ra[1][:X], ra[2][:X]
	a3, a4, a5 := ra[3][:X], ra[4][:X], ra[5][:X]
	a6, a7, a8 := ra[6][:X], ra[7][:X], ra[8][:X]
	b0, b1, b2 := rb[0][:X], rb[1][:X], rb[2][:X]
	b3, b4, b5 := rb[3][:X], rb[4][:X], rb[5][:X]
	b6, b7, b8 := rb[6][:X], rb[7][:X], rb[8][:X]
	for x := x0; x != x1; x += step {
		w := x - 2*step
		s, t := rra[x], rrb[w]
		s -= o * a0[x-1]
		t -= o * b0[w-1]
		s -= o * a0[x]
		t -= o * b0[w]
		s -= o * a0[x+1]
		t -= o * b0[w+1]
		s -= o * a1[x-1]
		t -= o * b1[w-1]
		s -= o * a1[x]
		t -= o * b1[w]
		s -= o * a1[x+1]
		t -= o * b1[w+1]
		s -= o * a2[x-1]
		t -= o * b2[w-1]
		s -= o * a2[x]
		t -= o * b2[w]
		s -= o * a2[x+1]
		t -= o * b2[w+1]
		s -= o * a3[x-1]
		t -= o * b3[w-1]
		s -= o * a3[x]
		t -= o * b3[w]
		s -= o * a3[x+1]
		t -= o * b3[w+1]
		s -= o * a4[x-1]
		t -= o * b4[w-1]
		s -= c * a4[x]
		t -= c * b4[w]
		s -= o * a4[x+1]
		t -= o * b4[w+1]
		s -= o * a5[x-1]
		t -= o * b5[w-1]
		s -= o * a5[x]
		t -= o * b5[w]
		s -= o * a5[x+1]
		t -= o * b5[w+1]
		s -= o * a6[x-1]
		t -= o * b6[w-1]
		s -= o * a6[x]
		t -= o * b6[w]
		s -= o * a6[x+1]
		t -= o * b6[w+1]
		s -= o * a7[x-1]
		t -= o * b7[w-1]
		s -= o * a7[x]
		t -= o * b7[w]
		s -= o * a7[x+1]
		t -= o * b7[w+1]
		s -= o * a8[x-1]
		t -= o * b8[w-1]
		s -= o * a8[x]
		t -= o * b8[w]
		s -= o * a8[x+1]
		t -= o * b8[w+1]
		s += c * a4[x]
		t += c * b4[w]
		a4[x] = s / c
		b4[w] = t / c
	}
}
