package mfree

import (
	"fmt"

	"hpfcg/internal/comm"
	"hpfcg/internal/darray"
	"hpfcg/internal/dist"
	"hpfcg/internal/grid"
	"hpfcg/internal/inspector"
)

// Operator is the matrix-free stencil executor: spmv.Operator and
// spmv.FusedOperator over a slab-decomposed regular grid, with no
// stored matrix. Each Apply runs the geometric
// halo schedule (NewHalo) and evaluates the stencil row by row (see
// sweep), reading owned values from the local block and the two
// boundary planes from the schedule's ghost buffer.
//
// Bit-identity contract: for every local row the stencil terms
// accumulate into one scalar in ascending global column order — the
// order a sorted CSR row stores its entries — with the identical
// multiply-add sequence spmv's depth-1 halo executor performs over
// Spec.Assemble() on the same brick layout. Flop charges match too
// (2·nnzLocal per Apply, +2·n for the fused dot), so matrix-free and
// assembled CG runs produce identical iterates on identical modeled
// solve clocks; only setup differs.
type Operator struct {
	p        *comm.Proc
	spec     Spec // defaulted
	brick    grid.Brick3
	d        dist.Irregular
	dd       dist.Dist // d boxed once: alignment checks allocate nothing
	halo     *inspector.Schedule
	zlo, zhi int
	n        int
	nnz      int
	nnzLocal int
	zeros    []float64 // one row of +0.0: the seed of a plain apply
}

// New builds rank p's slice of the stencil operator. Construction is
// purely local — the geometric schedule needs no collective — but New
// is called from every rank of a run like any operator constructor.
func New(p *comm.Proc, spec Spec) (*Operator, error) {
	spec = spec.WithDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	b, err := spec.Brick(p.NP())
	if err != nil {
		return nil, err
	}
	return newOperator(p, spec, b), nil
}

// New27 builds the canonical 27-point operator (Center27pt, OffDefault)
// on rank p's slab of a brick the caller already holds. It is the
// constructor of internal/mg's levels: their bricks come from
// grid.Brick3.Coarsen rather than from a user's Spec, and their z-extent
// grows with np past what Validate admits for one.
func New27(p *comm.Proc, b grid.Brick3) *Operator {
	return newOperator(p, Spec{Stencil: "27pt", Nx: b.X, Ny: b.Y, Nz: b.Z}.WithDefaults(), b)
}

func newOperator(p *comm.Proc, spec Spec, b grid.Brick3) *Operator {
	zlo, zhi := b.ZRange(p.Rank())
	d := b.VectorDist()
	a := &Operator{
		p:     p,
		spec:  spec,
		brick: b,
		d:     d,
		dd:    d,
		halo:  NewHalo(p, b),
		zlo:   zlo,
		zhi:   zhi,
		n:     spec.N(),
		nnz:   spec.NNZ(),
		zeros: make([]float64, b.X),
	}
	a.nnzLocal = localNNZ(spec.Stencil, b, zlo, zhi)
	return a
}

// localNNZ counts the stored entries of the owned rows z in [zlo, zhi)
// in the (never-assembled) global matrix: every in-grid stencil
// neighbour is one entry, whether its column is owned or ghost. Per
// z-plane the x/y face factors are constant, so one term per owned
// plane suffices.
func localNNZ(stencil string, b grid.Brick3, zlo, zhi int) int {
	nnz := 0
	for z := zlo; z < zhi; z++ {
		zf := 1
		if z > 0 {
			zf++
		}
		if z < b.Z-1 {
			zf++
		}
		if stencil == "5pt" {
			// (3X-2) x-direction entries per plane; the diagonal is
			// counted in the x factor, so z-neighbours add X·(zf-1).
			nnz += (3*b.X - 2) + b.X*(zf-1)
		} else {
			nnz += (3*b.X - 2) * (3*b.Y - 2) * zf
		}
	}
	return nnz
}

// Shape reports, from the brick alone, the per-rank maxima one Apply
// of the spec's operator incurs at np ranks: entries, the stored
// entries a rank's rows sweep (each operator charges 2·entries flops
// per Apply); owned, the points a rank holds; and ghosts, the points
// its halo fetches, one X·Y plane per z-neighbour. They equal the
// depth-1 entries of spmv.PowersStats over Spec.Assemble() distributed
// by the brick's VectorDist, and the rank counts over that distribution.
func (s Spec) Shape(np int) (entries, owned, ghosts int, err error) {
	b, err := s.Brick(np)
	if err != nil {
		return 0, 0, 0, err
	}
	plane := b.X * b.Y
	for r := 0; r < np; r++ {
		zlo, zhi := b.ZRange(r)
		g := 0
		if zlo > 0 {
			g += plane
		}
		if zhi < b.Z {
			g += plane
		}
		entries = max(entries, localNNZ(s.Stencil, b, zlo, zhi))
		owned = max(owned, (zhi-zlo)*plane)
		ghosts = max(ghosts, g)
	}
	return entries, owned, ghosts, nil
}

// N implements spmv.Operator.
func (a *Operator) N() int { return a.n }

// NNZ implements spmv.Operator: the assembled form's entry count,
// computed analytically.
func (a *Operator) NNZ() int { return a.nnz }

// LocalNNZ returns this rank's share of the (virtual) stored entries —
// the load metric the flop charges are based on.
func (a *Operator) LocalNNZ() int { return a.nnzLocal }

// NGhosts returns the remote elements each Apply fetches.
func (a *Operator) NGhosts() int { return a.halo.NGhosts() }

// Dist returns the operator's vector distribution — the brick's slab
// layout callers must align operand vectors with.
func (a *Operator) Dist() dist.Irregular { return a.d }

func (a *Operator) checkAligned(op string, x, y *darray.Vector) {
	if !dist.Same(a.dd, x.Dist()) || !dist.Same(a.dd, y.Dist()) {
		panic(fmt.Sprintf("mfree: %s operands not aligned with operator distribution %s", op, a.d.Name()))
	}
}

// Apply implements spmv.Operator: exchange the geometric halo, then
// evaluate the stencil over the owned points.
func (a *Operator) Apply(x, y *darray.Vector) {
	a.checkAligned("Apply", x, y)
	a.sweep(x.Local(), y.Local())
	a.p.Compute(2 * a.nnzLocal)
}

// ApplyDot implements spmv.FusedOperator: the halo exchange and stencil
// sweep of Apply with the local x·y partial accumulated in the same
// pass (see spmv.RowBlockCSR.ApplyDot for the bit-identity argument).
func (a *Operator) ApplyDot(x, y *darray.Vector) float64 {
	a.checkAligned("ApplyDot", x, y)
	yl := y.Local()
	dot := a.sweep(x.Local(), yl)
	a.p.Compute(2*a.nnzLocal + 2*len(yl))
	return dot
}

// sweep exchanges the halo and runs the stencil kernel over the owned
// points, returning the local x·y partial. Both kernels always carry
// the partial — one multiply-add next to a point's 5 or 27 — and Apply
// drops it; only ApplyDot is charged for it.
//
// Kernel shape (both stencils): everything that depends on where a
// point sits is decided once per row, not once per term. Per owned
// z-plane the up-to-three source planes are picked once (a ghost buffer
// at the slab edge, a slice of the local block otherwise, nothing past
// the global grid); per (z, y) row the source rows are sliced out of
// them once, each exactly X long so the compiler can drop the bounds
// checks; the x-interior 1 … X-2 of a row with all of its neighbour
// rows then runs as a straight-line chain of multiply-adds. Rows on a
// y/z face of the grid and the two x-end points of every row take the
// generic per-row loop instead.
//
// What is NOT free to change is the order of additions. Each point sums
// into one scalar that starts at +0.0, terms in ascending global column
// order (z, then y, then x — how a sorted CSR row stores them), every
// term the statement s += coef * v exactly as the CSR row loop writes
// it (so a compiler that fuses or does not fuse it treats both sides
// alike), and the x·y partial is one running scalar over the points
// in local order. Splitting a sum into partials, seeding it with its
// first product (which turns an all -0 sum into -0), or folding the
// partial per row would each still be a correct stencil and would each
// break the bit-identity contract above.
func (a *Operator) sweep(xl, yl []float64) float64 {
	low, high := a.exchange(xl)
	if a.spec.Stencil == "5pt" {
		return a.sweep5(xl, low, high, yl)
	}
	return a.sweep27(nil, xl, low, high, yl, a.spec.Center, a.spec.Off)
}

// planes returns the source planes of owned plane z in ascending z:
// the plane below (nil at the global bottom, the low ghost buffer at
// the slab's first plane), the plane itself, and the plane above (nil
// at the global top, the high ghost buffer at the slab's last plane).
// Ghost buffers and local planes share the y·X+x in-plane layout.
func (a *Operator) planes(xl, low, high []float64, z int) (below, own, above []float64) {
	n := a.brick.X * a.brick.Y
	off := (z - a.zlo) * n
	own = xl[off : off+n]
	switch {
	case z == 0:
	case z == a.zlo:
		below = low
	default:
		below = xl[off-n : off]
	}
	switch {
	case z == a.brick.Z-1:
	case z == a.zhi-1:
		above = high
	default:
		above = xl[off+n : off+2*n]
	}
	return below, own, above
}

// sweep5 evaluates the 5-point stencil over the owned planes. Brick
// coordinates map to sparse.Laplace2D's grid as z = row i, x = col j
// (Y = 1), so a plane is one grid row and each point's neighbours in
// ascending global column order are: (z-1,x), (z,x-1), self, (z,x+1),
// (z+1,x) — exactly a sorted CSR row.
func (a *Operator) sweep5(xl, low, high, yl []float64) (dot float64) {
	X, c, o := a.brick.X, a.spec.Center, a.spec.Off
	for z := a.zlo; z < a.zhi; z++ {
		up, cur, dn := a.planes(xl, low, high, z)
		yr := yl[(z-a.zlo)*X:][:X]
		dot = point5(up, cur, dn, yr, 0, c, o, dot)
		if up != nil && dn != nil {
			up, cur, dn = up[:X], cur[:X], dn[:X]
			for x := 1; x < X-1; x++ {
				s := 0.0
				s += o * up[x]
				s += o * cur[x-1]
				s += c * cur[x]
				s += o * cur[x+1]
				s += o * dn[x]
				yr[x] = s
				dot += cur[x] * s
			}
		} else {
			for x := 1; x < X-1; x++ {
				dot = point5(up, cur, dn, yr, x, c, o, dot)
			}
		}
		if X > 1 {
			dot = point5(up, cur, dn, yr, X-1, c, o, dot)
		}
	}
	return dot
}

// point5 is sweep5's generic point: any x, either z-neighbour row
// possibly absent. It stores y[x] and returns the advanced x·y partial.
func point5(up, cur, dn, yr []float64, x int, c, o, dot float64) float64 {
	s := 0.0
	if up != nil {
		s += o * up[x]
	}
	if x > 0 {
		s += o * cur[x-1]
	}
	s += c * cur[x]
	if x < len(cur)-1 {
		s += o * cur[x+1]
	}
	if dn != nil {
		s += o * dn[x]
	}
	yr[x] = s
	return dot + cur[x]*s
}

// sweep27 evaluates the 27-point stencil. Source rows are gathered in
// ascending (z, y) and each contributes its x-1, x, x+1 in that order,
// which is ascending global index order under Brick3's numbering (x
// fastest, z slowest) — the sorted order the assembled CSR row stores.
//
// seed is what each point's sum starts from: nil for an apply (+0.0),
// the right-hand side for Residual, which passes the negated
// coefficients. s += (-coef)·v is the CSR residual loop's s -= coef·v
// to the bit — IEEE subtraction is addition of the negation, and
// negating a factor negates the rounded product — whereas r - (A·x)
// would round differently.
func (a *Operator) sweep27(seed, xl, low, high, yl []float64, c, o float64) (dot float64) {
	X, Y := a.brick.X, a.brick.Y
	var rows [9][]float64
	var mid [9]float64
	for z := a.zlo; z < a.zhi; z++ {
		below, own, above := a.planes(xl, low, high, z)
		off := (z - a.zlo) * X * Y
		for y := 0; y < Y; y++ {
			k := rows27(&rows, &mid, below, own, above, y, X, Y, c, o)
			sr, xr, yr := a.zeros, own[y*X:][:X], yl[off+y*X:][:X]
			if seed != nil {
				sr = seed[off+y*X:][:X]
			}
			if k < 9 || X < 3 {
				dot = span27(rows[:k], mid[:k], o, sr, xr, yr, 0, X, dot)
				continue
			}
			dot = span27(rows[:], mid[:], o, sr, xr, yr, 0, 1, dot)
			dot = interior27(&rows, c, o, sr, yr, dot)
			dot = span27(rows[:], mid[:], o, sr, xr, yr, X-1, X, dot)
		}
	}
	return dot
}

// rows27 slices the in-grid source rows of row y out of the three
// source planes, in ascending (z, y), and sets for each the coefficient
// of its middle term: c in the row itself, o everywhere else. It returns
// how many there are; with all nine, rows[4] is the row itself.
func rows27(rows *[9][]float64, mid *[9]float64, below, own, above []float64, y, X, Y int, c, o float64) int {
	k := 0
	for dz, pl := range [3][]float64{below, own, above} {
		if pl == nil {
			continue
		}
		for yy := max(y-1, 0); yy <= min(y+1, Y-1); yy++ {
			rows[k] = pl[yy*X:][:X]
			mid[k] = o
			if dz == 1 && yy == y {
				mid[k] = c
			}
			k++
		}
	}
	return k
}

// span27 is sweep27's generic path: points [x0, x1) of one row over
// whichever source rows exist, with the x-1 / x+1 terms dropped at the
// row ends. sr is the seed row, xr the row of x itself (the operand of
// the fused dot).
func span27(rows [][]float64, mid []float64, o float64, sr, xr, yr []float64, x0, x1 int, dot float64) float64 {
	for x := x0; x < x1; x++ {
		left, right := x > 0, x < len(yr)-1
		s := sr[x]
		for j, r := range rows {
			if left {
				s += o * r[x-1]
			}
			s += mid[j] * r[x]
			if right {
				s += o * r[x+1]
			}
		}
		yr[x] = s
		dot += xr[x] * s
	}
	return dot
}

// interior27 is sweep27's fast path: points 1 … X-2 of a row whose nine
// source rows all exist (r[4] is the row itself), 27 terms straight
// down with no branch between them.
func interior27(r *[9][]float64, c, o float64, sr, yr []float64, dot float64) float64 {
	X := len(yr)
	sr = sr[:X]
	r0, r1, r2 := r[0][:X], r[1][:X], r[2][:X]
	r3, r4, r5 := r[3][:X], r[4][:X], r[5][:X]
	r6, r7, r8 := r[6][:X], r[7][:X], r[8][:X]
	for x := 1; x < X-1; x++ {
		s := sr[x]
		s += o * r0[x-1]
		s += o * r0[x]
		s += o * r0[x+1]
		s += o * r1[x-1]
		s += o * r1[x]
		s += o * r1[x+1]
		s += o * r2[x-1]
		s += o * r2[x]
		s += o * r2[x+1]
		s += o * r3[x-1]
		s += o * r3[x]
		s += o * r3[x+1]
		s += o * r4[x-1]
		s += c * r4[x]
		s += o * r4[x+1]
		s += o * r5[x-1]
		s += o * r5[x]
		s += o * r5[x+1]
		s += o * r6[x-1]
		s += o * r6[x]
		s += o * r6[x+1]
		s += o * r7[x-1]
		s += o * r7[x]
		s += o * r7[x+1]
		s += o * r8[x-1]
		s += o * r8[x]
		s += o * r8[x+1]
		yr[x] = s
		dot += r4[x] * s
	}
	return dot
}
