// The assembled level — what internal/mg ran on before its levels went
// matrix-free — kept as the comparator every kernel, transfer and whole
// solve of the matrix-free hierarchy is held to, bit for bit and on the
// modeled clock: the local rows of the 27-point stencil in CSR form with
// a signed ghost encoding (column >= 0 is a local offset, column < 0 is
// ghost slot -(c+1)), one inspector halo schedule for the smoother and
// mat-vec, and the injection restriction and its transpose prolongation
// as inspector gather schedules over the neighbouring level's
// distribution.
package mg

import (
	"fmt"
	"math"
	"testing"

	"hpfcg/internal/comm"
	"hpfcg/internal/core"
	"hpfcg/internal/darray"
	"hpfcg/internal/direct"
	"hpfcg/internal/dist"
	"hpfcg/internal/grid"
	"hpfcg/internal/inspector"
	"hpfcg/internal/spmv"
)

// asmLevel is one assembled grid of the hierarchy as rank r sees it.
type asmLevel struct {
	b  grid.Brick3
	d  dist.Irregular
	lo int // first owned global point
	n  int // owned point count

	rowPtr []int
	col    []int // >= 0: local offset; < 0: ghost slot -(c+1)
	val    []float64
	diag   []float64
	sched  *inspector.Schedule

	nnzLocal int

	r, x, res []float64

	restrictSrc   []int
	restrictSched *inspector.Schedule
	prolongFine   []int
	prolongSrc    []int
	prolongSched  *inspector.Schedule
}

// newAsmLevel builds rank p's piece of the 27-point stencil on brick b.
// Collective: every rank must call it with the same brick.
func newAsmLevel(p *comm.Proc, b grid.Brick3) *asmLevel {
	r := p.Rank()
	d := b.VectorDist()
	lv := &asmLevel{b: b, d: d, lo: d.Lo(r), n: d.Count(r)}
	zlo, zhi := b.ZRange(r)
	lv.rowPtr = make([]int, lv.n+1)
	lv.col = make([]int, 0, lv.n*27)
	lv.val = make([]float64, 0, lv.n*27)
	lv.diag = make([]float64, lv.n)
	lv.r = make([]float64, lv.n)
	lv.x = make([]float64, lv.n)
	lv.res = make([]float64, lv.n)

	// Rows in local order (z, y, x ascending = global index ascending),
	// columns within a row in ascending global order. First with global
	// column indices; remapped to the local/ghost encoding once the
	// inspector has assigned ghost slots.
	i := 0
	for z := zlo; z < zhi; z++ {
		for y := 0; y < b.Y; y++ {
			for x := 0; x < b.X; x++ {
				self := b.Index(x, y, z)
				for dz := -1; dz <= 1; dz++ {
					zz := z + dz
					if zz < 0 || zz >= b.Z {
						continue
					}
					for dy := -1; dy <= 1; dy++ {
						yy := y + dy
						if yy < 0 || yy >= b.Y {
							continue
						}
						for dx := -1; dx <= 1; dx++ {
							xx := x + dx
							if xx < 0 || xx >= b.X {
								continue
							}
							g := b.Index(xx, yy, zz)
							lv.col = append(lv.col, g)
							if g == self {
								lv.val = append(lv.val, 26)
								lv.diag[i] = 26
							} else {
								lv.val = append(lv.val, -1)
							}
						}
					}
				}
				i++
				lv.rowPtr[i] = len(lv.col)
			}
		}
	}
	lv.nnzLocal = len(lv.col)
	lv.sched = inspector.Build(p, d, lv.col)
	for k, g := range lv.col {
		if owner, off := d.Local(g); owner == r {
			lv.col[k] = off
		} else {
			lv.col[k] = -(lv.sched.GhostSlot(g) + 1)
		}
	}
	return lv
}

// buildTransfer wires this (coarse) level to its next-finer level f:
// the injection restriction gather and the transpose prolongation
// scatter. Collective.
func (lv *asmLevel) buildTransfer(p *comm.Proc, f *asmLevel) {
	r := p.Rank()

	// Restriction: coarse point (x,y,z) reads fine point (2x,2y,2z).
	fineG := make([]int, lv.n)
	for i := range fineG {
		x, y, z := lv.b.Coords(lv.lo + i)
		fineG[i] = f.b.Index(2*x, 2*y, 2*z)
	}
	lv.restrictSched = inspector.Build(p, f.d, fineG)
	lv.restrictSrc = fineG
	for i, g := range fineG {
		if owner, off := f.d.Local(g); owner == r {
			lv.restrictSrc[i] = off
		} else {
			lv.restrictSrc[i] = -(lv.restrictSched.GhostSlot(g) + 1)
		}
	}

	// Prolongation: every fine point with all-even coordinates adds
	// the value of its coarse image.
	var fine, needs []int
	for off := 0; off < f.n; off++ {
		x, y, z := f.b.Coords(f.lo + off)
		if x%2 == 0 && y%2 == 0 && z%2 == 0 {
			fine = append(fine, off)
			needs = append(needs, lv.b.Index(x/2, y/2, z/2))
		}
	}
	lv.prolongSched = inspector.Build(p, lv.d, needs)
	lv.prolongFine = fine
	lv.prolongSrc = needs
	for i, g := range needs {
		if owner, off := lv.d.Local(g); owner == r {
			lv.prolongSrc[i] = off
		} else {
			lv.prolongSrc[i] = -(lv.prolongSched.GhostSlot(g) + 1)
		}
	}
}

// rebind re-attaches the level's schedules to a fresh Proc of the
// same rank — the warm path of plan caching.
func (lv *asmLevel) rebind(p *comm.Proc) {
	lv.sched.Rebind(p)
	if lv.restrictSched != nil {
		lv.restrictSched.Rebind(p)
	}
	if lv.prolongSched != nil {
		lv.prolongSched.Rebind(p)
	}
}

// symgs runs one symmetric Gauss-Seidel sweep on A·x = r: ONE halo
// exchange, then a forward and a backward pass with the ghost values
// frozen — Gauss-Seidel within the rank, block-Jacobi across ranks,
// the HPCG smoother. Sequential per rank with a fixed sweep order, so
// the result is bit-deterministic.
func (lv *asmLevel) symgs(p *comm.Proc, rl, xl []float64) {
	ghosts := lv.sched.Exchange(xl)
	for i := 0; i < lv.n; i++ {
		s := rl[i]
		for k := lv.rowPtr[i]; k < lv.rowPtr[i+1]; k++ {
			if c := lv.col[k]; c >= 0 {
				s -= lv.val[k] * xl[c]
			} else {
				s -= lv.val[k] * ghosts[-c-1]
			}
		}
		s += lv.diag[i] * xl[i]
		xl[i] = s / lv.diag[i]
	}
	for i := lv.n - 1; i >= 0; i-- {
		s := rl[i]
		for k := lv.rowPtr[i]; k < lv.rowPtr[i+1]; k++ {
			if c := lv.col[k]; c >= 0 {
				s -= lv.val[k] * xl[c]
			} else {
				s -= lv.val[k] * ghosts[-c-1]
			}
		}
		s += lv.diag[i] * xl[i]
		xl[i] = s / lv.diag[i]
	}
	p.Compute(4*lv.nnzLocal + 6*lv.n)
}

// matvec computes y = A·x on the local rows.
func (lv *asmLevel) matvec(p *comm.Proc, xl, yl []float64) {
	ghosts := lv.sched.Exchange(xl)
	for i := 0; i < lv.n; i++ {
		var s float64
		for k := lv.rowPtr[i]; k < lv.rowPtr[i+1]; k++ {
			if c := lv.col[k]; c >= 0 {
				s += lv.val[k] * xl[c]
			} else {
				s += lv.val[k] * ghosts[-c-1]
			}
		}
		yl[i] = s
	}
	p.Compute(2 * lv.nnzLocal)
}

// matvecDot is matvec fused with the local partial of x·(A·x), the
// form CG's fused iteration consumes.
func (lv *asmLevel) matvecDot(p *comm.Proc, xl, yl []float64) float64 {
	ghosts := lv.sched.Exchange(xl)
	var dot float64
	for i := 0; i < lv.n; i++ {
		var s float64
		for k := lv.rowPtr[i]; k < lv.rowPtr[i+1]; k++ {
			if c := lv.col[k]; c >= 0 {
				s += lv.val[k] * xl[c]
			} else {
				s += lv.val[k] * ghosts[-c-1]
			}
		}
		yl[i] = s
		dot += xl[i] * s
	}
	p.Compute(2*lv.nnzLocal + 2*lv.n)
	return dot
}

// residual computes res = r - A·x.
func (lv *asmLevel) residual(p *comm.Proc, rl, xl, resl []float64) {
	ghosts := lv.sched.Exchange(xl)
	for i := 0; i < lv.n; i++ {
		s := rl[i]
		for k := lv.rowPtr[i]; k < lv.rowPtr[i+1]; k++ {
			if c := lv.col[k]; c >= 0 {
				s -= lv.val[k] * xl[c]
			} else {
				s -= lv.val[k] * ghosts[-c-1]
			}
		}
		resl[i] = s
	}
	p.Compute(2*lv.nnzLocal + lv.n)
}

// restrictFrom injects the fine residual into this level's right-hand
// side scratch: r_c(i) = res_f(2x, 2y, 2z).
func (lv *asmLevel) restrictFrom(p *comm.Proc, fineRes []float64) {
	ghosts := lv.restrictSched.Exchange(fineRes)
	for i, c := range lv.restrictSrc {
		if c >= 0 {
			lv.r[i] = fineRes[c]
		} else {
			lv.r[i] = ghosts[-c-1]
		}
	}
	p.Compute(lv.n)
}

// prolongInto adds this level's correction back to the fine vector at
// the all-even-coordinate points (the transpose of injection).
func (lv *asmLevel) prolongInto(p *comm.Proc, fineX []float64) {
	ghosts := lv.prolongSched.Exchange(lv.x)
	for i, off := range lv.prolongFine {
		if c := lv.prolongSrc[i]; c >= 0 {
			fineX[off] += lv.x[c]
		} else {
			fineX[off] += ghosts[-c-1]
		}
	}
	p.Compute(len(lv.prolongFine))
}

// asmProblem is the assembled hierarchy: NewProblem, vcycle and the two
// solver faces as they were over asmLevel, modeled charges included.
type asmProblem struct {
	p       *comm.Proc
	levels  []*asmLevel
	smooths int

	chol               *direct.Cholesky
	counts             []int
	full, sol, scratch []float64
}

// newAsmProblem builds the assembled twin of pb in the same run.
// Collective (the inspector exchanges request lists).
func newAsmProblem(p *comm.Proc, pb *Problem) *asmProblem {
	ap := &asmProblem{p: p, smooths: pb.smooths}
	for l, lv := range pb.levels {
		al := newAsmLevel(p, lv.b)
		if l > 0 {
			al.buildTransfer(p, ap.levels[l-1])
		}
		ap.levels = append(ap.levels, al)
	}
	if pb.CoarseDirect() {
		coarse := ap.levels[len(ap.levels)-1]
		cn := coarse.b.N()
		ap.chol = factorStencil(coarse.b).chol
		p.Compute(cn * cn * cn / 3)
		ap.counts = make([]int, p.NP())
		for r := range ap.counts {
			ap.counts[r] = coarse.d.Count(r)
		}
		ap.full, ap.sol, ap.scratch = make([]float64, cn), make([]float64, cn), make([]float64, cn)
	}
	return ap
}

func (ap *asmProblem) rebind(p *comm.Proc) {
	ap.p = p
	for _, lv := range ap.levels {
		lv.rebind(p)
	}
}

func (ap *asmProblem) vcycle(l int, rl, xl []float64) {
	lv := ap.levels[l]
	for i := range xl {
		xl[i] = 0
	}
	ap.p.Compute(lv.n)
	if l == len(ap.levels)-1 {
		if ap.chol != nil {
			full := ap.p.AllgatherVInto(rl, ap.counts, ap.full)
			if err := ap.chol.SolveInto(ap.sol, full, ap.scratch); err != nil {
				panic(err)
			}
			copy(xl, ap.sol[lv.lo:lv.lo+lv.n])
			ap.p.Compute(2 * ap.chol.N() * ap.chol.N())
			return
		}
		for s := 0; s < ap.smooths; s++ {
			lv.symgs(ap.p, rl, xl)
		}
		return
	}
	for s := 0; s < ap.smooths; s++ {
		lv.symgs(ap.p, rl, xl)
	}
	lv.residual(ap.p, rl, xl, lv.res)
	next := ap.levels[l+1]
	next.restrictFrom(ap.p, lv.res)
	ap.vcycle(l+1, next.r, next.x)
	next.prolongInto(ap.p, xl)
	for s := 0; s < ap.smooths; s++ {
		lv.symgs(ap.p, rl, xl)
	}
}

// asmOperator and asmPrecond are the assembled problem's spmv.Operator /
// FusedOperator and core.Preconditioner faces.
type asmOperator struct{ ap *asmProblem }

func (a asmOperator) N() int   { return a.ap.levels[0].b.N() }
func (a asmOperator) NNZ() int { return int(stencilNNZ(a.ap.levels[0].b)) }
func (a asmOperator) Apply(x, y *darray.Vector) {
	a.ap.levels[0].matvec(a.ap.p, x.Local(), y.Local())
}
func (a asmOperator) ApplyDot(x, y *darray.Vector) float64 {
	return a.ap.levels[0].matvecDot(a.ap.p, x.Local(), y.Local())
}

type asmPrecond struct{ ap *asmProblem }

func (m asmPrecond) Apply(r, z *darray.Vector) { m.ap.vcycle(0, r.Local(), z.Local()) }

// stencilNNZ is the exact stored-entry count of the 27-point stencil on
// an X × Y × Z grid: per-dimension neighbour counts factorize, and a
// length-L line contributes 3L-2 (row, col) pairs in its dimension.
func stencilNNZ(b grid.Brick3) int64 {
	return int64(3*b.X-2) * int64(3*b.Y-2) * int64(3*b.Z-2)
}

// fill sets v to a deterministic, sign-mixed function of the global
// index (lo is the block's first global point) and a salt.
func fill(v []float64, lo, salt int) {
	for i := range v {
		g := lo + i
		v[i] = float64((g*7+salt*13)%23)/8 - 1.25 + float64(g%5)*0.0625
	}
}

func sameBits(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestLevelKernelsMatchAssembled is the edge table of the matrix-free
// hierarchy: brick sides from 1 up (no x-interior, no full row, face
// rows only), 1 to 6 planes per rank (ghost planes both sides of a
// one-plane slab), every clamped depth and both coarse treatments —
// among them the shapes whose coarse slab split is misaligned with the
// fine one (Nz = 3 at np = 2; Nz = 6 at np = 4 over three levels), where
// restriction and prolongation move a plane between neighbours. On each:
// apply, ApplyDot, then per level residual, three chained SymGS sweeps,
// restriction and prolongation, then a whole V-cycle, all compared with
// the assembled level by math.Float64bits; then a PCG solve on rebound
// handles in fresh runs, whose per-rank modeled clock and message, byte
// and flop counts must be == the assembled solve's.
func TestLevelKernelsMatchAssembled(t *testing.T) {
	dims := []int{1, 2, 3, 5, 6, 7, 8}
	if testing.Short() {
		dims = []int{1, 2, 3, 6}
	}
	cells := 0
	for _, X := range dims {
		for _, Y := range dims {
			for _, Nz := range []int{1, 2, 3, 5, 6} {
				for _, np := range []int{1, 2, 3, 4, 8} {
					fine, err := Spec{Nx: X, Ny: Y, Nz: Nz}.Fine(np)
					if err != nil {
						t.Fatal(err)
					}
					for levels := 1; levels <= grid.ClampLevels(fine, 4); levels++ {
						for _, coarse := range []string{"smooth", "direct"} {
							spec := Spec{Nx: X, Ny: Y, Nz: Nz, Levels: levels, Coarse: coarse}
							if coarse == "direct" && coarsestN(fine, levels) > 128 {
								continue // the dense factor of a big bottom grid buys no new shape
							}
							cells++
							compareWithAssembled(t, np, spec)
							if t.Failed() {
								t.Fatalf("first failing cell: np=%d %s", np, spec.Key())
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d cells", cells)
}

func coarsestN(b grid.Brick3, levels int) int {
	for l := 1; l < levels; l++ {
		b = b.Coarsen()
	}
	return b.N()
}

func compareWithAssembled(t *testing.T, np int, spec Spec) {
	t.Helper()
	name := fmt.Sprintf("np=%d %s", np, spec.Key())
	m := machine(np)
	pbs, aps := make([]*Problem, np), make([]*asmProblem, np)
	m.Run(func(p *comm.Proc) {
		r := p.Rank()
		pb, err := NewProblem(p, spec)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			return
		}
		setup := p.Clock()
		ap := newAsmProblem(p, pb)
		if asmSetup := p.Clock() - setup; setup > asmSetup || (np == 1 && setup != asmSetup) {
			t.Errorf("%s rank %d: modeled setup %g, assembled %g", name, r, setup, asmSetup)
		}
		pbs[r], aps[r] = pb, ap
		differ := func(what string, got, want []float64) {
			if i := sameBits(got, want); i >= 0 {
				t.Errorf("%s rank %d: %s differs at local %d: %v vs assembled %v", name, r, what, i, got[i], want[i])
			}
		}

		// The fine-grid operator faces.
		d := pb.Dist()
		x, y, ya := darray.New(p, d), darray.New(p, d), darray.New(p, d)
		fill(x.Local(), d.Lo(r), 1)
		op, aop := pb.Operator(), asmOperator{ap}
		if op.N() != aop.N() || op.NNZ() != aop.NNZ() {
			t.Errorf("%s: N/NNZ %d/%d, assembled %d/%d", name, op.N(), op.NNZ(), aop.N(), aop.NNZ())
		}
		op.Apply(x, y)
		aop.Apply(x, ya)
		differ("Apply", y.Local(), ya.Local())
		dot, adot := op.ApplyDot(x, y), aop.ApplyDot(x, ya)
		differ("ApplyDot y", y.Local(), ya.Local())
		if math.Float64bits(dot) != math.Float64bits(adot) {
			t.Errorf("%s rank %d: ApplyDot partial %v vs assembled %v", name, r, dot, adot)
		}

		// Every level's kernels and transfers.
		for l, lv := range pb.levels {
			al := ap.levels[l]
			if lv.n != al.n || lv.op.LocalNNZ() != al.nnzLocal {
				t.Errorf("%s rank %d level %d: n/nnzLocal %d/%d, assembled %d/%d", name, r, l, lv.n, lv.op.LocalNNZ(), al.n, al.nnzLocal)
				return
			}
			rl, xl, xa := make([]float64, lv.n), make([]float64, lv.n), make([]float64, lv.n)
			res, resa := make([]float64, lv.n), make([]float64, lv.n)
			fill(rl, al.lo, 2+l)
			fill(xl, al.lo, 3+l)
			copy(xa, xl)
			lv.op.Residual(rl, xl, res)
			al.residual(p, rl, xa, resa)
			differ(fmt.Sprintf("level %d residual", l), res, resa)
			for s := 0; s < 3; s++ {
				lv.op.SymGS(rl, xl)
				al.symgs(p, rl, xa)
				differ(fmt.Sprintf("level %d SymGS sweep %d", l, s), xl, xa)
			}
			if l == 0 {
				continue
			}
			f, af := pb.levels[l-1], ap.levels[l-1]
			fv, fa := make([]float64, f.n), make([]float64, f.n)
			fill(fv, af.lo, 5+l)
			copy(fa, fv)
			lv.restrictFrom(p, f, fv)
			al.restrictFrom(p, fv)
			differ(fmt.Sprintf("level %d restriction", l), lv.r, al.r)
			fill(lv.x, al.lo, 7+l)
			copy(al.x, lv.x)
			lv.prolongInto(p, f, fv)
			al.prolongInto(p, fa)
			differ(fmt.Sprintf("level %d prolongation", l), fv, fa)
		}

		fill(x.Local(), d.Lo(r), 11)
		pb.Precond().Apply(x, y)
		asmPrecond{ap}.Apply(x, ya)
		differ("V-cycle", y.Local(), ya.Local())
	})
	if t.Failed() {
		return
	}

	// A whole solve on each side, rebound into its own fresh run so both
	// modeled clocks start from zero.
	type outcome struct {
		clock float64
		stats comm.ProcStats
		x     []float64
		iters int
	}
	solve := func(bind func(p *comm.Proc) (spmv.Operator, core.Preconditioner)) []outcome {
		out := make([]outcome, np)
		m.Run(func(p *comm.Proc) {
			op, M := bind(p)
			d := pbs[p.Rank()].Dist()
			b, x := darray.New(p, d), darray.New(p, d)
			fill(b.Local(), d.Lo(p.Rank()), 17)
			st, err := core.PCG(p, op, M, b, x, core.Options{Tol: 1e-9, MaxIter: 40})
			if err != nil {
				t.Errorf("%s: %v", name, err)
			}
			out[p.Rank()] = outcome{p.Clock(), p.Stats(), x.Local(), st.Iterations}
		})
		return out
	}
	got := solve(func(p *comm.Proc) (spmv.Operator, core.Preconditioner) {
		pb := pbs[p.Rank()]
		pb.Operator().Rebind(p)
		return pb.Operator(), pb.Precond()
	})
	want := solve(func(p *comm.Proc) (spmv.Operator, core.Preconditioner) {
		ap := aps[p.Rank()]
		ap.rebind(p)
		return asmOperator{ap}, asmPrecond{ap}
	})
	for r := range got {
		g, w := got[r], want[r]
		if g.iters != w.iters || g.clock != w.clock || g.stats != w.stats {
			t.Errorf("%s rank %d: solve took %d iterations to clock %v with %+v; assembled %d to %v with %+v",
				name, r, g.iters, g.clock, g.stats, w.iters, w.clock, w.stats)
		}
		if i := sameBits(g.x, w.x); i >= 0 {
			t.Errorf("%s rank %d: solution differs at local %d", name, r, i)
		}
	}
}
