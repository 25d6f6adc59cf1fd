// Problem assembles the level hierarchy and exposes the two faces the
// solver stack consumes: the fine-grid stencil as an spmv.Operator
// (fused and rebindable, so core.CG/PCG and the plan registry treat
// it like any matrix operator) and the V-cycle as a
// core.Preconditioner.
package mg

import (
	"fmt"
	"math"
	"sync"

	"hpfcg/internal/comm"
	"hpfcg/internal/darray"
	"hpfcg/internal/direct"
	"hpfcg/internal/dist"
	"hpfcg/internal/grid"
	"hpfcg/internal/mfree"
)

// Problem is one rank's handle on a prepared HPCG-style problem. It
// is built inside an SPMD run (construction is collective), owns all
// per-level scratch, and can be rebound to a later run's Proc — the
// warm path that lets hpfexec cache hierarchies across batch windows.
type Problem struct {
	p       *comm.Proc
	spec    Spec
	levels  []*level
	smooths int
	// fineD is the fine-grid distribution boxed once — alignment
	// checks on the hot path must not re-box the concrete descriptor
	// into the interface per call.
	fineD dist.Dist

	// Coarsest-grid direct solve (nil coarse = smoother sweeps, the
	// original HPCG convention). The bottom of the V-cycle allgathers the
	// coarse residual into coarseFull, so every rank holds the same full
	// vector, and solves it with the dense Cholesky factor of the whole
	// coarsest operator. On the modeled machine every rank holds its own
	// factor and solves redundantly; in the host the ranks of a run share
	// one factor and one solve per distinct right-hand side through
	// coarse. Deterministic, collective-aligned and allocation-free.
	coarse       *coarseFactor
	coarseCounts []int
	coarseFull   []float64
}

// NewProblem builds the hierarchy for the (defaulted, validated) spec
// on p's machine. The requested depth clamps to what the geometry
// supports (grid.ClampLevels), never errors on it. Every rank of a run
// calls it; nothing in it communicates.
func NewProblem(p *comm.Proc, spec Spec) (*Problem, error) {
	spec = spec.WithDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	fine, err := spec.Fine(p.NP())
	if err != nil {
		return nil, err
	}
	depth := grid.ClampLevels(fine, spec.Levels)
	pb := &Problem{p: p, spec: spec, smooths: spec.Smooths}
	b := fine
	var f *level
	for l := 0; l < depth; l++ {
		f = newLevel(p, b, f)
		pb.levels = append(pb.levels, f)
		if l+1 < depth {
			f.res = make([]float64, f.n)
			b = b.Coarsen()
		}
	}
	pb.fineD = pb.levels[0].op.Dist()
	if err := pb.setupCoarse(); err != nil {
		return nil, err
	}
	return pb, nil
}

// setupCoarse resolves the spec's coarsest-grid treatment and, when the
// direct solve is selected, takes the factor of the whole coarsest
// operator — the same bits on every rank, so bottom solves agree bit for
// bit.
func (pb *Problem) setupCoarse() error {
	coarse := pb.levels[len(pb.levels)-1]
	cn := coarse.b.N()
	switch pb.spec.Coarse {
	case "smooth":
		return nil
	case "direct":
		if cn > MaxCoarseDirect {
			return fmt.Errorf("mg: coarse = direct needs a coarsest grid of at most %d points, got %d (deepen the hierarchy or use auto)", MaxCoarseDirect, cn)
		}
	default: // auto
		if cn > MaxCoarseDirect {
			return nil
		}
	}
	f := pb.p.Shared(factorKey(coarse.b), func() any { return factorStencil(coarse.b) }).(*coarseFactor)
	if f.err != nil {
		return fmt.Errorf("mg: coarsest-grid factorization: %w", f.err)
	}
	// On the modeled machine every rank factors redundantly: ~N³/3
	// flops each, charged at setup.
	pb.p.Compute(cn * cn * cn / 3)
	pb.coarse = f
	pb.coarseCounts = dist.Counts(coarse.op.Dist())
	pb.coarseFull = make([]float64, cn)
	return nil
}

// coarseFactor is what the ranks of a run share through comm.Proc.Shared
// under a factorKey, the coarsest brick: the factor is a function of it
// alone. It also memoises the last bottom solve, so the ranks of a
// V-cycle, which all hold the same gathered right-hand side, pay for
// one solve between them.
type coarseFactor struct {
	chol *direct.Cholesky
	err  error

	mu      sync.Mutex
	in, out []float64 // the last right-hand side solved, and its solution
	scratch []float64 // the forward sweep's intermediate
	solves  int       // factor solves run; in and out are valid once it is > 0
}

type factorKey grid.Brick3

// factorStencil assembles the 27-point operator on b densely and
// factors it.
func factorStencil(b grid.Brick3) *coarseFactor {
	A, err := mfree.Spec{Stencil: "27pt", Nx: b.X, Ny: b.Y, Nz: b.Z}.Assemble()
	if err != nil {
		return &coarseFactor{err: err}
	}
	chol, err := direct.FactorCholesky(A.ToDense())
	if err != nil {
		return &coarseFactor{err: err}
	}
	n := chol.N()
	return &coarseFactor{chol: chol, in: make([]float64, n), out: make([]float64, n), scratch: make([]float64, n)}
}

// solve writes entries [off, off+len(xl)) of A⁻¹·full into xl. The memo
// is keyed on full's bits, not on a V-cycle count, so it assumes nothing
// about how callers interleave: a late rank, a rebound warm plan or a
// batch-mate with another right-hand side at worst solves again, to the
// same bits. The caller charges the modeled solve itself, outside the
// lock.
func (f *coarseFactor) solve(xl, full []float64, off int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.solves == 0 || !bitsEqual(f.in, full) {
		if err := f.chol.SolveInto(f.out, full, f.scratch); err != nil {
			panic(err)
		}
		copy(f.in, full)
		f.solves++
	}
	copy(xl, f.out[off:off+len(xl)])
}

// bitsEqual reports whether a and b, of equal length, hold the same bits.
func bitsEqual(a, b []float64) bool {
	for i, v := range a {
		if math.Float64bits(v) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// CoarseDirect reports whether the hierarchy bottoms out in the dense
// direct solve (false: smoother sweeps, the original HPCG convention).
func (pb *Problem) CoarseDirect() bool { return pb.coarse != nil }

// Spec returns the (defaulted) spec the problem was built from.
func (pb *Problem) Spec() Spec { return pb.spec }

// Levels returns the clamped hierarchy depth actually built.
func (pb *Problem) Levels() int { return len(pb.levels) }

// Fine returns the fine-grid brick.
func (pb *Problem) Fine() grid.Brick3 { return pb.levels[0].b }

// Dist returns the fine-grid vector distribution solve vectors must
// align with.
func (pb *Problem) Dist() dist.Irregular { return pb.levels[0].op.Dist() }

// Rebind re-attaches the problem (every level's halo) to a fresh Proc of
// the same rank and shape — the warm registry path.
func (pb *Problem) Rebind(p *comm.Proc) {
	pb.p = p
	for _, lv := range pb.levels {
		lv.op.Rebind(p)
	}
}

// checkAligned panics unless v aligns with the fine grid — the same
// HPF alignment rule darray enforces between vectors.
func (pb *Problem) checkAligned(v *darray.Vector) []float64 {
	if !dist.Same(v.Dist(), pb.fineD) {
		panic("mg: vector not aligned with the problem's fine grid")
	}
	return v.Local()
}

// vcycle runs one V-cycle on A_l·x = r, overwriting xl with the
// result (initial guess zero). All work is on preallocated level
// scratch; nothing allocates.
func (pb *Problem) vcycle(l int, rl, xl []float64) {
	lv := pb.levels[l]
	for i := range xl {
		xl[i] = 0
	}
	pb.p.Compute(lv.n)
	coarsest := l == len(pb.levels)-1
	if coarsest && pb.coarse != nil {
		// Direct bottom solve: allgather the coarse residual (every
		// rank sees the identical full vector), solve it with the
		// shared Cholesky factor, whose memo lets the first rank's
		// solve serve the rest, and keep the owned slice. Every
		// rank is still charged the redundant solve.
		full := pb.p.AllgatherVInto(rl, pb.coarseCounts, pb.coarseFull)
		pb.coarse.solve(xl, full, lv.zlo*lv.b.X*lv.b.Y)
		cn := pb.coarse.chol.N()
		pb.p.Compute(2 * cn * cn)
		return
	}
	for s := 0; s < pb.smooths; s++ {
		lv.op.SymGS(rl, xl)
	}
	if coarsest {
		// Without the direct solve the smoother alone is the coarsest
		// solve (the HPCG convention).
		return
	}
	lv.op.Residual(rl, xl, lv.res)
	next := pb.levels[l+1]
	next.restrictFrom(pb.p, lv, lv.res)
	pb.vcycle(l+1, next.r, next.x)
	next.prolongInto(pb.p, lv, xl)
	for s := 0; s < pb.smooths; s++ {
		lv.op.SymGS(rl, xl)
	}
}

// Operator returns the fine-grid 27-point stencil as a distributed
// operator for core.CG/PCG.
func (pb *Problem) Operator() *Operator { return &Operator{pb: pb} }

// Precond returns the V-cycle as a core.Preconditioner.
func (pb *Problem) Precond() *Precond { return &Precond{pb: pb} }

// Operator is the fine-grid stencil mat-vec — the fine level's
// mfree.Operator, whose Rebind must take the whole hierarchy along. It
// implements spmv.Operator, spmv.FusedOperator and spmv.Rebindable.
type Operator struct {
	pb *Problem
}

// N implements spmv.Operator.
func (a *Operator) N() int { return a.pb.levels[0].op.N() }

// NNZ implements spmv.Operator. The count is analytic — the stencil
// is never materialized.
func (a *Operator) NNZ() int { return a.pb.levels[0].op.NNZ() }

// Apply implements spmv.Operator.
func (a *Operator) Apply(x, y *darray.Vector) { a.pb.levels[0].op.Apply(x, y) }

// ApplyDot implements spmv.FusedOperator.
func (a *Operator) ApplyDot(x, y *darray.Vector) float64 { return a.pb.levels[0].op.ApplyDot(x, y) }

// Rebind implements spmv.Rebindable by rebinding the whole problem
// (the preconditioner's levels travel with the operator).
func (a *Operator) Rebind(p *comm.Proc) { a.pb.Rebind(p) }

// Precond is the V-cycle preconditioner z = M⁻¹·r.
type Precond struct {
	pb *Problem
}

// Apply implements core.Preconditioner.
func (m *Precond) Apply(r, z *darray.Vector) {
	m.pb.vcycle(0, m.pb.checkAligned(r), m.pb.checkAligned(z))
}
