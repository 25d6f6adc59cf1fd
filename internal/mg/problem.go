// Problem assembles the level hierarchy and exposes the two faces the
// solver stack consumes: the fine-grid stencil as an spmv.Operator
// (fused, so core.CG/PCG and the plan registry treat
// it like any matrix operator) and the V-cycle as a
// core.Preconditioner.
package mg

import (
	"hpfcg/internal/comm"
	"hpfcg/internal/darray"
	"hpfcg/internal/dist"
	"hpfcg/internal/grid"
)

// Problem is one rank's handle on a prepared HPCG-style problem. It
// is built inside an SPMD run (construction is collective), owns all
// per-level scratch, and serves every later run on the same machine —
// the warm path that lets hpfexec cache hierarchies across batch
// windows.
type Problem struct {
	p       *comm.Proc
	levels  []*level
	smooths int
	// fineD is the fine-grid distribution boxed once — alignment
	// checks on the hot path must not re-box the concrete descriptor
	// into the interface per call.
	fineD dist.Dist
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
	pb := &Problem{p: p, smooths: spec.Smooths}
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
	return pb, nil
}

// Levels returns the clamped hierarchy depth actually built.
func (pb *Problem) Levels() int { return len(pb.levels) }

// Dist returns the fine-grid vector distribution solve vectors must
// align with.
func (pb *Problem) Dist() dist.Irregular { return pb.levels[0].op.Dist() }

// checkAligned panics unless v aligns with the fine grid — the same
// HPF alignment rule darray enforces between vectors.
func (pb *Problem) checkAligned(v *darray.Vector) []float64 {
	if !dist.Same(v.Dist(), pb.fineD) {
		panic("mg: vector not aligned with the problem's fine grid")
	}
	return v.Local()
}

// vcycle runs one V-cycle on A_l·x = r, overwriting xl with the
// result (initial guess zero, so the first sweep needs no halo). All
// work is on preallocated level scratch; nothing allocates.
func (pb *Problem) vcycle(l int, rl, xl []float64) {
	lv := pb.levels[l]
	lv.op.SymGSFromZero(rl, xl)
	for s := 1; s < pb.smooths; s++ {
		lv.op.SymGS(rl, xl)
	}
	if l == len(pb.levels)-1 {
		return // the smoother alone is the coarsest solve (the HPCG convention)
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
// mfree.Operator. It implements spmv.Operator and spmv.FusedOperator.
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

// Precond is the V-cycle preconditioner z = M⁻¹·r.
type Precond struct {
	pb *Problem
}

// Apply implements core.Preconditioner.
func (m *Precond) Apply(r, z *darray.Vector) {
	m.pb.vcycle(0, m.pb.checkAligned(r), m.pb.checkAligned(z))
}
