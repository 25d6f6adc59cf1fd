// Package hpfexec plays the role of the HPF compiler's code generator
// for the paper's CG codes: given a *bound* directive plan
// (internal/hpf) and the runtime sparse matrix, it selects the
// execution strategy the directives imply and runs the distributed
// conjugate gradient solve.
//
// The mapping from directives to execution follows the paper:
//
//   - `SPARSE_MATRIX (CSR)` selects Scenario 1 (row-block, allgather);
//   - `SPARSE_MATRIX (CSC)` selects Scenario 2 (column-block). Without
//     further directives HPF-1 semantics force the serialized execution;
//     an `ITERATION ... PRIVATE(q(n)) WITH MERGE(+)` directive (§5.1)
//     switches it to the parallel private-merge execution;
//   - `REDISTRIBUTE smA USING CG_BALANCED_PARTITIONER_1` (§5.2.2)
//     replaces the vectors' BLOCK distribution with the balanced
//     whole-row (atom) distribution before solving.
//
// Every other extension line is checked at Prepare
// (hpf.Plan.CheckExecution) and either describes that execution or is
// refused with its line. Accepted: the ITERATION's ON PROCESSOR(f(j)),
// evaluated once per column, when it sends every j to the vectors'
// owner of j, and `REDISTRIBUTE … (ATOM: BLOCK)` of the trio's data
// over its rows or columns when its uniform cut is the vectors' (both
// executors keep every row or column whole). Refused: any other map
// (one that errors, or leaves [0, NP)), an ITERATION in a CSR program
// or a second one, PRIVATE … WITH DISCARD, ATOM: CYCLIC and ATOM:
// BLOCK(k), and an array of the vector size outside the SPARSE_MATRIX
// trio distributed unlike the vectors.
package hpfexec

import (
	"fmt"
	"slices"

	"hpfcg/internal/comm"
	"hpfcg/internal/core"
	"hpfcg/internal/dist"
	"hpfcg/internal/hpf"
	"hpfcg/internal/sparse"
	"hpfcg/internal/spmv"
)

// Strategy describes the execution the directives selected.
type Strategy struct {
	Scenario string // "row-block CSR" or "col-block CSC"
	Mode     string // "local", "serialized" or "private-merge"
	Balanced bool   // partitioner-redistributed
	// Variant is the recurrence the solves run, resolved: WithVariant
	// turns auto into the variant of the cheapest Frontier row.
	Variant Variant
	// Levels is the clamped multigrid hierarchy depth of an hpcg
	// handle (0 for every other backend).
	Levels int
}

// String renders the strategy for logs: scenario / mode, then
// "balanced" and any variant but plain in its ParseVariant spelling.
func (s Strategy) String() string {
	out := s.Scenario + " / " + s.Mode
	if s.Balanced {
		out += " / balanced"
	}
	if v := s.Variant.String(); v != "plain" {
		out += " / " + v
	}
	return out
}

// Result is one right-hand side's completed solve.
type Result struct {
	X        []float64
	Stats    core.Stats
	Run      comm.RunStats
	Strategy Strategy
	// Err is the solver's own failure on this right-hand side (a
	// core.ErrBreakdown); X is nil when it is set. Machine-level
	// failures are returned by the solve call instead.
	Err error
}

// matrixBackend is the directive-planned assembled matrix: the
// validated storage format, the vector distribution (after any
// partitioner redistribution), and the converted matrix forms.
type matrixBackend struct {
	A        *sparse.CSR
	csc      *sparse.CSC
	format   string // "csr" or "csc"
	hasMerge bool
	d        dist.Contiguous
}

func (mb *matrixBackend) kind() string { return mb.format }
func (mb *matrixBackend) n() int       { return mb.A.NRows }

// memoryBytes counts the CSR arrays, the CSC copy when the layout
// declared one, and as much again for operator-side copies (row
// remaps, ghost buffers), plus two vectors.
func (mb *matrixBackend) memoryBytes() int64 {
	const intB, floatB = 8, 8
	sz := int64(len(mb.A.RowPtr)+len(mb.A.Col))*intB + int64(len(mb.A.Val))*floatB
	if mb.csc != nil {
		sz += int64(len(mb.csc.ColPtr)+len(mb.csc.Row))*intB + int64(len(mb.csc.Val))*floatB
	}
	return 2*sz + int64(mb.A.NRows)*2*floatB
}

// build constructs this rank's mat-vec operator, then pcg's
// preconditioner. For CSR that is the halo executor, inspected to the
// s-step depth; at depth 1 the build falls back to the broadcast
// executor when the widest halo exceeds a quarter of the vector
// (E14/E15) — a collective, so all ranks agree. At depth >= 2 the
// widened closure is what makes one exchange serve a whole basis block,
// so the fallback never applies. BiCG's A^T needs the broadcast
// executor outright: the halo executor has no ApplyT.
func (mb *matrixBackend) build(p *comm.Proc, v Variant) (rankOps, error) {
	ro := rankOps{d: mb.d}
	depth := max(1, v.Factor())
	switch {
	case mb.format == BackendCSC:
		mode := spmv.ModeSerialized
		if mb.hasMerge {
			mode = spmv.ModePrivateMerge
		}
		ro.op = spmv.NewColBlockCSC(p, mb.csc, mb.d, mode)
	case v.Kind() == "bicg":
		ro.op, ro.mode = spmv.NewRowBlockCSR(p, mb.A, mb.d), "local(broadcast)"
	default:
		halo := spmv.NewRowBlockCSRPowers(p, mb.A, mb.d, depth)
		ro.op, ro.mode = halo, "local(ghost)"
		if depth == 1 && p.AllreduceScalar(float64(halo.NGhosts()), comm.OpMax) > 0.25*float64(mb.A.NRows) {
			ro.op, ro.mode = spmv.NewRowBlockCSR(p, mb.A, mb.d), "local(broadcast)"
		}
	}
	if v.Kind() == "pcg" {
		M, err := core.NewJacobi(p, mb.A, mb.d)
		if err != nil {
			return rankOps{}, err
		}
		ro.M = M
	}
	return ro, nil
}

// analyzeCG validates the plan against the matrix and fixes everything
// a solve needs that does not depend on the right-hand side.
func analyzeCG(m *comm.Machine, plan *hpf.Plan, A *sparse.CSR) (*matrixBackend, Strategy, error) {
	fail := func(err error) (*matrixBackend, Strategy, error) { return nil, Strategy{}, err }
	if A.NRows != A.NCols {
		return fail(fmt.Errorf("hpfexec: matrix must be square, got %dx%d", A.NRows, A.NCols))
	}
	n := A.NRows
	if plan.NP != m.NP() {
		return fail(fmt.Errorf("hpfexec: plan bound for %d processors, machine has %d", plan.NP, m.NP()))
	}
	if len(plan.Sparse) != 1 {
		return fail(fmt.Errorf("hpfexec: need exactly one SPARSE_MATRIX declaration, have %d", len(plan.Sparse)))
	}
	var sm hpf.SparseMatrix
	for _, d := range plan.Sparse {
		sm = d
	}

	// The vector distribution: the ultimate alignment target among the
	// n-sized arrays (the paper's p), or the earliest directly
	// distributed one.
	vecPlan, err := vectorRoot(plan, sm, n)
	if err != nil {
		return fail(err)
	}
	d, ok := vecPlan.Dist.(dist.Contiguous)
	if !ok {
		return fail(fmt.Errorf("hpf: line %d: the vectors' mapping %s(%s) is not contiguous; the mat-vec scenarios need BLOCK-like mappings",
			vecPlan.Line, vecPlan.Name, vecPlan.Dist.Name()))
	}

	strategy := Strategy{}

	// The §5.2.2 partitioner redistribution, if declared: rebalance the
	// rows (CSR) or columns (CSC) and align the vectors with the atoms.
	if _, declared := plan.Partitioners[sm.Name]; declared {
		ptr := A.RowPtr
		if sm.Format == "csc" {
			ptr = A.ToCSC().ColPtr
		}
		_, atomCuts, err := plan.BindPartitioner(sm.Name, ptr)
		if err != nil {
			return fail(err)
		}
		d = dist.NewIrregular(atomCuts)
		strategy.Balanced = true
	}

	// Every extension directive describes the execution below or is
	// refused with its line. The §5.1 ITERATION's PRIVATE ... WITH
	// MERGE(+) unlocks the parallel execution of the CSC accumulation.
	if err := plan.CheckExecution(sm, vecPlan, d); err != nil {
		return fail(err)
	}
	hasMerge := false
	for _, it := range plan.Iterations {
		for _, cl := range it.Clauses {
			hasMerge = hasMerge || cl.Kind == "private" && cl.Merge == "+"
		}
	}

	var csc *sparse.CSC
	switch sm.Format {
	case "csr":
		strategy.Scenario = "row-block CSR"
		// The executor choice (broadcast vs ghost halo) is made inside
		// the SPMD region, where the inspector can measure the halo.
		strategy.Mode = "local"
	case "csc":
		strategy.Scenario = "col-block CSC"
		csc = A.ToCSC()
		if hasMerge {
			strategy.Mode = "private-merge"
		} else {
			strategy.Mode = "serialized"
		}
	default:
		return fail(fmt.Errorf("hpfexec: unsupported sparse format %q", sm.Format))
	}

	return &matrixBackend{A: A, csc: csc, format: sm.Format, hasMerge: hasMerge, d: d}, strategy, nil
}

// vectorRoot finds the array plan that plays the role of p in Figure
// 2, among the n-sized arrays outside sm's trio: the target the others
// ALIGN to or, with no ALIGN, the array on the earliest directly
// distributing line (of several targets, the earliest too).
// CheckExecution refuses every other n-sized array mapped otherwise.
func vectorRoot(plan *hpf.Plan, sm hpf.SparseMatrix, n int) (*hpf.ArrayPlan, error) {
	var root *hpf.ArrayPlan
	rootIsTarget := false
	for name, a := range plan.Arrays {
		if a.Size != n || slices.Contains(sm.Arrays[:], name) {
			continue
		}
		cand, isTarget := a, a.AlignedTo != ""
		if isTarget {
			cand = plan.Arrays[a.AlignedTo]
		}
		if root == nil || isTarget && !rootIsTarget || isTarget == rootIsTarget && cand.Line < root.Line {
			root, rootIsTarget = cand, isTarget
		}
	}
	if root == nil {
		return nil, fmt.Errorf("hpfexec: no distributed array of the vector size %d in the plan", n)
	}
	return root, nil
}
