// Package spmv implements the distributed matrix-vector products of §4
// of the paper, for compressed sparse storage, under the two
// partitioning scenarios it analyses (Scenario 1's dense row strips,
// Figure 3, are the row executor over a CSR that stores every entry,
// which E13 compares with a checkerboard):
//
// Scenario 1 (row-wise): the matrix is distributed (BLOCK, *) — each
// processor owns a strip of whole rows, aligned with the result vector
// q. Because a sparse row may reference any column of p, the whole of p
// must be made available first: an all-to-all broadcast (allgather)
// costing t_s-ish*(NP) + t_w*n*(NP-1)/NP. The multiply itself is then
// purely local and the result needs no rearrangement.
//
// Scenario 2 (column-wise): the matrix is distributed (*, BLOCK) — each
// processor owns a strip of whole columns, aligned with the operand
// vector p. No broadcast of p is needed, but contributions to q(row(k))
// scatter across processors: a many-to-one accumulation that HPF-1
// cannot parallelise. Two executions are provided:
//
//   - ModeSerialized emulates what an HPF-1 compiler must do with the
//     dependent loop: execute the column loop in global order, with the
//     running q carried processor to processor (NP-1 messages of n
//     elements) and finally scattered. The modeled clock serialises the
//     compute exactly as the paper describes ("no parallel loop
//     execution is possible").
//   - ModeDenseMerge is the paper's proposed §5.1 extension as
//     written: each processor accumulates into a PRIVATE full-length
//     copy of q and the copies are merged with MERGE(+) — a
//     reduce-scatter costing the same asymptotically as Scenario 1's
//     broadcast, which is the paper's conclusion that neither regular
//     striping can reduce the communication time.
//   - ModePrivateMerge is the same extension with the merge inspected
//     (§5.1, refs [15], [19], [20]): at construction the strip's row
//     indices are inspected once, the PRIVATE copy holds only the owned
//     rows and the rows the strip touches on other processors, and the
//     merge runs the inspector's exchange in reverse — each touched
//     row's partial goes to its owner alone. Its result is bit-equal to
//     the dense merge's; it never sends more words or messages.
//
// Transpose products (ApplyT) are provided for BiCG: under row-wise
// partitioning A^T must be applied column-wise and vice versa, so "any
// storage distribution optimisations made on the basis of row access
// vs. column access will be negated" — experiment E6 measures that.
package spmv

import (
	"fmt"

	"hpfcg/internal/comm"
	"hpfcg/internal/darray"
	"hpfcg/internal/dist"
	"hpfcg/internal/forall"
	"hpfcg/internal/inspector"
	"hpfcg/internal/sparse"
)

// Operator is a distributed linear operator y = A*x over aligned
// distributed vectors.
type Operator interface {
	// N returns the (square) global dimension.
	N() int
	// NNZ returns the global stored-entry count (n*n for dense).
	NNZ() int
	// Apply computes y = A*x. x and y must be aligned with the
	// operator's vector distribution.
	Apply(x, y *darray.Vector)
}

// TransposeOperator additionally applies A^T, as BiCG requires.
type TransposeOperator interface {
	Operator
	// ApplyT computes y = A^T*x.
	ApplyT(x, y *darray.Vector)
}

// Rebindable is an Operator that can be re-attached to a fresh
// processor handle of the same rank and machine shape. Operators are
// built inside one SPMD run and hold that run's Proc; a plan cache
// (hpfexec.Registry) that carries operators across runs rebinds them
// at the start of each new run, skipping the construction cost — for
// the ghost executor, the whole inspector exchange — while reusing the
// same buffers, so warm runs stay bit-identical to cold ones.
type Rebindable interface {
	Operator
	// Rebind swaps in the new run's processor handle. p must have the
	// rank and NP the operator was built with.
	Rebind(p *comm.Proc)
}

// FusedOperator is an Operator that can compute y = A*x and the local
// partial of the inner product x·y in one pass over the matrix — CG's
// p·Ap without a second sweep over q. The returned value is only the
// local partial; the caller merges it (typically batched with other
// partials in one comm.AllreduceScalars round). Implementations must
// produce a partial bit-identical to Apply followed by x.DotLocal(y)
// and charge the same flops, so fused and unfused solves agree exactly.
type FusedOperator interface {
	Operator
	// ApplyDot computes y = A*x and returns the local partial of x·y.
	ApplyDot(x, y *darray.Vector) float64
}

// Mode selects how the column-partitioned many-to-one accumulation is
// executed (see the package comment).
type Mode int

const (
	// ModeSerialized runs the dependent loop serially in global column
	// order, as HPF-1 forces.
	ModeSerialized Mode = iota
	// ModePrivateMerge uses the paper's proposed PRIVATE/MERGE(+)
	// extension over the inspected rows: the served csc-merge layout.
	ModePrivateMerge
	// ModeDenseMerge uses the extension as the paper writes it, a
	// full-length private copy merged by reduce-scatter: the baseline
	// the experiments measure.
	ModeDenseMerge
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeSerialized:
		return "serialized"
	case ModePrivateMerge:
		return "private-merge"
	case ModeDenseMerge:
		return "dense-merge"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

func checkAligned(op string, d dist.Dist, x, y *darray.Vector) {
	if !dist.Same(d, x.Dist()) || !dist.Same(d, y.Dist()) {
		panic(fmt.Sprintf("spmv: %s operands not aligned with operator distribution %s", op, d.Name()))
	}
}

// checkShape panics unless A is square and d distributes its rows over
// p's machine.
func checkShape(p *comm.Proc, A *sparse.CSR, d dist.Contiguous) {
	if A.NRows != A.NCols {
		panic(fmt.Sprintf("spmv: matrix must be square, got %dx%d", A.NRows, A.NCols))
	}
	if A.NRows != d.N() || d.NP() != p.NP() {
		panic(fmt.Sprintf("spmv: distribution %dx%d does not match matrix %d / machine %d",
			d.N(), d.NP(), A.NRows, p.NP()))
	}
}

// sweepRows is the package's one CSR row kernel — the Figure 2 FORALL
// over rows with the inner DO over row(j):row(j+1)-1. For every row i of
// ptr it sums val[k]·x[idx[k]] over k in [ptr[i], ptr[i+1]) in storage
// order, starting from +0.0, and stores the sum in y[i]; the offsets in
// ptr index idx and val directly, so a row range of a larger structure
// is swept by passing its slice of ptr. idx holds value slots of x, so
// every entry is one branch-free load. When dx is non-nil the sweep also
// returns Σ dx[i]·y[i] accumulated in ascending row order — exactly the
// partial x.DotLocal(y) computes afterwards, which is what lets a fused
// ApplyDot stay bit-identical to Apply followed by DotLocal. A row runs
// four entries per trip through fixed-length subslices, then a scalar
// tail, adding into s in storage order either way: like darray's vector
// updates, the rolled loop's speed swung with where the linker placed
// it (≈ 15 % on the Figure 2 matrix), and the unrolled one does not.
func sweepRows(y []float64, ptr, idx []int, val, x, dx []float64) float64 {
	k := ptr[0]
	idx = idx[:ptr[len(ptr)-1]]
	val = val[:len(idx)]
	ptr = ptr[1:]
	y = y[:len(ptr)]
	if dx != nil {
		dx = dx[:len(ptr)]
	}
	dot := 0.0
	for i, end := range ptr {
		s := 0.0
		for ; k+4 <= end; k += 4 {
			vb, ib := val[k:k+4:k+4], idx[k:k+4:k+4]
			s += vb[0] * x[ib[0]]
			s += vb[1] * x[ib[1]]
			s += vb[2] * x[ib[2]]
			s += vb[3] * x[ib[3]]
		}
		for ; k < end; k++ {
			s += val[k] * x[idx[k]]
		}
		y[i] = s
		if dx != nil {
			dot += dx[i] * s
		}
	}
	return dot
}

// scatterCols is the package's one column-scatter kernel — Scenario 2's
// many-to-one accumulation over a local strip. For every local column j
// of ptr it adds val[k]·x[j] into q[idx[k]] over k in [ptr[j], ptr[j+1])
// in storage order, columns ascending; idx holds the indices of q's
// elements (global rows, or slots of an inspected private copy). Only
// local x elements are read: x is aligned with the columns, so
// "performing the element-wise multiplication will not require any
// interprocessor communication". The CSC executors run it over their
// column strips and RowBlockCSR.ApplyT over its rows, which are A^T's
// columns; each caller charges the strip's 2·nnz flops. Like sweepRows
// it runs one flat k over operands resliced to the strip, so the inner
// loop checks no bound but q's.
func scatterCols(q []float64, ptr, idx []int, val, x []float64) {
	k := ptr[0]
	idx = idx[:ptr[len(x)]]
	val = val[:len(idx)]
	ptr = ptr[1 : len(x)+1]
	for j, end := range ptr {
		xj := x[j]
		for ; k < end; k++ {
			q[idx[k]] += val[k] * xj
		}
	}
}

func checkRebind(op string, old, new *comm.Proc) {
	if new.Rank() != old.Rank() || new.NP() != old.NP() {
		panic(fmt.Sprintf("spmv: %s rebind rank %d/%d onto operator built for %d/%d",
			op, new.Rank(), new.NP(), old.Rank(), old.NP()))
	}
}

// RowBlockCSR is Scenario 1 with CSR storage: processor r holds the
// whole rows [Lo(r), Lo(r)+Count(r)) of A (the paper's
// ALIGN A(:,*) WITH p(:), DISTRIBUTE row/col/a accordingly).
type RowBlockCSR struct {
	p        *comm.Proc
	d        dist.Contiguous
	rowPtr   []int // local rows, rebased to 0
	col      []int // global column indices
	val      []float64
	n        int
	nnz      int
	nnzLocal int
	xfull    []float64 // reusable gather target: Apply allocates nothing in steady state
	// priv is ApplyT's PRIVATE accumulator, built by the first transpose
	// product, so a solve that never transposes holds no second n-word
	// array.
	priv *forall.PrivateRegion
}

// NewRowBlockCSR slices processor p's row strip out of the global
// matrix A. Every processor must call it with the same A and d.
func NewRowBlockCSR(p *comm.Proc, A *sparse.CSR, d dist.Contiguous) *RowBlockCSR {
	checkShape(p, A, d)
	r := p.Rank()
	lo := d.Lo(r)
	hi := lo + d.Count(r)
	base := A.RowPtr[lo]
	rowPtr := make([]int, hi-lo+1)
	for i := lo; i <= hi; i++ {
		rowPtr[i-lo] = A.RowPtr[i] - base
	}
	return &RowBlockCSR{
		p:        p,
		d:        d,
		rowPtr:   rowPtr,
		col:      A.Col[base:A.RowPtr[hi]],
		val:      A.Val[base:A.RowPtr[hi]],
		n:        A.NRows,
		nnz:      A.NNZ(),
		nnzLocal: A.RowPtr[hi] - base,
		xfull:    make([]float64, A.NRows),
	}
}

// N implements Operator.
func (a *RowBlockCSR) N() int { return a.n }

// NNZ implements Operator.
func (a *RowBlockCSR) NNZ() int { return a.nnz }

// LocalNNZ returns this processor's stored entries (load metric).
func (a *RowBlockCSR) LocalNNZ() int { return a.nnzLocal }

// Rebind implements Rebindable.
func (a *RowBlockCSR) Rebind(p *comm.Proc) {
	checkRebind("RowBlockCSR", a.p, p)
	a.p = p
}

// Apply implements Operator: allgather p, then local row loop — the
// Figure 2 FORALL over j with the inner DO over row(j):row(j+1)-1.
func (a *RowBlockCSR) Apply(x, y *darray.Vector) {
	checkAligned("RowBlockCSR.Apply", a.d, x, y)
	sweepRows(y.Local(), a.rowPtr, a.col, a.val, x.GatherInto(a.xfull), nil)
	a.p.Compute(2 * a.nnzLocal)
}

// ApplyDot implements FusedOperator: the same gather + row loop as
// Apply, with the local x·y partial accumulated as each y element is
// produced. Each row's s is the identical expression Apply computes and
// the partial adds xl[i]*s in ascending row order, exactly as
// x.DotLocal(y) would after Apply — so fused and unfused CG iterates
// agree bit for bit. Flop charge is Apply's 2·nnz plus DotLocal's 2·n.
func (a *RowBlockCSR) ApplyDot(x, y *darray.Vector) float64 {
	checkAligned("RowBlockCSR.ApplyDot", a.d, x, y)
	xl := x.Local()
	dot := sweepRows(y.Local(), a.rowPtr, a.col, a.val, x.GatherInto(a.xfull), xl)
	a.p.Compute(2*a.nnzLocal + 2*len(xl))
	return dot
}

// ApplyT implements TransposeOperator. The local rows of A are columns
// of A^T, so the product becomes a column-partitioned many-to-one
// accumulation: a PRIVATE full-length accumulator merged with
// reduce-scatter. This is the §2.1 BiCG penalty: the transpose product
// re-introduces the merge communication the row distribution avoided.
func (a *RowBlockCSR) ApplyT(x, y *darray.Vector) {
	checkAligned("RowBlockCSR.ApplyT", a.d, x, y)
	if a.priv == nil {
		a.priv = forall.NewPrivate(dist.Counts(a.d))
	}
	scatterCols(a.priv.Open(), a.rowPtr, a.col, a.val, x.Local())
	a.p.Compute(2 * a.nnzLocal)
	a.priv.MergeDistributed(a.p, y.Local())
}

// ColBlockCSC is Scenario 2 with CSC storage: processor r holds the
// whole columns [Lo(r), ...) of A, aligned with p.
type ColBlockCSC struct {
	p        *comm.Proc
	d        dist.Contiguous
	colPtr   []int // local columns, rebased
	row      []int // global row indices
	val      []float64
	n        int
	nnz      int
	nnzLocal int
	mode     Mode
	xfull    []float64 // reusable gather target for ApplyT
	// priv is the merge modes' PRIVATE accumulator and slot the row
	// index of each entry in it: the global row under the dense merge;
	// the owned row's offset, or the local count plus the ghost slot of
	// a row another rank owns, under the inspected merge, whose schedule
	// is sched. q0 is the serialised mode's running q on rank 0, where
	// its chain starts.
	priv  *forall.PrivateRegion
	slot  []int
	sched *inspector.Schedule
	q0    []float64
}

// NewColBlockCSC slices processor p's column strip out of A. In
// ModePrivateMerge it runs the inspector over the strip's row indices,
// which is collective: every processor must call it, with the same A
// and d.
func NewColBlockCSC(p *comm.Proc, A *sparse.CSC, d dist.Contiguous, mode Mode) *ColBlockCSC {
	if A.NRows != A.NCols {
		panic(fmt.Sprintf("spmv: matrix must be square, got %dx%d", A.NRows, A.NCols))
	}
	if A.NRows != d.N() || d.NP() != p.NP() {
		panic(fmt.Sprintf("spmv: distribution %dx%d does not match matrix %d / machine %d",
			d.N(), d.NP(), A.NRows, p.NP()))
	}
	r := p.Rank()
	lo := d.Lo(r)
	hi := lo + d.Count(r)
	base := A.ColPtr[lo]
	colPtr := make([]int, hi-lo+1)
	for j := lo; j <= hi; j++ {
		colPtr[j-lo] = A.ColPtr[j] - base
	}
	a := &ColBlockCSC{
		p:        p,
		d:        d,
		colPtr:   colPtr,
		row:      A.Row[base:A.ColPtr[hi]],
		val:      A.Val[base:A.ColPtr[hi]],
		n:        A.NRows,
		nnz:      A.NNZ(),
		nnzLocal: A.ColPtr[hi] - base,
		mode:     mode,
		xfull:    make([]float64, A.NRows),
	}
	switch {
	case mode == ModePrivateMerge:
		a.sched = inspector.Build(p, d, a.row)
		cnt := hi - lo
		a.slot = make([]int, len(a.row))
		for k, g := range a.row {
			if g >= lo && g < hi {
				a.slot[k] = g - lo
			} else {
				a.slot[k] = cnt + a.sched.GhostSlot(g)
			}
		}
		a.priv = forall.NewPrivateInspected(cnt, a.sched)
	case mode == ModeDenseMerge:
		a.slot = a.row
		a.priv = forall.NewPrivate(dist.Counts(d))
	case r == 0:
		a.q0 = make([]float64, A.NRows)
	}
	return a
}

// N implements Operator.
func (a *ColBlockCSC) N() int { return a.n }

// NNZ implements Operator.
func (a *ColBlockCSC) NNZ() int { return a.nnz }

// LocalNNZ returns this processor's stored entries.
func (a *ColBlockCSC) LocalNNZ() int { return a.nnzLocal }

// NGhosts returns how many rows owned by other processors the strip
// touches: the ghost slots of the inspected merge's private copy, each
// merged by sending its partial to the row's owner (0 in the other
// modes, which inspect nothing).
func (a *ColBlockCSC) NGhosts() int {
	if a.sched == nil {
		return 0
	}
	return a.sched.NGhosts()
}

// Rebind implements Rebindable.
func (a *ColBlockCSC) Rebind(p *comm.Proc) {
	checkRebind("ColBlockCSC", a.p, p)
	a.p = p
	if a.sched != nil {
		a.sched.Rebind(p)
	}
}

// Apply implements Operator in the configured mode.
func (a *ColBlockCSC) Apply(x, y *darray.Vector) {
	checkAligned("ColBlockCSC.Apply", a.d, x, y)
	switch a.mode {
	case ModeSerialized:
		a.applySerialized(x, y)
	case ModePrivateMerge, ModeDenseMerge:
		a.applyPrivateMerge(x, y)
	default:
		panic(fmt.Sprintf("spmv: unknown mode %v", a.mode))
	}
}

// applySerialized executes the dependent loop in global column order:
// the running q travels rank to rank (each processor's compute starts
// only after its predecessor's finishes — the modeled clock enforces
// the serialisation), then the final q is scattered to its owners.
// Rank 0 starts the chain in its own q0 each time: once rank 0 has its
// block of the scatter, every rank is done with the previous q.
func (a *ColBlockCSC) applySerialized(x, y *darray.Vector) {
	const tagQ = 101
	np := a.p.NP()
	r := a.p.Rank()
	var q []float64
	if r == 0 {
		q = a.q0
		clear(q)
	} else {
		q = a.p.RecvFloats(r-1, tagQ)
	}
	scatterCols(q, a.colPtr, a.row, a.val, x.Local())
	a.p.Compute(2 * a.nnzLocal)
	if r < np-1 {
		a.p.SendFloats(r+1, tagQ, q)
		q = nil
	}
	// Last processor owns the completed q; scatter it by y's layout.
	y.ScatterFrom(np-1, q)
}

// applyPrivateMerge is the §5.1 extension path: private accumulation,
// then MERGE(+) onto y's distribution — a reduce-scatter of the full
// copies, or the inspected rows' reverse exchange.
func (a *ColBlockCSC) applyPrivateMerge(x, y *darray.Vector) {
	scatterCols(a.priv.Open(), a.colPtr, a.slot, a.val, x.Local())
	a.p.Compute(2 * a.nnzLocal)
	a.priv.MergeDistributed(a.p, y.Local())
}

// ApplyT implements TransposeOperator: the local columns of A are rows
// of A^T, so the transpose product is Scenario 1 shaped — gather x,
// then a purely local row loop over A^T's rows.
func (a *ColBlockCSC) ApplyT(x, y *darray.Vector) {
	checkAligned("ColBlockCSC.ApplyT", a.d, x, y)
	sweepRows(y.Local(), a.colPtr, a.row, a.val, x.GatherInto(a.xfull), nil)
	a.p.Compute(2 * a.nnzLocal)
}
