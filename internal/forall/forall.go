// Package forall implements the loop-execution model of HPF and the
// paper's proposed §5.1 extensions.
//
// HPF-1 offers FORALL and INDEPENDENT DO for parallel loops, mapped to
// processors by the owner-computes rule. The paper shows that the CSC
// sparse matrix-vector product cannot use either: its inner loop
// accumulates many-to-one into q(row(k)), a write-after-write
// dependency that violates Bernstein's conditions. The proposed fix is
//
//	!EXT$ ITERATION j ON PROCESSOR(f(j)), PRIVATE(q(n)) WITH MERGE(+)
//
// — fork a private copy of the accumulation array per processor, run
// the outer loop independently under an explicit iteration mapping, and
// merge the private copies with a global reduction at region end.
//
// This package provides exactly those pieces: IterMap (the ON
// PROCESSOR(f(i)) construct), Indep (INDEPENDENT DO under a mapping),
// Forall (FORALL semantics: all right-hand sides evaluated before
// assignment), and PrivateRegion (PRIVATE arrays with MERGE(+) or
// DISCARD). It also provides Serialized, which emulates what an HPF-1
// compiler must do with the unparallelisable loop — run it sequentially
// on one processor after gathering the operands. Experiments E3 and E4
// do not run this package: they measure the same two strategies as
// internal/spmv's CSC executor modes (ModeSerialized,
// ModePrivateMerge); examples/directives runs the PRIVATE/MERGE loop
// here.
package forall

import (
	"fmt"

	"hpfcg/internal/comm"
)

// IterMap assigns loop iterations to processors: the paper's ON
// PROCESSOR(f(i)) clause. Implementations must be deterministic and
// identical on every processor.
type IterMap interface {
	// ProcOf returns the rank that executes iteration i.
	ProcOf(i int) int
}

// MapFunc adapts a function to an IterMap — the literal ON
// PROCESSOR(f(i)) form. MapFunc(d.Owner) for a dist.Dist d is the
// owner-computes rule HPF compilers default to; under dist.NewBlock it
// is the paper's ON PROCESSOR(j/np) example (with HPF BLOCK sizing).
type MapFunc func(i int) int

// ProcOf implements IterMap.
func (f MapFunc) ProcOf(i int) int { return f(i) }

// Indep executes body(i) for every owned iteration i in [lo, hi) — the
// semantics of INDEPENDENT DO under an iteration mapping. Iterations
// must be free of cross-iteration dependencies (Bernstein's
// conditions); the runtime cannot check that, just like the HPF
// directive it models, but unlike HPF each processor here really only
// touches its own iterations. flopsPerIter charges the cost model.
func Indep(p *comm.Proc, lo, hi int, m IterMap, flopsPerIter int, body func(i int)) {
	r := p.Rank()
	count := 0
	for i := lo; i < hi; i++ {
		if m.ProcOf(i) == r {
			body(i)
			count++
		}
	}
	p.Compute(count * flopsPerIter)
}

// Forall evaluates rhs(i) for all owned iterations first, then runs
// assign(i, value) — the two-phase semantics of the HPF FORALL
// construct ("all the right-hand sides should be computed before an
// assignment to the left-hand sides be done"). Both phases follow the
// iteration mapping.
func Forall(p *comm.Proc, lo, hi int, m IterMap, flopsPerIter int, rhs func(i int) float64, assign func(i int, v float64)) {
	r := p.Rank()
	idx := make([]int, 0, (hi-lo)/p.NP()+1)
	vals := make([]float64, 0, cap(idx))
	for i := lo; i < hi; i++ {
		if m.ProcOf(i) == r {
			idx = append(idx, i)
			vals = append(vals, rhs(i))
		}
	}
	for k, i := range idx {
		assign(i, vals[k])
	}
	p.Compute(len(idx) * flopsPerIter)
}

// ForallMasked is Forall with HPF's optional mask expression
// (FORALL (i=lo:hi, mask(i)) lhs(i) = rhs(i)): only iterations whose
// mask evaluates true participate, but the two-phase semantics (all
// right-hand sides before any assignment) still hold across the masked
// set. flopsPerIter is charged per executed iteration.
func ForallMasked(p *comm.Proc, lo, hi int, m IterMap, flopsPerIter int,
	mask func(i int) bool, rhs func(i int) float64, assign func(i int, v float64)) {
	r := p.Rank()
	idx := make([]int, 0, (hi-lo)/p.NP()+1)
	vals := make([]float64, 0, cap(idx))
	for i := lo; i < hi; i++ {
		if m.ProcOf(i) == r && mask(i) {
			idx = append(idx, i)
			vals = append(vals, rhs(i))
		}
	}
	for k, i := range idx {
		assign(i, vals[k])
	}
	p.Compute(len(idx) * flopsPerIter)
}

// MergeMode selects what happens to PRIVATE data at region end, per the
// paper's WITH MERGE / WITH DISCARD options.
type MergeMode int

const (
	// MergeSum merges the private copies into a single global copy with
	// element-wise addition: WITH MERGE(+).
	MergeSum MergeMode = iota
	// Discard throws the private copies away: WITH DISCARD.
	Discard
)

// PrivateRegion is the paper's PRIVATE abstraction (Figure 5): each
// processor forks a private n-element array that stays alive for the
// whole region (unlike NEW variables, which live one iteration), runs
// its iterations against the private copy, and the region ends with a
// merge or discard.
type PrivateRegion struct {
	p    *comm.Proc
	priv []float64
	mode MergeMode
}

// NewPrivate opens a private region with an n-element zeroed private
// array on every processor. The paper notes the cost: NP temporary
// vectors of length n ("unsatisfactory ... particularly if n >> NP"),
// which is exactly what this allocates; experiment E4 reports that
// storage for spmv's private-merge executor.
func NewPrivate(p *comm.Proc, n int, mode MergeMode) *PrivateRegion {
	if n < 0 {
		panic(fmt.Sprintf("forall: private array length %d", n))
	}
	return &PrivateRegion{p: p, priv: make([]float64, n), mode: mode}
}

// Data returns this processor's private copy.
func (r *PrivateRegion) Data() []float64 { return r.priv }

// MergeReplicated closes the region, combining the private copies into
// a full-length result replicated on every processor (allreduce). For
// Discard regions it returns nil.
func (r *PrivateRegion) MergeReplicated() []float64 {
	if r.mode == Discard {
		return nil
	}
	return r.p.Allreduce(r.priv, comm.OpSum)
}

// MergeDistributed closes the region, combining the private copies
// element-wise and leaving each processor with its counts[rank] block —
// the merge a distributed LHS array (the BLOCK-distributed q of the
// paper's loop) needs. For Discard regions it returns nil.
func (r *PrivateRegion) MergeDistributed(counts []int) []float64 {
	if r.mode == Discard {
		return nil
	}
	return r.p.ReduceScatterSum(r.priv, counts)
}

// Serialized runs a loop the way an HPF-1 compiler must handle the
// dependent CSC accumulation (§4 Scenario 2, "no parallel loop
// execution is possible"): the distributed operand x is gathered,
// rank 0 executes the whole loop body sequentially against a full-size
// result array, and the result is scattered back by counts. body
// receives the gathered input and the output buffer and must be the
// sequential loop; flops is the total loop cost, charged to rank 0
// only.
func Serialized(p *comm.Proc, x []float64, xCounts, outCounts []int, n int, flops int, body func(xFull, out []float64)) []float64 {
	xFull := p.AllgatherV(x, xCounts)
	var out []float64
	if p.Rank() == 0 {
		out = make([]float64, n)
		body(xFull, out)
		p.Compute(flops)
	}
	return p.ScatterV(0, out, outCounts)
}
