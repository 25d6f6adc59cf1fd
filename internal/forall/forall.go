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
// PROCESSOR(f(i)) construct), Indep (INDEPENDENT DO under a mapping)
// and PrivateRegion (PRIVATE arrays with MERGE(+) or DISCARD).
// examples/directives runs the PRIVATE/MERGE loop here. Experiments E3
// and E4 do not run this package: they measure the private-merge loop
// against the serialised HPF-1 one as internal/spmv's CSC executor
// modes (ModePrivateMerge, ModeSerialized).
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
