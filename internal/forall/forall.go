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
// This package provides the last piece, PrivateRegion (a PRIVATE array
// WITH MERGE(+)), the repo's one private accumulator, in two sizes. The
// loop's ON PROCESSOR(f(j)) map is not executed here: hpfexec evaluates
// it once at Prepare and refuses a map that does not send column j to
// the processor owning it, so the CSC executors' owner-computes column
// blocks are the map as written. The paper's region (NewPrivate) holds
// a full-length copy merged by a reduce-scatter: spmv's dense-merge CSC
// executor (experiments E3/E4/E15) and RowBlockCSR.ApplyT open one. An
// inspected region (NewPrivateInspected) holds only the owned block and
// the ghost slots of an inspector schedule and merges by running that
// schedule in reverse: spmv's private-merge CSC executor, so the served
// csc-merge layout, opens one. WITH DISCARD has no executor: hpfexec
// refuses it with the directive's line.
package forall

import (
	"fmt"

	"hpfcg/internal/comm"
	"hpfcg/internal/inspector"
)

// PrivateRegion is the paper's PRIVATE abstraction (Figure 5): each
// processor holds a private copy of a distributed array that stays
// alive for the whole region (unlike NEW variables, which live one
// iteration), runs its iterations against the private copy, and the
// region ends with a merge. The copy is allocated once and reused by
// every region opened on it, so an operator that builds its region once
// applies with no allocation. A dense region holds no processor
// handle: operators carried across runs by a plan cache are rebound to
// each run's processor, and the merge takes the calling rank's. An
// inspected region merges on its schedule's processor, which the
// operator rebinds with the schedule.
type PrivateRegion struct {
	priv []float64
	// counts are the blocks of the dense region's reduce-scatter; sched
	// is the inspected region's schedule, nil for a dense region.
	counts []int
	sched  *inspector.Schedule
}

// NewPrivate allocates a private copy of an array distributed in
// contiguous blocks of counts[r] elements on rank r — its full length
// is the sum of counts. The paper notes the cost: NP temporary vectors
// of length n ("unsatisfactory ... particularly if n >> NP"), which is
// exactly what one region per processor holds; experiment E4 reports
// that storage for spmv's dense-merge executor. counts is kept, not
// copied.
func NewPrivate(counts []int) *PrivateRegion {
	n := 0
	for r, c := range counts {
		if c < 0 {
			panic(fmt.Sprintf("forall: private array block %d has length %d", r, c))
		}
		n += c
	}
	return &PrivateRegion{priv: make([]float64, n), counts: counts}
}

// NewPrivateInspected allocates a private copy of only the elements an
// inspector schedule names: the nloc elements this processor owns, then
// the schedule's ghost slots — nloc + s.NGhosts() words instead of the
// array's full length, the storage the paper finds "unsatisfactory ...
// particularly if n >> NP" cut to what the region's iterations write.
// Iterations accumulate into an owned element at its local offset and
// into remote element g at nloc + s.GhostSlot(g). The merge runs the schedule in
// reverse on the schedule's own processor, so whoever rebinds the
// schedule to a new run rebinds the merge with it.
func NewPrivateInspected(nloc int, s *inspector.Schedule) *PrivateRegion {
	return &PrivateRegion{priv: make([]float64, nloc+s.NGhosts()), sched: s}
}

// Open starts a region: it zeroes this processor's private copy and
// returns it for the region's iterations to accumulate into.
func (r *PrivateRegion) Open() []float64 {
	clear(r.priv)
	return r.priv
}

// MergeDistributed closes the region WITH MERGE(+): it sums every
// processor's private copy element-wise and writes this processor's
// block of the sum into dst — the merge a distributed LHS array (the
// BLOCK-distributed q of the paper's loop) needs. Every processor calls
// it with its own p; dst must hold the calling rank's block. Each
// element of the sum is the owner's partial, then the other ranks' in
// ascending rank: a dense region reduce-scatters the full copies, an
// inspected one sends each ghost partial to its owner alone, and since
// every partial is summed from +0.0 (never -0.0), the +0.0 the dense
// merge adds for a rank that never wrote an element is an identity —
// the two merges agree bit for bit.
func (r *PrivateRegion) MergeDistributed(p *comm.Proc, dst []float64) {
	if r.sched == nil {
		p.ReduceScatterSum(r.priv, r.counts, dst)
		return
	}
	nloc := len(r.priv) - r.sched.NGhosts()
	copy(dst, r.priv[:nloc])
	r.sched.ReverseExchange(r.priv[nloc:], dst)
}
