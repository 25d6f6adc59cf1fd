// The halo executor: Scenario 1 with an inspector-executor instead of
// the all-to-all broadcast. At construction the column indices of the
// local rows are inspected, a communication schedule for just the
// off-processor ("ghost") elements of p is built once, and every Apply
// reuses it. For matrices with locality (banded, mesh) the halo is
// O(bandwidth) instead of O(n), turning Scenario 1's t_w·n·(NP-1)/NP
// broadcast into a neighbour exchange — the §5.1 inspector cost paid
// once and amortised over CG iterations (experiment E14).
//
// That is depth 1 of the matrix-powers kernel, the communication-
// avoiding step beyond it. An s-step Krylov solver needs the whole
// basis block {A·v, A²·v, …, Aˢ·v} per outer iteration; computing it
// with s ordinary Applies pays s ghost exchanges (s per-neighbour
// message startups). The kernel instead *widens* the inspector: at
// construction it walks the s-level reachability closure of this
// rank's row partition — ring 0 is the local rows, ring t the column
// indices first reachable in t hops — stores replicated matrix rows
// for rings 0..s-1 (the PA1 overlap of Demmel/Hoemmen/Mohiyuddin), and
// builds ONE inspector.Schedule over the ring 1..s indices. Every
// basis block then needs a single (wider) halo exchange; the redundant
// flops on the overlap rows are the latency-for-flops trade the s-step
// cost model (hpfexec's Prepared.Frontier, from PowersStats) weighs
// against saved allreduce and exchange startups.
//
// Level j of a depth-dep basis is computed only on the row prefix
// rings 0..dep-j (the rows whose level-j values later levels still
// need), so the per-level sweep shrinks back to exactly the local rows
// at the top level; summation per row is in the original CSR column
// order, which keeps every produced vector bit-identical to the one
// j repeated depth-1 Applies would yield.
package spmv

import (
	"fmt"
	"sort"

	"hpfcg/internal/comm"
	"hpfcg/internal/darray"
	"hpfcg/internal/dist"
	"hpfcg/internal/inspector"
	"hpfcg/internal/sparse"
)

// PowersOperator is implemented by operators that can compute blocks of
// Krylov basis vectors from one widened ghost exchange — the
// matrix-powers kernel contract core.CGSStep consumes.
type PowersOperator interface {
	Operator
	// MaxDepth is the closure depth the operator was inspected for; a
	// basis of any depth up to it can be produced per block.
	MaxDepth() int
	// ApplyPowersBlock fills outs[v][j] = A^(j+1) · seeds[v] for every
	// seed, with len(outs[v]) in [1, MaxDepth()], using a single halo
	// exchange (all seeds' ghosts packed into one message round) for
	// the whole block.
	ApplyPowersBlock(seeds []*darray.Vector, outs [][]*darray.Vector)
}

// RowBlockCSRPowers is the row-block CSR halo executor, inspected to a
// closure depth: an Operator whose Apply/ApplyDot exchange the (depth-
// wide) halo and sum each local row in CSR order — the same values at
// every depth — and that additionally serves whole basis blocks of up
// to depth levels through ApplyPowersBlock.
type RowBlockCSRPowers struct {
	p     *comm.Proc
	d     dist.Contiguous
	depth int
	sched *inspector.Schedule

	nLocal int // local rows (== ring 0 == value slots 0..nLocal-1)
	nSlots int // nLocal + widened ghost count

	// The value-slot space is the local block, then the closure's ghosts
	// in ring order (ring 1, ..., ring depth, each sorted by global
	// index) — so extended row i, local or replicated, produces slot i,
	// and a level of ApplyPowersBlock is one sweep over a row prefix.
	// The exchange delivers ghosts in the inspector's order (sorted by
	// global index); ghostSlot[s] is the value slot of inspector slot s.
	// At depth 1 the two orders coincide and ghostSlot is nil: that
	// executor keeps no slot map at all.
	ghostSlot []int
	// The replicated extended rows, ring-ordered, their entries'
	// columns as value slots.
	rowPtr  []int
	colSlot []int
	val     []float64
	// ringEnd[t] = extended rows in rings 0..t (t = 0..depth-1);
	// nnzAt[t] the stored entries among them. Level j of a depth-dep
	// basis sweeps the prefix ringEnd[dep-j].
	ringEnd []int
	nnzAt   []int
	// cumEntries[dep] = total entries swept producing a depth-dep basis
	// (sum of the per-level prefixes) — the flop-charge table.
	cumEntries []int

	// xs is the slot vector Apply and ApplyDot sweep: x's local block and
	// its exchanged ghosts, laid out in value slots.
	xs []float64

	// Ping-pong level buffers of ApplyPowersBlock, set up by its first
	// call (a plain CG solve never needs them): work0 is xs itself,
	// work1 a second slot vector. Steady state allocates nothing.
	work0, work1 []float64
	seedLocals   [][]float64 // reusable ExchangeBlock argument

	n, nnz, nnzLocal int
}

// powersClosure walks the depth-level reachability closure of rank's
// row partition in A: extRows lists rings 0..depth-1 in ring order
// (ring 0 = the local rows, each later ring sorted by global index),
// ringEnd[t] the prefix length of rings 0..t, and ghosts every index of
// rings 1..depth — the widened halo one exchange must fetch. Pure and
// communication-free: every rank holds the full CSR at construction, so
// the closure inspection is local (the collective part is only the
// inspector.Build request exchange).
func powersClosure(A *sparse.CSR, d dist.Contiguous, rank, depth int) (extRows, ringEnd, ghosts []int) {
	lo := d.Lo(rank)
	cnt := d.Count(rank)
	seen := make([]bool, A.NRows)
	extRows = make([]int, 0, cnt)
	for i := lo; i < lo+cnt; i++ {
		seen[i] = true
		extRows = append(extRows, i)
	}
	ringEnd = make([]int, depth)
	ringEnd[0] = cnt
	frontier := extRows
	for t := 1; t <= depth; t++ {
		var next []int
		for _, i := range frontier {
			for k := A.RowPtr[i]; k < A.RowPtr[i+1]; k++ {
				if c := A.Col[k]; !seen[c] {
					seen[c] = true
					next = append(next, c)
				}
			}
		}
		sort.Ints(next)
		ghosts = append(ghosts, next...)
		if t < depth {
			extRows = append(extRows, next...)
			ringEnd[t] = len(extRows)
		}
		frontier = next
	}
	return extRows, ringEnd, ghosts
}

// ghostSlots maps the inspector's ghost slots to value slots, which
// follow the closure's ring order (ghosts) after the base local ones.
// It returns nil when the two orders coincide — at depth 1 both are the
// halo sorted by global index.
func ghostSlots(sched *inspector.Schedule, ghosts []int, base int) []int {
	for j, g := range ghosts {
		if sched.GhostSlot(g) == j {
			continue
		}
		m := make([]int, len(ghosts))
		for j, g := range ghosts {
			m[sched.GhostSlot(g)] = base + j
		}
		return m
	}
	return nil
}

// NewRowBlockCSRGhost builds the single-level halo executor: the
// depth-1 kernel, whose ghost set is exactly the off-processor columns
// of the local rows.
func NewRowBlockCSRGhost(p *comm.Proc, A *sparse.CSR, d dist.Contiguous) *RowBlockCSRPowers {
	return NewRowBlockCSRPowers(p, A, d, 1)
}

// NewRowBlockCSRPowers slices the row strip, inspects the depth-level
// closure and runs the widened inspector (collective: every processor
// must construct it together).
func NewRowBlockCSRPowers(p *comm.Proc, A *sparse.CSR, d dist.Contiguous, depth int) *RowBlockCSRPowers {
	checkShape(p, A, d)
	if depth < 1 {
		panic(fmt.Sprintf("spmv: powers depth %d < 1", depth))
	}
	r := p.Rank()
	lo := d.Lo(r)
	cnt := d.Count(r)
	extRows, ringEnd, ghosts := powersClosure(A, d, r, depth)
	sched := inspector.Build(p, d, ghosts)

	a := &RowBlockCSRPowers{
		p:         p,
		d:         d,
		depth:     depth,
		sched:     sched,
		nLocal:    cnt,
		nSlots:    cnt + sched.NGhosts(),
		ghostSlot: ghostSlots(sched, ghosts, cnt),
		rowPtr:    make([]int, len(extRows)+1),
		ringEnd:   ringEnd,
		nnzAt:     make([]int, depth),
		n:         A.NRows,
		nnz:       A.NNZ(),
	}
	for ei, i := range extRows {
		a.rowPtr[ei+1] = a.rowPtr[ei] + A.RowPtr[i+1] - A.RowPtr[i]
	}
	a.nnzLocal = a.rowPtr[cnt]
	stored := a.rowPtr[len(extRows)]
	// The local rows are contiguous in A, so the depth-1 kernel reads
	// their values in place; only replicated overlap rows force a copy.
	a.val = A.Val[A.RowPtr[lo] : A.RowPtr[lo]+a.nnzLocal]
	if depth > 1 {
		a.val = make([]float64, stored)
	}
	a.colSlot = make([]int, stored)
	slot := func(g int) int {
		if g >= lo && g < lo+cnt {
			return g - lo
		}
		if a.ghostSlot == nil {
			return cnt + sched.GhostSlot(g)
		}
		return a.ghostSlot[sched.GhostSlot(g)]
	}
	for ei, i := range extRows {
		at := a.rowPtr[ei]
		if depth > 1 {
			copy(a.val[at:], A.Val[A.RowPtr[i]:A.RowPtr[i+1]])
		}
		for k := A.RowPtr[i]; k < A.RowPtr[i+1]; k++ {
			a.colSlot[at] = slot(A.Col[k])
			at++
		}
	}
	for t := 0; t < depth; t++ {
		a.nnzAt[t] = a.rowPtr[a.ringEnd[t]]
	}
	// cumEntries[dep] = sum_{j=1..dep} nnzAt[dep-j] = entries swept for
	// one depth-dep basis.
	a.cumEntries = make([]int, depth+1)
	for dep := 1; dep <= depth; dep++ {
		sum := 0
		for t := 0; t < dep; t++ {
			sum += a.nnzAt[t]
		}
		a.cumEntries[dep] = sum
	}
	a.xs = make([]float64, a.nSlots)
	return a
}

// N implements Operator.
func (a *RowBlockCSRPowers) N() int { return a.n }

// NNZ implements Operator.
func (a *RowBlockCSRPowers) NNZ() int { return a.nnz }

// LocalNNZ returns this processor's own (ring 0) stored entries.
func (a *RowBlockCSRPowers) LocalNNZ() int { return a.nnzLocal }

// OverlapNNZ returns the replicated entries of rings 1..depth-1 — the
// redundancy the latency saving is bought with.
func (a *RowBlockCSRPowers) OverlapNNZ() int { return len(a.val) - a.nnzLocal }

// NGhosts returns the widened halo size (indices of rings 1..depth).
func (a *RowBlockCSRPowers) NGhosts() int { return a.sched.NGhosts() }

// MaxDepth implements PowersOperator.
func (a *RowBlockCSRPowers) MaxDepth() int { return a.depth }

// Rebind implements Rebindable: re-attach the kernel and its widened
// inspector schedule to a new run's processor handle, so a cached
// s-step plan (hpfexec.Registry) skips the closure inspection and the
// request exchange entirely on warm traffic.
func (a *RowBlockCSRPowers) Rebind(p *comm.Proc) {
	checkRebind("RowBlockCSRPowers", a.p, p)
	a.p = p
	a.sched.Rebind(p)
}

// fill lays a vector out in value slots in dst: its local block, then
// the ghosts the exchange delivered for it.
func (a *RowBlockCSRPowers) fill(dst, local, ghosts []float64) []float64 {
	copy(dst, local)
	if a.ghostSlot == nil {
		copy(dst[a.nLocal:], ghosts)
	} else {
		for s, v := range ghosts {
			dst[a.ghostSlot[s]] = v
		}
	}
	return dst
}

// Apply implements Operator: one halo exchange into the slot vector,
// then the local rows swept over it. Values do not depend on the depth
// — the summation runs over the same entries in the same CSR order —
// only the modeled exchange widens with it.
func (a *RowBlockCSRPowers) Apply(x, y *darray.Vector) {
	checkAligned("RowBlockCSRPowers.Apply", a.d, x, y)
	xl := x.Local()
	xs := a.fill(a.xs, xl, a.sched.Exchange(xl))
	sweepRows(y.Local(), a.rowPtr[:a.nLocal+1], a.colSlot, a.val, xs, nil)
	a.p.Compute(2 * a.nnzLocal)
}

// ApplyDot implements FusedOperator (see RowBlockCSR.ApplyDot for the
// bit-identity argument).
func (a *RowBlockCSRPowers) ApplyDot(x, y *darray.Vector) float64 {
	checkAligned("RowBlockCSRPowers.ApplyDot", a.d, x, y)
	xl := x.Local()
	xs := a.fill(a.xs, xl, a.sched.Exchange(xl))
	dot := sweepRows(y.Local(), a.rowPtr[:a.nLocal+1], a.colSlot, a.val, xs, xl)
	a.p.Compute(2*a.nnzLocal + 2*a.nLocal)
	return dot
}

// ApplyPowersBlock implements PowersOperator: all seeds' halos travel
// in one packed exchange, then each basis chain is evaluated level by
// level over the shrinking ring prefixes. Steady state allocates
// nothing (the ping-pong buffers and the schedule's block ghost
// buffers are reused).
func (a *RowBlockCSRPowers) ApplyPowersBlock(seeds []*darray.Vector, outs [][]*darray.Vector) {
	if len(seeds) != len(outs) {
		panic(fmt.Sprintf("spmv: %d seeds for %d output chains", len(seeds), len(outs)))
	}
	for v, chain := range outs {
		if len(chain) < 1 || len(chain) > a.depth {
			panic(fmt.Sprintf("spmv: basis depth %d outside [1,%d]", len(chain), a.depth))
		}
		checkAligned("RowBlockCSRPowers.ApplyPowersBlock", a.d, seeds[v], chain[len(chain)-1])
	}
	for len(a.seedLocals) < len(seeds) {
		a.seedLocals = append(a.seedLocals, nil)
	}
	locals := a.seedLocals[:len(seeds)]
	for v, sv := range seeds {
		locals[v] = sv.Local()
	}
	ghosts := a.sched.ExchangeBlock(locals)
	if a.work0 == nil {
		a.work0 = a.xs
		a.work1 = make([]float64, a.nSlots)
	}
	entries := 0
	for v := range seeds {
		dep := len(outs[v])
		// Level 0: the seed's values over every slot of the closure.
		prev := a.fill(a.work0, locals[v], ghosts[v])
		cur := a.work1
		for j := 1; j <= dep; j++ {
			// Extended row i produces value slot i, so a level writes its
			// row prefix in place.
			sweepRows(cur, a.rowPtr[:a.ringEnd[dep-j]+1], a.colSlot, a.val, prev, nil)
			copy(outs[v][j-1].Local(), cur[:a.nLocal])
			prev, cur = cur, prev
		}
		entries += a.cumEntries[dep]
	}
	a.p.Compute(2 * entries)
}

// PowersStats reports, without any communication, the per-rank maxima
// a kernel under d would incur producing the CG s-step basis pair (one
// s-deep chain for p, one (s-1)-deep chain for r) per block, at every
// depth s = 1..maxDepth: maxBlockEntries[s] is the largest per-rank
// count of stored entries swept (local + replicated overlap, all
// levels), maxGhosts[s] the widest per-rank ghost set of the depth-s
// closure (index 0 of both is unused). These are the exact
// flops-vs-rounds inputs of the s-selection cost model — the same
// numbers the kernel itself will charge.
//
// The closure's rings are breadth-first levels, so rings 0..s of one
// depth-maxDepth walk are the depth-s closure: one walk per rank prices
// every depth. It counts each ring's rows and stored entries and keeps
// no ring: ring order matters only to the kernel (powersClosure), and
// one stamp array (marked rank+1) and two frontier buffers serve all
// ranks.
func PowersStats(A *sparse.CSR, d dist.Contiguous, np, maxDepth int) (maxBlockEntries, maxGhosts []int) {
	maxBlockEntries = make([]int, maxDepth+1)
	maxGhosts = make([]int, maxDepth+1)
	// ringRows[t] is ring t's row count (t = 1..maxDepth), ringNNZ[t]
	// its rows' stored entries (t = 0..maxDepth-1).
	ringRows := make([]int, maxDepth+1)
	ringNNZ := make([]int, maxDepth)
	stamp := make([]int32, A.NRows)
	var frontier, next []int
	for r := 0; r < np; r++ {
		mark := int32(r + 1)
		lo, cnt := d.Lo(r), d.Count(r)
		frontier = frontier[:0]
		for i := lo; i < lo+cnt; i++ {
			stamp[i] = mark
			frontier = append(frontier, i)
		}
		for t := 1; t <= maxDepth; t++ {
			next = next[:0]
			nnz := 0
			for _, i := range frontier {
				nnz += A.RowPtr[i+1] - A.RowPtr[i]
				for _, c := range A.Col[A.RowPtr[i]:A.RowPtr[i+1]] {
					if stamp[c] != mark {
						stamp[c] = mark
						next = append(next, c)
					}
				}
			}
			ringNNZ[t-1], ringRows[t] = nnz, len(next)
			frontier, next = next, frontier
		}
		// At depth s the p chain sweeps the prefixes rings 0..t for
		// t = 0..s-1 and the r chain those for t = 0..s-2, so with
		// sweep(s) = the p chain's entries, entries(s) = sweep(s) +
		// sweep(s-1).
		prefix, sweep, ghosts := 0, 0, 0
		for s := 1; s <= maxDepth; s++ {
			prefix += ringNNZ[s-1]
			entries := 2*sweep + prefix
			sweep += prefix
			ghosts += ringRows[s]
			maxBlockEntries[s] = max(maxBlockEntries[s], entries)
			maxGhosts[s] = max(maxGhosts[s], ghosts)
		}
	}
	return maxBlockEntries, maxGhosts
}
