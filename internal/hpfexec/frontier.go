// The variant frontier: one price list, in the paper's §4 cost model
// (topology.CostParams), of every CG variant a handle's backend can
// run, and the one argmin that both reports it (E23, E26) and resolves
// Auto — the served default — over every row. The backend prices
// itself (Prepared.Frontier): the assembled CSR matrix from
// spmv.PowersStats — the exact per-rank reachability closure the
// kernels sweep, one count-only walk per rank to the deepest candidate
// pricing every depth at once, so a cold auto job's pricing costs a
// small share of its solve — and the matrix-free stencil from its
// brick (mfree.Spec.Shape), which equals PowersStats on the assembled
// twin. So the selector and the executors price the same work.
//
// Plain CG pays two one-word allreduce rounds and one halo exchange per
// iteration. The s-step variant amortizes the latency: one
// m(m+1)/2-word Gram allreduce (m = 2s+1) and one widened two-vector
// halo per s iterations, plus the extra overlap flops of the
// matrix-powers closure and the basis bookkeeping. The pipelined
// variant hides it: one two-word nonblocking allreduce runs
// concurrently with the iteration's mat-vec, so the round costs
// max(reduction, mat-vec) instead of their sum
// (comm.IallreduceScalars). It also pays once per solve what plain CG
// does not — the w = A·r apply before its first round and the
// confirming restart's apply and merge — which the row carries spread
// over the backend's iteration floor.
package hpfexec

import (
	"math"
	"slices"

	"hpfcg/internal/comm"
	"hpfcg/internal/spmv"
	"hpfcg/internal/topology"
)

// MaxSStep bounds the blocking factor a Variant may fix. Beyond
// this the monomial basis is numerically useless and the Gram round
// ((2s+1)(2s+2)/2 words) stops being small.
const MaxSStep = 16

// SStepCandidates are the blocking factors the auto-selector prices.
// 1 is plain CG; powers of two up to 8 cover the regime where the
// monomial basis stays stable under the diagonal Gram scaling.
var SStepCandidates = []int{1, 2, 4, 8}

// FrontierRow is the modeled per-iteration cost of one CG variant on a
// concrete machine and backend.
type FrontierRow struct {
	// Variant is the servable variant the row prices — what WithVariant
	// takes to run it: Plain, SStep(s) or Pipelined.
	Variant Variant
	// TimePerIter is the modeled makespan of one CG iteration (an s-step
	// row's block cost divided by s).
	TimePerIter float64
	// Overhead is the modeled time the row's recurrence pays once per
	// solve beyond plain CG's, divided by the backend's iteration floor
	// (the fewest iterations a solve on it takes): nonzero only for
	// the pipelined row, and 0 on a backend with no floor (+Inf, the
	// assembled matrix), where every row's Price is its TimePerIter.
	Overhead float64
	// RoundsPerIter is the allreduce rounds per iteration a blocking
	// clock would count: 2 for plain CG, 1/s for the batched Gram
	// recovery, 1 for pipelined — which starts the round but hides it.
	RoundsPerIter float64
	// HiddenTime is the modeled reduction time the overlap absorbs per
	// iteration, min(reduction, mat-vec window); nonzero only for the
	// pipelined row.
	HiddenTime float64
	// BlockEntries is the max per-rank matrix entries one sweep of the
	// row's closure visits (spmv.PowersStats's depth-s entry; depth 1
	// for plain and pipelined); Ghosts the halo width it fetches.
	BlockEntries int
	Ghosts       int
}

// Price is the per-iteration figure Cheapest minimises: TimePerIter
// plus Overhead.
func (r FrontierRow) Price() float64 { return r.TimePerIter + r.Overhead }

// Frontier prices every variant the handle's backend runs on its
// machine, the rows Auto chooses among: plain CG, then on a CSR layout
// s-step CG at every factor >= 2 in SStepCandidates by rising factor,
// then pipelined CG — the order Cheapest breaks ties in, so the
// pipelined row is always last and the rows before it are the blocking
// ones. It is nil for a backend the cost model does not price: a CSC
// layout, whose Auto is Plain, and hpcg, which refuses Auto.
func (pr *Prepared) Frontier() []FrontierRow { return pr.be.frontier(pr.m) }

// cgRows prices plain and pipelined CG on an operator whose largest
// per-rank apply sweeps entries stored entries and fetches ghosts
// points, over vectors of at most nloc points per rank, on a backend
// whose solves take at least floor iterations (+Inf where none is
// known).
func cgRows(m *comm.Machine, entries, ghosts, nloc int, floor float64) (plain, pipelined FrontierRow) {
	np := m.NP()
	topo, c := m.Topology(), m.Cost()

	// Plain CG: per iteration, one mat-vec (halo g1), two scalar
	// allreduces, and the 5 length-n vector ops of Figure 2.
	plain = FrontierRow{
		Variant:       Plain(),
		RoundsPerIter: 2,
		BlockEntries:  entries,
		Ghosts:        ghosts,
		TimePerIter: 2*topology.AllreduceTime(topo, c, np, 1) +
			haloTime(c, ghosts, 1) +
			c.TFlop*(2*float64(entries)+10*float64(nloc)),
	}

	// Pipelined: the two-word allreduce overlaps the q = A·w halo
	// exchange and matrix sweep (the iteration pays whichever is longer),
	// plus the Ghysels–Vanroose recurrence's 16·nloc vector flops (two
	// local dots and six axpy-shaped updates) outside the window. Once
	// per solve it applies A twice more than plain CG (w = A·r, and the
	// confirming restart's residual) and merges the restart's norm.
	red := topology.AllreduceTime(topo, c, np, 2)
	window := haloTime(c, ghosts, 1) + c.TFlop*2*float64(entries)
	pipelined = FrontierRow{
		Variant:       Pipelined(),
		RoundsPerIter: 1,
		HiddenTime:    math.Min(red, window),
		BlockEntries:  entries,
		Ghosts:        ghosts,
		TimePerIter:   math.Max(red, window) + c.TFlop*16*float64(nloc),
		Overhead:      (2*window + topology.AllreduceTime(topo, c, np, 1)) / floor,
	}
	return plain, pipelined
}

// frontier prices the CSR layouts: plain, each s-step candidate and
// pipelined, from the matrix's own powers closure, walked once to the
// deepest candidate. The matrix knows no iteration floor, so no row
// carries an overhead.
func (mb *matrixBackend) frontier(m *comm.Machine) []FrontierRow {
	if mb.format != BackendCSR {
		return nil
	}
	np := m.NP()
	topo, c := m.Topology(), m.Cost()
	nloc := 0
	for r := 0; r < np; r++ {
		nloc = max(nloc, mb.d.Count(r))
	}
	entries, ghosts := spmv.PowersStats(mb.A, mb.d, np, slices.Max(SStepCandidates))
	plain, pipelined := cgRows(m, entries[1], ghosts[1], nloc, math.Inf(1))

	rows := append(make([]FrontierRow, 0, len(SStepCandidates)+2), plain)
	for _, s := range SStepCandidates {
		if s <= 1 {
			continue
		}
		mcols := 2*s + 1
		nG := mcols * (mcols + 1) / 2
		// Per block: the widened two-seed halo, the basis sweep over the
		// closure, the local Gram triangle, one nG-word allreduce, three
		// recovery gemvs, and s inner steps on m-length coefficients.
		blockFlops := 2*float64(entries[s]) + // matrix-powers sweep
			2*float64(nloc*nG) + // Gram triangle partials
			6*float64(mcols*nloc) + // recover x, r, p
			float64(s)*(4*float64(mcols*mcols)+12*float64(mcols)) // quads + coeff updates
		blockTime := topology.AllreduceTime(topo, c, np, nG) +
			haloTime(c, ghosts[s], 2) +
			c.TFlop*blockFlops
		rows = append(rows, FrontierRow{
			Variant:       SStep(s),
			RoundsPerIter: 1 / float64(s),
			BlockEntries:  entries[s],
			Ghosts:        ghosts[s],
			TimePerIter:   blockTime / float64(s),
		})
	}
	return append(rows, pipelined)
}

// haloTime prices one halo exchange of k vectors' ghost values: a
// single nearest-neighbour message of k*8*ghosts bytes (ExchangeBlock
// packs the vectors into one message per neighbour pair).
func haloTime(c topology.CostParams, ghosts, k int) float64 {
	if ghosts == 0 {
		return 0
	}
	return c.PtToPtTime(1, k*8*ghosts)
}

// Cheapest returns the row of least Price. Ties go to the earlier row
// — plain, then s-step by rising s, then pipelined — so blocking or
// overlap is never bought for free. A caller that asks only which
// blocking factor wins passes Frontier's rows without the last
// (pipelined) one. rows must not be empty.
func Cheapest(rows []FrontierRow) FrontierRow {
	best := rows[0]
	for _, row := range rows[1:] {
		if row.Price() < best.Price() {
			best = row
		}
	}
	return best
}
