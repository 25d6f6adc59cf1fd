// The variant frontier: one price list, in the paper's §4 cost model
// (topology.CostParams), of every CG variant a handle can run, and the
// one argmin that both reports it (E23, E26) and resolves Auto — the
// served default — over every row.
//
// Plain CG pays two one-word allreduce rounds and one halo exchange per
// iteration. The s-step variant amortizes the latency: one
// m(m+1)/2-word Gram allreduce (m = 2s+1) and one widened two-vector
// halo per s iterations, plus the extra overlap flops of the
// matrix-powers closure and the basis bookkeeping. The pipelined
// variant hides it: one two-word nonblocking allreduce runs
// concurrently with the iteration's mat-vec, so the round costs
// max(reduction, mat-vec) instead of their sum
// (comm.IallreduceScalars). The flop side of every row comes from
// spmv.PowersStats — the exact per-rank reachability closure the
// kernels sweep — so the selector and the executors price the same
// work.
package hpfexec

import (
	"math"

	"hpfcg/internal/comm"
	"hpfcg/internal/dist"
	"hpfcg/internal/sparse"
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
// concrete machine/matrix/distribution triple.
type FrontierRow struct {
	// Variant is the servable variant the row prices — what WithVariant
	// takes to run it: Plain, SStep(s) or Pipelined.
	Variant Variant
	// TimePerIter is the modeled makespan of one CG iteration (an s-step
	// row's block cost divided by s).
	TimePerIter float64
	// RoundsPerIter is the allreduce rounds per iteration a blocking
	// clock would count: 2 for plain CG, 1/s for the batched Gram
	// recovery, 1 for pipelined — which starts the round but hides it.
	RoundsPerIter float64
	// HiddenTime is the modeled reduction time the overlap absorbs per
	// iteration, min(reduction, mat-vec window); nonzero only for the
	// pipelined row.
	HiddenTime float64
	// BlockEntries is the max per-rank matrix entries one sweep of the
	// row's closure visits (spmv.PowersStats at depth s; depth 1 for
	// plain and pipelined); Ghosts the halo width it fetches.
	BlockEntries int
	Ghosts       int
}

// Frontier prices plain CG, s-step CG at every factor >= 2 in
// SStepCandidates, and pipelined CG for matrix A distributed by d over
// the machine's ranks. Rows come in that order, the s-step rows by
// rising factor — the order Cheapest breaks ties in — so the pipelined
// row is always last and the rows before it are the blocking ones. The
// depth-1 closure is swept once and shared by the plain and pipelined
// rows.
func Frontier(m *comm.Machine, A *sparse.CSR, d dist.Contiguous) []FrontierRow {
	np := m.NP()
	topo, c := m.Topology(), m.Cost()
	nloc := 0
	for r := 0; r < np; r++ {
		if cnt := d.Count(r); cnt > nloc {
			nloc = cnt
		}
	}
	entries, ghosts := spmv.PowersStats(A, d, np, 1)

	// Plain CG: per iteration, one mat-vec (halo g1), two scalar
	// allreduces, and the 5 length-n vector ops of Figure 2.
	rows := append(make([]FrontierRow, 0, len(SStepCandidates)+2), FrontierRow{
		Variant:       Plain(),
		RoundsPerIter: 2,
		BlockEntries:  entries,
		Ghosts:        ghosts,
		TimePerIter: 2*topology.AllreduceTime(topo, c, np, 1) +
			haloTime(c, ghosts, 1) +
			c.TFlop*(2*float64(entries)+10*float64(nloc)),
	})

	for _, s := range SStepCandidates {
		if s <= 1 {
			continue
		}
		sEntries, sGhosts := spmv.PowersStats(A, d, np, s)
		mcols := 2*s + 1
		nG := mcols * (mcols + 1) / 2
		// Per block: the widened two-seed halo, the basis sweep over the
		// closure, the local Gram triangle, one nG-word allreduce, three
		// recovery gemvs, and s inner steps on m-length coefficients.
		blockFlops := 2*float64(sEntries) + // matrix-powers sweep
			2*float64(nloc*nG) + // Gram triangle partials
			6*float64(mcols*nloc) + // recover x, r, p
			float64(s)*(4*float64(mcols*mcols)+12*float64(mcols)) // quads + coeff updates
		blockTime := topology.AllreduceTime(topo, c, np, nG) +
			haloTime(c, sGhosts, 2) +
			c.TFlop*blockFlops
		rows = append(rows, FrontierRow{
			Variant:       SStep(s),
			RoundsPerIter: 1 / float64(s),
			BlockEntries:  sEntries,
			Ghosts:        sGhosts,
			TimePerIter:   blockTime / float64(s),
		})
	}

	// Pipelined: the two-word allreduce overlaps the q = A·w halo
	// exchange and matrix sweep (the iteration pays whichever is longer),
	// plus the Ghysels–Vanroose recurrence's 16·nloc vector flops (two
	// local dots and six axpy-shaped updates) outside the window.
	red := topology.AllreduceTime(topo, c, np, 2)
	window := haloTime(c, ghosts, 1) + c.TFlop*2*float64(entries)
	return append(rows, FrontierRow{
		Variant:       Pipelined(),
		RoundsPerIter: 1,
		HiddenTime:    math.Min(red, window),
		BlockEntries:  entries,
		Ghosts:        ghosts,
		TimePerIter:   math.Max(red, window) + c.TFlop*16*float64(nloc),
	})
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

// Cheapest returns the row of least TimePerIter. Ties go to the
// earlier row — plain, then s-step by rising s, then pipelined — so
// blocking or overlap is never bought for free. A caller that asks only
// which blocking factor wins passes Frontier's rows without the last
// (pipelined) one. rows must not be empty.
func Cheapest(rows []FrontierRow) FrontierRow {
	best := rows[0]
	for _, row := range rows[1:] {
		if row.TimePerIter < best.TimePerIter {
			best = row
		}
	}
	return best
}
