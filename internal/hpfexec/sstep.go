// The s-step cost model: selection of the communication-avoiding
// blocking factor a Variant with AutoSStep resolves to.
//
// The model prices one CG iteration at blocking factor s with the
// paper's §4 machine constants (topology.CostParams): plain CG pays
// two one-word allreduce rounds and one halo exchange per iteration,
// while the s-step variant pays one m(m+1)/2-word Gram allreduce
// (m = 2s+1) and one widened two-vector halo per s iterations, plus
// the extra overlap flops of the matrix-powers closure and the basis
// bookkeeping. The flop side comes from spmv.PowersStats — the exact
// per-rank reachability closure the kernel itself sweeps — so the
// selector and the executor price the same work.
package hpfexec

import (
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

// SStepModel is the modeled per-iteration cost of running CG at one
// blocking factor on a concrete machine/matrix/distribution triple.
type SStepModel struct {
	S int
	// TimePerIter is the modeled makespan of one CG iteration: the
	// s-step block cost divided by s.
	TimePerIter float64
	// RoundsPerIter is the allreduce rounds per iteration (2 for plain
	// CG, 1/s for the batched Gram recovery).
	RoundsPerIter float64
	// BlockEntries is the max per-rank matrix entries one basis block
	// sweeps (spmv.PowersStats); Ghosts the widened halo width.
	BlockEntries int
	Ghosts       int
}

// ModelSStep prices one CG iteration at blocking factor s >= 1 for
// matrix A distributed by d over the machine's np ranks, using the
// machine's topology and cost constants.
func ModelSStep(m *comm.Machine, A *sparse.CSR, d dist.Contiguous, s int) SStepModel {
	np := m.NP()
	topo, c := m.Topology(), m.Cost()
	nloc := 0
	for r := 0; r < np; r++ {
		if cnt := d.Count(r); cnt > nloc {
			nloc = cnt
		}
	}
	entries, ghosts := spmv.PowersStats(A, d, np, s)
	mod := SStepModel{S: s, BlockEntries: entries, Ghosts: ghosts}
	if s <= 1 {
		// Plain CG: per iteration, one mat-vec (halo g1), two scalar
		// allreduces, and the 5 length-n vector ops of Figure 2.
		mod.RoundsPerIter = 2
		flops := 2*float64(entries) + 10*float64(nloc)
		mod.TimePerIter = 2*topology.AllreduceTime(topo, c, np, 1) +
			haloTime(c, ghosts, 1) +
			c.TFlop*flops
		return mod
	}
	mcols := 2*s + 1
	nG := mcols * (mcols + 1) / 2
	mod.RoundsPerIter = 1 / float64(s)
	// Per block: the widened two-seed halo, the basis sweep over the
	// closure, the local Gram triangle, one nG-word allreduce, three
	// recovery gemvs, and s inner steps on m-length coefficients.
	blockFlops := 2*float64(entries) + // matrix-powers sweep
		2*float64(nloc*nG) + // Gram triangle partials
		6*float64(mcols*nloc) + // recover x, r, p
		float64(s)*(4*float64(mcols*mcols)+12*float64(mcols)) // quads + coeff updates
	blockTime := topology.AllreduceTime(topo, c, np, nG) +
		haloTime(c, ghosts, 2) +
		c.TFlop*blockFlops
	mod.TimePerIter = blockTime / float64(s)
	return mod
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

// ChooseSStep prices every candidate blocking factor and returns the
// cheapest (smallest s wins ties, so the selector never buys stability
// risk for free). The full frontier comes back for reporting.
func ChooseSStep(m *comm.Machine, A *sparse.CSR, d dist.Contiguous) (int, []SStepModel) {
	models := make([]SStepModel, 0, len(SStepCandidates))
	best := 1
	var bestT float64
	for _, s := range SStepCandidates {
		mod := ModelSStep(m, A, d, s)
		models = append(models, mod)
		if len(models) == 1 || mod.TimePerIter < bestT {
			best, bestT = s, mod.TimePerIter
		}
	}
	return best, models
}
