// The price of overlap-based pipelined CG (core.CGPipelined, selected
// by Variant.Pipelined) in the paper's §4 cost model.
//
// Where the s-step path amortizes the allreduce latency over s
// iterations, the pipelined path hides it: one two-word nonblocking
// allreduce per iteration runs concurrently with the iteration's
// mat-vec, so the modeled round cost is max(reduction, mat-vec)
// instead of their sum (comm.IallreduceScalars). ModelPipelined prices
// exactly that overlap with the same PowersStats flop counts the
// s-step selector uses, and ChooseVariant places plain, fused, s-step
// and pipelined CG on one frontier — the map experiment E26 charts.
package hpfexec

import (
	"fmt"
	"math"

	"hpfcg/internal/comm"
	"hpfcg/internal/dist"
	"hpfcg/internal/sparse"
	"hpfcg/internal/spmv"
	"hpfcg/internal/topology"
)

// PipelinedModel is the modeled per-iteration cost of pipelined CG on
// a concrete machine/matrix/distribution triple.
type PipelinedModel struct {
	// TimePerIter is the modeled makespan of one pipelined iteration:
	// max(ReduceTime, OverlapWindow) plus the vector-update flops
	// outside the window.
	TimePerIter float64
	// RoundsPerIter is always 1 — but the round hides.
	RoundsPerIter float64
	// ReduceTime is the blocking cost of the two-word allreduce the
	// iteration starts nonblocking.
	ReduceTime float64
	// OverlapWindow is the modeled compute charged while the round is
	// in flight: the q = A·w halo exchange plus matrix sweep.
	OverlapWindow float64
	// HiddenTime = min(ReduceTime, OverlapWindow) — the share of the
	// reduction the overlap absorbs each iteration.
	HiddenTime float64
}

// ModelPipelined prices one pipelined CG iteration for matrix A
// distributed by d over the machine's ranks: a two-word allreduce
// overlapped with the mat-vec (the iteration pays whichever is
// longer), plus the Ghysels–Vanroose recurrence's 16·nloc vector flops
// (two local dots and six axpy-shaped updates) outside the window.
func ModelPipelined(m *comm.Machine, A *sparse.CSR, d dist.Contiguous) PipelinedModel {
	np := m.NP()
	topo, c := m.Topology(), m.Cost()
	nloc := 0
	for r := 0; r < np; r++ {
		if cnt := d.Count(r); cnt > nloc {
			nloc = cnt
		}
	}
	entries, ghosts := spmv.PowersStats(A, d, np, 1)
	red := topology.AllreduceTime(topo, c, np, 2)
	window := haloTime(c, ghosts, 1) + c.TFlop*2*float64(entries)
	return PipelinedModel{
		TimePerIter:   math.Max(red, window) + c.TFlop*16*float64(nloc),
		RoundsPerIter: 1,
		ReduceTime:    red,
		OverlapWindow: window,
		HiddenTime:    math.Min(red, window),
	}
}

// VariantModel is one row of the solver-variant frontier ChooseVariant
// prices: a named CG variant with its modeled per-iteration makespan,
// synchronization rounds, and (for pipelined) the hidden share.
type VariantModel struct {
	// Name is "plain", "fused", "sstep(s=N)" or "pipelined".
	Name string
	// S is the s-step blocking factor for s-step rows (1 for plain,
	// 0 otherwise).
	S int
	// TimePerIter is the modeled makespan of one iteration.
	TimePerIter float64
	// RoundsPerIter is the allreduce rounds per iteration a blocking
	// clock would count (pipelined still starts 1, but hides it).
	RoundsPerIter float64
	// HiddenTime is the modeled reduction time hidden per iteration
	// (nonzero only for pipelined).
	HiddenTime float64
}

// ChooseVariant prices plain, fused, s-step (every candidate factor)
// and pipelined CG on the machine/matrix/distribution triple and
// returns the cheapest variant's name plus the whole frontier. Ties go
// to the earlier, simpler variant (plain before fused before s-step
// before pipelined), so overlap or blocking is never bought for free.
// The frontier is a modeling aid for reporting and E26; the serving
// tier keeps s-step auto-selection (sstep=0) and the explicit
// pipelined knob separate.
func ChooseVariant(m *comm.Machine, A *sparse.CSR, d dist.Contiguous) (string, []VariantModel) {
	np := m.NP()
	topo, c := m.Topology(), m.Cost()
	nloc := 0
	for r := 0; r < np; r++ {
		if cnt := d.Count(r); cnt > nloc {
			nloc = cnt
		}
	}
	entries, ghosts := spmv.PowersStats(A, d, np, 1)

	plain := ModelSStep(m, A, d, 1)
	models := []VariantModel{{
		Name: "plain", S: 1,
		TimePerIter:   plain.TimePerIter,
		RoundsPerIter: plain.RoundsPerIter,
	}}
	// CGFused: one four-word round per iteration, the same mat-vec, and
	// 14·nloc vector flops (four dots batched into the round plus three
	// axpy-shaped updates).
	models = append(models, VariantModel{
		Name: "fused",
		TimePerIter: topology.AllreduceTime(topo, c, np, 4) +
			haloTime(c, ghosts, 1) +
			c.TFlop*(2*float64(entries)+14*float64(nloc)),
		RoundsPerIter: 1,
	})
	for _, s := range SStepCandidates {
		if s <= 1 {
			continue
		}
		mod := ModelSStep(m, A, d, s)
		models = append(models, VariantModel{
			Name: fmt.Sprintf("sstep(s=%d)", s), S: s,
			TimePerIter:   mod.TimePerIter,
			RoundsPerIter: mod.RoundsPerIter,
		})
	}
	pipe := ModelPipelined(m, A, d)
	models = append(models, VariantModel{
		Name:          "pipelined",
		TimePerIter:   pipe.TimePerIter,
		RoundsPerIter: pipe.RoundsPerIter,
		HiddenTime:    pipe.HiddenTime,
	})

	best := models[0]
	for _, mod := range models[1:] {
		if mod.TimePerIter < best.TimePerIter {
			best = mod
		}
	}
	return best.Name, models
}
