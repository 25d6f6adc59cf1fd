package mfree

import (
	"fmt"
	"testing"

	"hpfcg/internal/comm"
	"hpfcg/internal/darray"
)

// benchSpecs are the per-layer benchmark shapes: the gated solve_mfree
// grid (27pt 32³) and serve_hot's stencil key (5pt 48×48), each next to
// a grid whose vectors no longer fit the caches they do.
var benchSpecs = []Spec{
	{Stencil: "27pt", Nx: 32, Ny: 32, Nz: 32},
	{Stencil: "27pt", Nx: 96, Ny: 96, Nz: 96},
	{Stencil: "5pt", Nx: 48, Ny: 48},
	{Stencil: "5pt", Nx: 512, Ny: 512},
}

// benchSink keeps the fused dot alive.
var benchSink float64

// benchSweep times one operator call (halo exchange + sweep) across all
// np ranks of a machine: every rank runs the b.N loop in lockstep, rank
// 0 owns the timer. ns/point and GFLOP/s are whole-grid figures — the
// wall time of one distributed apply over all N points and all
// 2·NNZ (+2·N fused) flops — so np=1 and np=4 read on one scale.
func benchSweep(b *testing.B, fused bool) {
	for _, s := range benchSpecs {
		s = s.WithDefaults()
		for _, np := range []int{1, 4} {
			b.Run(fmt.Sprintf("%s/np=%d", s.Key(), np), func(b *testing.B) {
				flops := 2 * float64(s.NNZ())
				if fused {
					flops += 2 * float64(s.N())
				}
				b.ReportAllocs()
				machine(np).Run(func(p *comm.Proc) {
					op, err := New(p, s)
					if err != nil {
						b.Error(err)
						return
					}
					x := darray.New(p, op.Dist())
					y := darray.New(p, op.Dist())
					x.SetGlobal(func(g int) float64 { return float64(g%7) - 3 })
					// Warm-up fills the buffer pools; the barrier keeps a
					// lagging rank's warm-up out of the timed region.
					op.Apply(x, y)
					p.Barrier()
					if p.Rank() == 0 {
						b.ResetTimer()
					}
					var dot float64
					for i := 0; i < b.N; i++ {
						if fused {
							dot = op.ApplyDot(x, y)
						} else {
							op.Apply(x, y)
						}
					}
					if p.Rank() == 0 {
						b.StopTimer()
						benchSink = dot
					}
				})
				ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
				b.ReportMetric(ns/float64(s.N()), "ns/point")
				b.ReportMetric(flops/ns, "GFLOP/s")
			})
		}
	}
}

// BenchmarkApply measures the unfused stencil apply.
func BenchmarkApply(b *testing.B) { benchSweep(b, false) }

// BenchmarkApplyDot measures the apply with the fused x·y partial.
func BenchmarkApplyDot(b *testing.B) { benchSweep(b, true) }
