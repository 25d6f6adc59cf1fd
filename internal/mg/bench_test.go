package mg

import (
	"fmt"
	"testing"

	"hpfcg/internal/comm"
	"hpfcg/internal/darray"
)

// benchKernel times one V-cycle building block at solve_hpcg's shape —
// 20³ points per rank, three levels — across all np ranks of a machine:
// every rank runs the b.N loop in lockstep, rank 0 owns the timer.
// ns/point-pass is wall time over (fine-grid points × passes over them:
// a symmetric sweep makes two, the residual one, a V-cycle's fine level
// five), and GFLOP/s is over the flops the call charged to the modeled
// clock, summed over the ranks — the same accounting benchmark/ applies
// to mg.vcycle_gflops.
func benchKernel(b *testing.B, passes int, call func(pb *Problem, r, x *darray.Vector)) {
	spec := Spec{Nx: 20, Ny: 20, Nz: 20, Levels: 3}
	for _, np := range []int{1, 4} {
		b.Run(fmt.Sprintf("np=%d", np), func(b *testing.B) {
			b.ReportAllocs()
			flops := make([]int64, np)
			machine(np).Run(func(p *comm.Proc) {
				pb, err := NewProblem(p, spec)
				if err != nil {
					b.Error(err)
					return
				}
				r, x := darray.New(p, pb.Dist()), darray.New(p, pb.Dist())
				r.SetGlobal(func(g int) float64 { return float64(g%7) - 3 })
				// Warm-up fills the buffer pools; the barrier keeps a
				// lagging rank's warm-up out of the timed region.
				call(pb, r, x)
				p.Barrier()
				if p.Rank() == 0 {
					b.ResetTimer()
				}
				f0 := p.Stats().Flops
				for i := 0; i < b.N; i++ {
					call(pb, r, x)
				}
				if p.Rank() == 0 {
					b.StopTimer()
				}
				flops[p.Rank()] = p.Stats().Flops - f0
			})
			var total int64
			for _, f := range flops {
				total += f
			}
			ns := float64(b.Elapsed().Nanoseconds())
			b.ReportMetric(ns/float64(b.N*passes*np*20*20*20), "ns/point-pass")
			b.ReportMetric(float64(total)/ns, "GFLOP/s")
		})
	}
}

// BenchmarkSymGS measures one symmetric sweep of the fine level.
func BenchmarkSymGS(b *testing.B) {
	benchKernel(b, 2, func(pb *Problem, r, x *darray.Vector) { pb.levels[0].op.SymGS(r.Local(), x.Local()) })
}

// BenchmarkResidual measures the fine level's residual.
func BenchmarkResidual(b *testing.B) {
	benchKernel(b, 1, func(pb *Problem, r, x *darray.Vector) {
		pb.levels[0].op.Residual(r.Local(), x.Local(), pb.levels[0].res)
	})
}

// BenchmarkVCycle measures the whole preconditioner application. Each
// call negates r first, so consecutive V-cycles alternate two
// right-hand sides as a solve's do. No V-cycle state is keyed on r, so
// there is no memo for the repeat to hit; the negation stays so the
// figure remains comparable with earlier runs of this benchmark.
func BenchmarkVCycle(b *testing.B) {
	benchKernel(b, 5, func(pb *Problem, r, x *darray.Vector) {
		rl := r.Local()
		for i := range rl {
			rl[i] = -rl[i]
		}
		pb.vcycle(0, rl, x.Local())
	})
}
