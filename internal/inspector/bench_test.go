package inspector_test

import (
	"fmt"
	"slices"
	"testing"

	"hpfcg/internal/comm"
	"hpfcg/internal/dist"
	"hpfcg/internal/inspector"
	"hpfcg/internal/mfree"
	"hpfcg/internal/sparse"
	"hpfcg/internal/topology"
)

// scheduleFunc builds one rank's schedule and returns it with the length
// of the local block it exchanges.
type scheduleFunc func(p *comm.Proc) (*inspector.Schedule, int)

// csrHalo is the CSR halo executor's schedule: every column the rank's
// block of rows reads, over a block distribution (Build drops the owned
// ones and the duplicates).
func csrHalo(A *sparse.CSR) scheduleFunc {
	return func(p *comm.Proc) (*inspector.Schedule, int) {
		d := dist.NewBlock(A.NRows, p.NP())
		lo, cnt := d.Lo(p.Rank()), d.Count(p.Rank())
		return inspector.Build(p, d, A.Col[A.RowPtr[lo]:A.RowPtr[lo+cnt]]), cnt
	}
}

// planeHalo is the matrix-free operator's schedule: one boundary plane
// to and from each z-neighbour, built from the brick alone.
func planeHalo(s mfree.Spec) scheduleFunc {
	return func(p *comm.Proc) (*inspector.Schedule, int) {
		b, err := s.Brick(p.NP())
		if err != nil {
			panic(err)
		}
		lo, hi := b.ZRange(p.Rank())
		return mfree.NewHalo(p, b), (hi - lo) * b.X * b.Y
	}
}

// BenchmarkExchange times one ghost exchange of k vectors across all np
// ranks of a machine on the two schedule shapes the workloads run:
// solve_csr's matrix through the inspector, and the stencil planes of
// solve_mfree (27pt 32³) and serve_hot (5pt 48×48). Every rank runs the
// b.N loop in lockstep and rank 0 owns the timer, so ns/op is the wall
// time of one distributed exchange; allocs/op must be 0.
func BenchmarkExchange(b *testing.B) {
	shapes := []struct {
		name     string
		schedule scheduleFunc
	}{
		{"csr/laplace2d:128:128", csrHalo(sparse.Laplace2D(128, 128))},
		{"plane/27pt:32x32x32", planeHalo(mfree.Spec{Stencil: "27pt", Nx: 32, Ny: 32, Nz: 32})},
		{"plane/5pt:48x48", planeHalo(mfree.Spec{Stencil: "5pt", Nx: 48, Ny: 48})},
	}
	for _, sh := range shapes {
		for _, np := range []int{2, 4, 8} {
			for _, k := range []int{1, 2} {
				b.Run(fmt.Sprintf("%s/np=%d/k=%d", sh.name, np, k), func(b *testing.B) {
					b.ReportAllocs()
					comm.NewMachine(np, topology.Hypercube{}, topology.DefaultCostParams()).Run(func(p *comm.Proc) {
						sched, nloc := sh.schedule(p)
						locals := make([][]float64, k)
						for v := range locals {
							locals[v] = make([]float64, nloc)
						}
						exchange := func() {
							if k == 1 {
								sched.Exchange(locals[0])
							} else {
								sched.ExchangeBlock(locals)
							}
						}
						// Warm-up fills the buffer pools; the barrier keeps a
						// lagging rank's warm-up out of the timed region.
						exchange()
						p.Barrier()
						if p.Rank() == 0 {
							b.ResetTimer()
						}
						for i := 0; i < b.N; i++ {
							exchange()
						}
						if p.Rank() == 0 {
							b.StopTimer()
						}
					})
				})
			}
		}
	}
}

// BenchmarkBuild times the inspector itself — the sorted unique remote
// indices, the request exchange and the schedule — on the CSR halos of
// solve_csr's matrix and of a serve_cold upload (randspd:320:8) at np 2,
// 4, 8, from two lists: the rows' raw columns (owned, duplicate and
// unsorted indices included: the csc-merge strip's shape) and the
// sorted ghosts the CSR halo executor passes. Every rank builds in
// lockstep and rank 0 owns the timer, so ns/op is the wall time of one
// collective Build.
func BenchmarkBuild(b *testing.B) {
	for _, sh := range []struct {
		name string
		A    *sparse.CSR
	}{
		{"laplace2d:128:128", sparse.Laplace2D(128, 128)},
		{"randspd:320:8", sparse.RandomSPD(320, 8, 1)},
	} {
		for _, sorted := range []bool{false, true} {
			for _, np := range []int{2, 4, 8} {
				name := fmt.Sprintf("cols/%s/np=%d", sh.name, np)
				if sorted {
					name = fmt.Sprintf("ghosts/%s/np=%d", sh.name, np)
				}
				b.Run(name, func(b *testing.B) {
					b.ReportAllocs()
					d := dist.NewBlock(sh.A.NRows, np)
					comm.NewMachine(np, topology.Hypercube{}, topology.DefaultCostParams()).Run(func(p *comm.Proc) {
						lo, hi := d.Lo(p.Rank()), d.Lo(p.Rank())+d.Count(p.Rank())
						needs := sh.A.Col[sh.A.RowPtr[lo]:sh.A.RowPtr[hi]]
						if sorted {
							needs = slices.DeleteFunc(slices.Clone(needs), func(g int) bool { return g >= lo && g < hi })
							slices.Sort(needs)
							needs = slices.Compact(needs)
						}
						inspector.Build(p, d, needs)
						p.Barrier()
						if p.Rank() == 0 {
							b.ResetTimer()
						}
						for i := 0; i < b.N; i++ {
							inspector.Build(p, d, needs)
						}
						if p.Rank() == 0 {
							b.StopTimer()
						}
					})
				})
			}
		}
	}
}

// BenchmarkReverseExchange times one reverse exchange — the inspected
// merge behind the csc-merge layout — across all np ranks of a machine.
// The schedules are the CSR halos of serve_hot's csc-merge matrix and of
// solve_csr's: for a symmetric matrix a column strip touches exactly the
// rows a row strip's columns read. Every rank runs the b.N loop in
// lockstep and rank 0 owns the timer, so ns/op is the wall time of one
// distributed merge; allocs/op must be 0.
func BenchmarkReverseExchange(b *testing.B) {
	for _, spec := range []struct{ nx, ny int }{{32, 32}, {128, 128}} {
		A := sparse.Laplace2D(spec.nx, spec.ny)
		for _, np := range []int{2, 4, 8} {
			b.Run(fmt.Sprintf("laplace2d:%d:%d/np=%d", spec.nx, spec.ny, np), func(b *testing.B) {
				b.ReportAllocs()
				comm.NewMachine(np, topology.Hypercube{}, topology.DefaultCostParams()).Run(func(p *comm.Proc) {
					sched, nloc := csrHalo(A)(p)
					ghosts, local := make([]float64, sched.NGhosts()), make([]float64, nloc)
					// Warm-up fills the buffer pools; the barrier keeps a
					// lagging rank's warm-up out of the timed region.
					sched.ReverseExchange(ghosts, local)
					p.Barrier()
					if p.Rank() == 0 {
						b.ResetTimer()
					}
					for i := 0; i < b.N; i++ {
						sched.ReverseExchange(ghosts, local)
					}
					if p.Rank() == 0 {
						b.StopTimer()
					}
				})
			})
		}
	}
}
