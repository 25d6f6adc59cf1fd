package spmv

import (
	"fmt"
	"testing"

	"hpfcg/internal/comm"
	"hpfcg/internal/darray"
	"hpfcg/internal/dist"
	"hpfcg/internal/sparse"
)

// benchMatrices are the per-layer benchmark shapes: solve_csr's gated
// Figure 2 matrix (1.3 MB, in L2) and one whose operator streams from
// memory (21 MB).
var benchMatrices = []string{"laplace2d:128:128", "laplace2d:512:512"}

// benchSink keeps the fused dot alive.
var benchSink float64

// benchSweep times one operator call (exchange + sweep, or sweep +
// merge) across all np ranks of a machine: every rank runs the b.N loop
// in lockstep, rank 0 owns the timer. ns/nnz and GFLOP/s are
// whole-matrix figures — the wall time of one distributed apply over
// all NNZ stored entries and all 2·NNZ (+2·N fused) flops — so np=1 and
// np=4 read on one scale. The unfused sweep also times the §5.1 private
// merges side by side: the inspected one behind the csc-merge layout and
// the paper's dense one.
func benchSweep(b *testing.B, fused bool) {
	for _, spec := range benchMatrices {
		A, err := sparse.GeneratorByName(spec)
		if err != nil {
			b.Fatal(err)
		}
		type executor struct {
			name  string
			build func(p *comm.Proc, d dist.Contiguous) Operator
		}
		var execs []executor
		for _, ex := range csrExecutors[:2] { // the halo and broadcast executors
			execs = append(execs, executor{ex.name, func(p *comm.Proc, d dist.Contiguous) Operator { return ex.build(p, A, d) }})
		}
		if !fused {
			csc := A.ToCSC()
			for _, m := range []struct {
				name string
				mode Mode
			}{{"csc-merge", ModePrivateMerge}, {"csc-dense-merge", ModeDenseMerge}} {
				execs = append(execs, executor{m.name, func(p *comm.Proc, d dist.Contiguous) Operator {
					return NewColBlockCSC(p, csc, d, m.mode)
				}})
			}
		}
		for _, ex := range execs {
			for _, np := range []int{1, 4} {
				b.Run(fmt.Sprintf("%s/%s/np=%d", ex.name, spec, np), func(b *testing.B) {
					flops := 2 * float64(A.NNZ())
					if fused {
						flops += 2 * float64(A.NRows)
					}
					d := dist.NewBlock(A.NRows, np)
					b.ReportAllocs()
					machine(np).Run(func(p *comm.Proc) {
						op := ex.build(p, d)
						x := darray.New(p, d)
						y := darray.New(p, d)
						x.SetGlobal(func(g int) float64 { return float64(g%7) - 3 })
						var dot float64
						apply := func() { op.Apply(x, y) }
						if fused {
							f := op.(FusedOperator)
							apply = func() { dot = f.ApplyDot(x, y) }
						}
						// Warm-up fills the buffer pools; the barrier keeps a
						// lagging rank's warm-up out of the timed region.
						apply()
						p.Barrier()
						if p.Rank() == 0 {
							b.ResetTimer()
						}
						for i := 0; i < b.N; i++ {
							apply()
						}
						if p.Rank() == 0 {
							b.StopTimer()
							benchSink = dot
						}
					})
					ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
					b.ReportMetric(ns/float64(A.NNZ()), "ns/nnz")
					b.ReportMetric(flops/ns, "GFLOP/s")
				})
			}
		}
	}
}

// BenchmarkApply measures the unfused apply: the CSR executors and the
// two CSC merges.
func BenchmarkApply(b *testing.B) { benchSweep(b, false) }

// BenchmarkApplyDot measures the apply with the fused x·y partial.
func BenchmarkApplyDot(b *testing.B) { benchSweep(b, true) }

// BenchmarkPowersStats times the s-step pricing walk at serve_cold's
// upload shape: a randspd:320:8 matrix at the service's np 4, priced at
// every depth up to 8 (hpfexec's deepest s-step candidate) in one call.
// A cold auto upload pays it once; allocs/op is a constant handful.
func BenchmarkPowersStats(b *testing.B) {
	A := sparse.RandomSPD(320, 8, 1)
	const np = 4
	d := dist.NewBlock(A.NRows, np)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchStats, _ = PowersStats(A, d, np, 8)
	}
}

// benchStats keeps BenchmarkPowersStats's result alive.
var benchStats []int
