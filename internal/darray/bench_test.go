package darray

import (
	"fmt"
	"testing"

	"hpfcg/internal/comm"
	"hpfcg/internal/dist"
)

// benchSink keeps the benchmarked partials live.
var benchSink float64

// BenchmarkVectorKernels is the host cost of CG's local vector
// updates and dot partials at a small local block (a served job's) and
// a large one, one rank looping b.N calls in one Run. It reports ns
// per local element; allocs/op must stay 0. Run it at -cpu 1.
// PipelinedUpdate and Pipelined8Calls are one pipelined CG iteration's
// update, fused and as the eight calls it replaces, so their ratio
// comes from one run.
func BenchmarkVectorKernels(b *testing.B) {
	// Each kernel gets seven aligned vectors; the two-operand ones use
	// the first two.
	kernels := []struct {
		name string
		op   func(v []*Vector) float64
	}{
		{"AXPY", func(v []*Vector) float64 { v[0].AXPY(1e-3, v[1]); return 0 }},
		{"AYPX", func(v []*Vector) float64 { v[0].AYPX(0.5, v[1]); return 0 }},
		{"DotLocal", func(v []*Vector) float64 { return v[0].DotLocal(v[1]) }},
		{"AXPYNormSqLocal", func(v []*Vector) float64 { return v[0].AXPYNormSqLocal(1e-3, v[1]) }},
		{"PipelinedUpdate", func(v []*Vector) float64 {
			rr, wr := PipelinedUpdate(v[0], v[1], v[2], v[3], v[4], v[5], v[6], 1e-3, 0.5)
			return rr + wr
		}},
		{"Pipelined8Calls", func(v []*Vector) float64 {
			x, r, w, p, s, z, q := v[0], v[1], v[2], v[3], v[4], v[5], v[6]
			z.AYPX(0.5, q)
			s.AYPX(0.5, w)
			p.AYPX(0.5, r)
			x.AXPY(1e-3, p)
			r.AXPY(-1e-3, s)
			w.AXPY(-1e-3, z)
			return r.DotLocal(r) + w.DotLocal(r)
		}},
	}
	for _, k := range kernels {
		for _, n := range []int{256, 8192} {
			b.Run(fmt.Sprintf("%s/n=%d", k.name, n), func(b *testing.B) {
				b.ReportAllocs()
				machine(1).Run(func(p *comm.Proc) {
					v := make([]*Vector, 7)
					v[0] = New(p, dist.NewBlock(n, 1))
					for j := range v {
						if j > 0 {
							v[j] = NewAligned(v[0])
						}
						v[j].SetGlobal(func(g int) float64 { return float64(g%(5+j)) - 1.25 + 0.5*float64(j) })
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						benchSink = k.op(v)
					}
					b.StopTimer()
				})
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/elem")
			})
		}
	}
}
