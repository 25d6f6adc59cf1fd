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
func BenchmarkVectorKernels(b *testing.B) {
	kernels := []struct {
		name string
		op   func(v, x *Vector) float64
	}{
		{"AXPY", func(v, x *Vector) float64 { v.AXPY(1e-3, x); return 0 }},
		{"AYPX", func(v, x *Vector) float64 { v.AYPX(0.5, x); return 0 }},
		{"DotLocal", func(v, x *Vector) float64 { return v.DotLocal(x) }},
		{"AXPYNormSqLocal", func(v, x *Vector) float64 { return v.AXPYNormSqLocal(1e-3, x) }},
	}
	for _, k := range kernels {
		for _, n := range []int{256, 8192} {
			b.Run(fmt.Sprintf("%s/n=%d", k.name, n), func(b *testing.B) {
				b.ReportAllocs()
				machine(1).Run(func(p *comm.Proc) {
					v := New(p, dist.NewBlock(n, 1))
					x := NewAligned(v)
					v.SetGlobal(func(g int) float64 { return float64(g%7) + 0.5 })
					x.SetGlobal(func(g int) float64 { return float64(g%5) - 1.25 })
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						benchSink = k.op(v, x)
					}
					b.StopTimer()
				})
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/elem")
			})
		}
	}
}
