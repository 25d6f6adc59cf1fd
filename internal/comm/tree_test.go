package comm

import (
	"fmt"
	"math"
	"testing"
)

// BenchmarkAllreduceScalars is the host cost of one tree merge, every
// rank looping b.N allreduces in one Run: 1 word is a DOT_PRODUCT, 2
// words CG's fused merge, 45 words the s = 4 Gram merge. Run it at
// -cpu 1 for numbers comparable across hosts with different core
// counts; allocs/op must stay 0.
func BenchmarkAllreduceScalars(b *testing.B) {
	for _, np := range []int{2, 4, 8} {
		for _, words := range []int{1, 2, 45} {
			b.Run(fmt.Sprintf("np=%d/words=%d", np, words), func(b *testing.B) {
				m := testMachine(np)
				b.ReportAllocs()
				b.ResetTimer()
				m.Run(func(p *Proc) {
					xs := make([]float64, words)
					for i := 0; i < b.N; i++ {
						p.AllreduceScalars(xs, OpSum)
					}
				})
			})
		}
	}
}

// TestOneTreeSchedule pins the binomial tree every merge runs on: the
// blocking allreduce, the nonblocking one waited on at once, and a
// whole-machine Group reducing to member 0 then broadcasting from it
// must agree bit for bit on the values, on every rank's clock and on
// the run's message and byte counts. Ranks arrive skewed (a rank-
// dependent Compute first) and the data is inexact, so a changed
// partner, combine order or charge shows up.
func TestOneTreeSchedule(t *testing.T) {
	const words = 5
	for np := 1; np <= 8; np++ {
		type outcome struct {
			vals   [][]float64
			clocks []float64
			rs     RunStats
		}
		run := func(merge func(p *Proc, xs []float64) []float64) outcome {
			o := outcome{vals: make([][]float64, np), clocks: make([]float64, np)}
			o.rs = testMachine(np).Run(func(p *Proc) {
				p.Compute(100 * (p.Rank()%3 + 1))
				xs := make([]float64, words)
				for i := range xs {
					xs[i] = 1/float64(p.Rank()+i+1) + math.Pi*float64(i)
				}
				o.vals[p.Rank()] = merge(p, xs)
				o.clocks[p.Rank()] = p.Clock()
			})
			return o
		}
		all := make([]int, np)
		for r := range all {
			all[r] = r
		}
		blocking := run(func(p *Proc, xs []float64) []float64 {
			p.AllreduceScalars(xs, OpSum)
			return xs
		})
		others := map[string]outcome{
			"iallreduce+wait": run(func(p *Proc, xs []float64) []float64 {
				p.IallreduceScalars(xs, OpSum).Wait()
				return xs
			}),
			"group reduce+bcast": run(func(p *Proc, xs []float64) []float64 {
				g := NewGroup(p, all)
				return g.BcastFloats(p, g.ReduceSumFloats(p, xs))
			}),
		}
		for name, o := range others {
			for r := 0; r < np; r++ {
				for i, want := range blocking.vals[r] {
					if got := o.vals[r][i]; math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("np=%d %s rank %d elem %d: %v, allreduce %v", np, name, r, i, got, want)
					}
				}
				if o.clocks[r] != blocking.clocks[r] {
					t.Errorf("np=%d %s rank %d: clock %v, allreduce %v", np, name, r, o.clocks[r], blocking.clocks[r])
				}
			}
			if o.rs.TotalMsgs != blocking.rs.TotalMsgs || o.rs.TotalBytes != blocking.rs.TotalBytes ||
				o.rs.TotalFlops != blocking.rs.TotalFlops || o.rs.ModelTime != blocking.rs.ModelTime {
				t.Errorf("np=%d %s: msgs=%d bytes=%d flops=%d t=%v, allreduce msgs=%d bytes=%d flops=%d t=%v",
					np, name, o.rs.TotalMsgs, o.rs.TotalBytes, o.rs.TotalFlops, o.rs.ModelTime,
					blocking.rs.TotalMsgs, blocking.rs.TotalBytes, blocking.rs.TotalFlops, blocking.rs.ModelTime)
			}
			for s := range o.rs.BytesMatrix {
				for d, b := range o.rs.BytesMatrix[s] {
					if b != blocking.rs.BytesMatrix[s][d] {
						t.Errorf("np=%d %s: bytes %d->%d = %d, allreduce %d", np, name, s, d, b, blocking.rs.BytesMatrix[s][d])
					}
				}
			}
		}
	}
}
