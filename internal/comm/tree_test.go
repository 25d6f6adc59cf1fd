package comm

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"hpfcg/internal/topology"
	"hpfcg/internal/trace"
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

// TestOneTreeSchedule pins the binomial tree every merge runs on. The
// blocking allreduce and the nonblocking one waited on at once, each
// charged by replay at the rendezvous of an unobserved run, and a
// whole-machine Group reducing to member 0 then broadcasting from it,
// must agree bit for bit with the blocking allreduce whose messages a
// no-op tracer forces onto the wire: on the values, on every rank's
// clock, on the run's message, byte and flop counts, its modeled time
// and its communication matrix. Every ProcStats field — float sums
// included, whose last bit moves if a charge is reordered — must equal
// that of the same merge on the message path. Each run merges three
// times at different lengths, so a rendezvous is reused; ranks arrive
// skewed on the modeled clock (a rank-dependent Compute first) and on
// the host (a rank-dependent yield), and the data is inexact, so a
// changed partner, combine order or charge shows up.
func TestOneTreeSchedule(t *testing.T) {
	lengths := []int{5, 1, 45}
	topos := []topology.Topology{topology.Hypercube{}, topology.Ring{}}
	for _, topo := range topos {
		for np := 1; np <= 8; np++ {
			type outcome struct {
				vals   [][]float64
				clocks []float64
				rs     RunStats
			}
			run := func(traced bool, merge func(p *Proc, xs []float64) []float64) outcome {
				m := NewMachine(np, topo, topology.DefaultCostParams())
				if traced {
					m.AttachTracer(&trace.Tracer{})
				}
				o := outcome{vals: make([][]float64, np), clocks: make([]float64, np)}
				o.rs = m.Run(func(p *Proc) {
					var got []float64
					for round, words := range lengths {
						p.Compute(100 * ((p.Rank()+round)%3 + 1))
						for i := 0; i < (p.Rank()+round)%np; i++ {
							runtime.Gosched()
						}
						xs := make([]float64, words)
						for i := range xs {
							xs[i] = 1/float64(p.Rank()+i+round+1) + math.Pi*float64(i)
						}
						got = append(got, merge(p, xs)...)
					}
					o.vals[p.Rank()] = got
					o.clocks[p.Rank()] = p.Clock()
				})
				return o
			}
			all := make([]int, np)
			for r := range all {
				all[r] = r
			}
			allreduce := func(p *Proc, xs []float64) []float64 {
				p.AllreduceScalars(xs, OpSum)
				return xs
			}
			iallreduce := func(p *Proc, xs []float64) []float64 {
				p.IallreduceScalars(xs, OpSum).Wait()
				return xs
			}
			ref := run(true, allreduce)
			tracedI := run(true, iallreduce)
			rows := []struct {
				name  string
				o     outcome
				stats outcome // the message-path run whose ProcStats it must equal
			}{
				{"allreduce", run(false, allreduce), ref},
				{"iallreduce+wait", run(false, iallreduce), tracedI},
				{"traced iallreduce+wait", tracedI, tracedI},
				{"group reduce+bcast", run(false, func(p *Proc, xs []float64) []float64 {
					g := NewGroup(p, all)
					return g.BcastFloats(p, g.ReduceSumFloats(p, xs))
				}), ref},
			}
			for _, row := range rows {
				name, o := fmt.Sprintf("%T np=%d %s", topo, np, row.name), row.o
				for r := 0; r < np; r++ {
					for i, want := range ref.vals[r] {
						if got := o.vals[r][i]; math.Float64bits(got) != math.Float64bits(want) {
							t.Errorf("%s rank %d elem %d: %v, traced allreduce %v", name, r, i, got, want)
						}
					}
					if math.Float64bits(o.clocks[r]) != math.Float64bits(ref.clocks[r]) {
						t.Errorf("%s rank %d: clock %v, traced allreduce %v", name, r, o.clocks[r], ref.clocks[r])
					}
					if got, want := o.rs.Procs[r], row.stats.rs.Procs[r]; !sameStats(got, want) {
						t.Errorf("%s rank %d: stats %+v, message path %+v", name, r, got, want)
					}
				}
				if o.rs.TotalMsgs != ref.rs.TotalMsgs || o.rs.TotalBytes != ref.rs.TotalBytes ||
					o.rs.TotalFlops != ref.rs.TotalFlops || math.Float64bits(o.rs.ModelTime) != math.Float64bits(ref.rs.ModelTime) {
					t.Errorf("%s: msgs=%d bytes=%d flops=%d t=%v, traced allreduce msgs=%d bytes=%d flops=%d t=%v",
						name, o.rs.TotalMsgs, o.rs.TotalBytes, o.rs.TotalFlops, o.rs.ModelTime,
						ref.rs.TotalMsgs, ref.rs.TotalBytes, ref.rs.TotalFlops, ref.rs.ModelTime)
				}
				for s := range o.rs.BytesMatrix {
					for d, b := range o.rs.BytesMatrix[s] {
						if b != ref.rs.BytesMatrix[s][d] {
							t.Errorf("%s: bytes %d->%d = %d, traced allreduce %d", name, s, d, b, ref.rs.BytesMatrix[s][d])
						}
					}
				}
			}
		}
	}
}

// sameStats compares every ProcStats field, the float ones by their bits.
func sameStats(a, b ProcStats) bool {
	floats := func(s ProcStats) [5]uint64 {
		return [5]uint64{math.Float64bits(s.SendTime), math.Float64bits(s.WaitTime), math.Float64bits(s.ComputeTime),
			math.Float64bits(s.ReduceHiddenTime), math.Float64bits(s.ReduceExposedTime)}
	}
	return a.MsgsSent == b.MsgsSent && a.BytesSent == b.BytesSent && a.MsgsRecv == b.MsgsRecv &&
		a.BytesRecv == b.BytesRecv && a.Flops == b.Flops && floats(a) == floats(b)
}
