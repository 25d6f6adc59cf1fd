package darray

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"hpfcg/internal/comm"
	"hpfcg/internal/dist"
	"hpfcg/internal/topology"
	"hpfcg/internal/trace"
)

// TestAXPYNormSqLocalBitIdentical: the fused update-and-norm must match
// AXPY followed by NormSqLocal exactly — same per-element arithmetic
// order, just one sweep — on every processor count and for CYCLIC as
// well as BLOCK layouts.
func TestAXPYNormSqLocalBitIdentical(t *testing.T) {
	const n = 57
	mk := func(name string, np int) dist.Dist {
		if name == "cyclic" {
			return dist.NewCyclic(n, np)
		}
		return dist.NewBlock(n, np)
	}
	for _, layout := range []string{"block", "cyclic"} {
		for _, np := range []int{1, 2, 3, 4, 8} {
			d := mk(layout, np)
			comm.NewMachine(np, topology.Hypercube{}, topology.DefaultCostParams()).Run(func(p *comm.Proc) {
				y1 := New(p, d)
				y2 := New(p, d)
				x := New(p, d)
				y1.SetGlobal(func(g int) float64 { return 1.0 / float64(g+2) })
				y2.CopyFrom(y1)
				x.SetGlobal(func(g int) float64 { return float64(g*g%13) - 6.5 })
				const alpha = -0.37

				y1.AXPY(alpha, x)
				want := y1.NormSqLocal()
				got := y2.AXPYNormSqLocal(alpha, x)

				if got != want {
					t.Errorf("%s np=%d rank=%d: fused partial %v != unfused %v", layout, np, p.Rank(), got, want)
				}
				l1, l2 := y1.Local(), y2.Local()
				for i := range l1 {
					if l1[i] != l2[i] {
						t.Errorf("%s np=%d rank=%d: y differs at local %d", layout, np, p.Rank(), i)
					}
				}
			})
		}
	}
}

// TestAXPYNormSqLocalFlopCharge: the fused sweep charges exactly the
// flops of the pair it replaces (2n axpy + 2n norm).
func TestAXPYNormSqLocalFlopCharge(t *testing.T) {
	const n = 64
	d := dist.NewBlock(n, 4)
	run := func(fused bool) int64 {
		return comm.NewMachine(4, topology.Hypercube{}, topology.DefaultCostParams()).Run(func(p *comm.Proc) {
			y := New(p, d)
			x := New(p, d)
			x.Fill(1)
			if fused {
				y.AXPYNormSqLocal(0.5, x)
			} else {
				y.AXPY(0.5, x)
				y.NormSqLocal()
			}
		}).TotalFlops
	}
	if f, u := run(true), run(false); f != u {
		t.Errorf("fused charges %d flops, AXPY+NormSqLocal charges %d", f, u)
	}
}

// TestGatherIntoMatchesGather: the buffer-reusing gather fills the
// caller's buffer with exactly Gather's result for both contiguous and
// cyclic layouts.
func TestGatherIntoMatchesGather(t *testing.T) {
	const n = 41
	for _, layout := range []string{"block", "cyclic"} {
		for _, np := range []int{1, 3, 4} {
			var d dist.Dist
			if layout == "cyclic" {
				d = dist.NewCyclic(n, np)
			} else {
				d = dist.NewBlock(n, np)
			}
			comm.NewMachine(np, topology.Hypercube{}, topology.DefaultCostParams()).Run(func(p *comm.Proc) {
				v := New(p, d)
				v.SetGlobal(func(g int) float64 { return float64(3*g + 1) })
				want := v.Gather()
				buf := make([]float64, n)
				got := v.GatherInto(buf)
				if &got[0] != &buf[0] {
					t.Errorf("%s np=%d: GatherInto did not use the provided buffer", layout, np)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("%s np=%d: element %d: %v vs %v", layout, np, i, got[i], want[i])
					}
				}
			})
		}
	}
}

// pipelinedRun is what one rank leaves after a pipelined iteration's
// vector update: the six updated blocks, the two partials, the clock,
// the Proc's flop and compute-time counters, and its traced events.
type pipelinedRun struct {
	blocks      [6][]float64
	rr, wr      float64
	clock       float64
	flops       int64
	computeTime float64
	events      []trace.Event
}

// runPipelinedUpdate runs one pipelined update on a traced np-rank
// machine over d, fused (PipelinedUpdate) or as the eight calls it
// replaces, and returns each rank's outcome.
func runPipelinedUpdate(d dist.Dist, np int, fused bool) []pipelinedRun {
	const alpha, beta = 0.61, -0.29
	out := make([]pipelinedRun, np)
	m := machine(np)
	tr := &trace.Tracer{}
	m.AttachTracer(tr)
	m.Run(func(p *comm.Proc) {
		// x, r, w, p, s, z, q: distinct values, none a multiple of another.
		v := make([]*Vector, 7)
		for k := range v {
			v[k] = New(p, d)
			v[k].SetGlobal(func(g int) float64 { return float64((g*(k+3)+k)%11)/7 - 0.6 + 1/float64(g+k+2) })
		}
		x, r, w, pv, s, z, q := v[0], v[1], v[2], v[3], v[4], v[5], v[6]
		var o pipelinedRun
		if fused {
			o.rr, o.wr = PipelinedUpdate(x, r, w, pv, s, z, q, alpha, beta)
		} else {
			z.AYPX(beta, q)
			s.AYPX(beta, w)
			pv.AYPX(beta, r)
			x.AXPY(alpha, pv)
			r.AXPY(-alpha, s)
			w.AXPY(-alpha, z)
			o.rr = r.DotLocal(r)
			o.wr = w.DotLocal(r)
		}
		for k, u := range []*Vector{x, r, w, pv, s, z} {
			o.blocks[k] = u.Local()
		}
		o.clock = p.Clock()
		o.flops, o.computeTime = p.Stats().Flops, p.Stats().ComputeTime
		out[p.Rank()] = o
	})
	for rank := range out {
		out[rank].events = tr.Last().RankEvents(rank)
	}
	return out
}

// TestPipelinedUpdateBitIdentical: the fused pipelined update must
// leave every rank exactly where the eight separate calls leave it —
// the six blocks and both partials by their bits, the clock, the flop
// and compute-time counters, and the sequence of traced compute events
// — on BLOCK and CYCLIC layouts, np 1–8, at local lengths of every
// residue mod 4.
func TestPipelinedUpdateBitIdentical(t *testing.T) {
	names := [6]string{"x", "r", "w", "p", "s", "z"}
	for _, n := range []int{57, 60, 61, 62, 63} {
		for _, layout := range []string{"block", "cyclic"} {
			for _, np := range []int{1, 2, 3, 4, 8} {
				var d dist.Dist = dist.NewBlock(n, np)
				if layout == "cyclic" {
					d = dist.NewCyclic(n, np)
				}
				fused, split := runPipelinedUpdate(d, np, true), runPipelinedUpdate(d, np, false)
				for rank := range fused {
					f, s := fused[rank], split[rank]
					at := fmt.Sprintf("n=%d %s np=%d rank=%d", n, layout, np, rank)
					for k := range f.blocks {
						for i := range s.blocks[k] {
							if math.Float64bits(f.blocks[k][i]) != math.Float64bits(s.blocks[k][i]) {
								t.Errorf("%s: %s differs at local %d: %v vs %v", at, names[k], i, f.blocks[k][i], s.blocks[k][i])
							}
						}
					}
					if math.Float64bits(f.rr) != math.Float64bits(s.rr) || math.Float64bits(f.wr) != math.Float64bits(s.wr) {
						t.Errorf("%s: partials (%v, %v), separate calls (%v, %v)", at, f.rr, f.wr, s.rr, s.wr)
					}
					if f.clock != s.clock || f.flops != s.flops || f.computeTime != s.computeTime {
						t.Errorf("%s: clock %v flops %d compute %v, separate calls %v %d %v",
							at, f.clock, f.flops, f.computeTime, s.clock, s.flops, s.computeTime)
					}
					if !slices.Equal(f.events, s.events) || len(f.events) != 8 {
						t.Errorf("%s: %d events %v, separate calls %d %v", at, len(f.events), f.events, len(s.events), s.events)
					}
				}
			}
		}
	}
}
