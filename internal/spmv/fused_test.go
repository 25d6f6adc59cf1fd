package spmv

import (
	"testing"

	"hpfcg/internal/comm"
	"hpfcg/internal/darray"
	"hpfcg/internal/dist"
	"hpfcg/internal/sparse"
)

// fusedBuilders enumerates every operator that implements
// FusedOperator.
func fusedBuilders(A *sparse.CSR) map[string]func(p *comm.Proc, d dist.Contiguous) FusedOperator {
	return map[string]func(p *comm.Proc, d dist.Contiguous) FusedOperator{
		"rowblock-csr": func(p *comm.Proc, d dist.Contiguous) FusedOperator {
			return NewRowBlockCSR(p, A, d)
		},
		"rowblock-csr-ghost": func(p *comm.Proc, d dist.Contiguous) FusedOperator {
			return NewRowBlockCSRGhost(p, A, d)
		},
	}
}

// TestApplyDotBitIdenticalToApplyThenDot: the fused kernel must produce
// exactly the y and exactly the local dot partial of the unfused pair —
// CG's fused and unfused iterations may not drift by one ulp.
func TestApplyDotBitIdenticalToApplyThenDot(t *testing.T) {
	A := sparse.Laplace2D(7, 9)
	n := A.NRows
	xs := sparse.RandomVector(n, 17)
	for name, build := range fusedBuilders(A) {
		for _, np := range testNPs {
			d := dist.NewBlock(n, np)
			machine(np).Run(func(p *comm.Proc) {
				op := build(p, d)
				x := darray.New(p, d)
				x.SetGlobal(func(g int) float64 { return xs[g] })
				y1 := darray.New(p, d)
				y2 := darray.New(p, d)

				op.Apply(x, y1)
				want := x.DotLocal(y1)
				got := op.ApplyDot(x, y2)

				if got != want {
					t.Errorf("%s np=%d rank=%d: fused partial %v != unfused %v", name, np, p.Rank(), got, want)
				}
				l1, l2 := y1.Local(), y2.Local()
				for i := range l1 {
					if l1[i] != l2[i] {
						t.Errorf("%s np=%d rank=%d: y differs at local %d: %v vs %v", name, np, p.Rank(), i, l1[i], l2[i])
					}
				}
			})
		}
	}
}

// TestApplyDotChargesApplyPlusDot: the fused kernel's modeled flop
// charge must equal Apply + DotLocal exactly, so fusion changes memory
// traffic and wall-clock but never the modeled cost comparisons.
func TestApplyDotChargesApplyPlusDot(t *testing.T) {
	A := sparse.Laplace2D(6, 6)
	n := A.NRows
	for name, build := range fusedBuilders(A) {
		const np = 4
		d := dist.NewBlock(n, np)
		unfused := machine(np).Run(func(p *comm.Proc) {
			op := build(p, d)
			x := darray.New(p, d)
			x.SetGlobal(func(g int) float64 { return float64(g) })
			y := darray.New(p, d)
			op.Apply(x, y)
			x.DotLocal(y)
		})
		fused := machine(np).Run(func(p *comm.Proc) {
			op := build(p, d)
			x := darray.New(p, d)
			x.SetGlobal(func(g int) float64 { return float64(g) })
			y := darray.New(p, d)
			op.ApplyDot(x, y)
		})
		if fused.TotalFlops != unfused.TotalFlops {
			t.Errorf("%s: fused charges %d flops, Apply+DotLocal charges %d", name, fused.TotalFlops, unfused.TotalFlops)
		}
	}
}

// TestApplySteadyStateNoAllocs: with the reusable gather target, the
// PRIVATE region built once per operator and the pooled collectives,
// every mat-vec a solver calls per iteration allocates nothing in
// steady state — the row-block ApplyDot, and the §5.1 private merges:
// the inspected one behind the csc-merge Apply (its reverse exchange on
// pooled buffers), the dense one the experiments measure, and the
// row-block transpose.
func TestApplySteadyStateNoAllocs(t *testing.T) {
	A := sparse.Laplace2D(8, 8)
	n := A.NRows
	csc := A.ToCSC()
	fused := fusedBuilders(A)
	const runs = 7
	calls := []struct {
		name string
		nps  []int
		call func(p *comm.Proc, d dist.Contiguous) func(x, y *darray.Vector)
	}{
		{"rowblock-csr ApplyDot", []int{3, 4}, func(p *comm.Proc, d dist.Contiguous) func(x, y *darray.Vector) {
			op := fused["rowblock-csr"](p, d)
			return func(x, y *darray.Vector) { op.ApplyDot(x, y) }
		}},
		{"rowblock-csr-ghost ApplyDot", []int{3, 4}, func(p *comm.Proc, d dist.Contiguous) func(x, y *darray.Vector) {
			op := fused["rowblock-csr-ghost"](p, d)
			return func(x, y *darray.Vector) { op.ApplyDot(x, y) }
		}},
		{"csc-merge Apply", []int{1, 3, 4}, func(p *comm.Proc, d dist.Contiguous) func(x, y *darray.Vector) {
			return NewColBlockCSC(p, csc, d, ModePrivateMerge).Apply
		}},
		{"csc dense-merge Apply", []int{1, 3, 4}, func(p *comm.Proc, d dist.Contiguous) func(x, y *darray.Vector) {
			return NewColBlockCSC(p, csc, d, ModeDenseMerge).Apply
		}},
		{"rowblock-csr ApplyT", []int{1, 3, 4}, func(p *comm.Proc, d dist.Contiguous) func(x, y *darray.Vector) {
			return NewRowBlockCSR(p, A, d).ApplyT
		}},
	}
	for _, c := range calls {
		for _, np := range c.nps {
			d := dist.NewBlock(n, np)
			var allocs float64
			machine(np).Run(func(p *comm.Proc) {
				call := c.call(p, d)
				x := darray.New(p, d)
				x.SetGlobal(func(g int) float64 { return float64(g%7) - 3 })
				y := darray.New(p, d)
				call(x, y) // warm-up: fills gather target, region and pools
				// The barrier keeps a lagging rank's set-up out of rank
				// 0's process-wide count.
				p.Barrier()
				if p.Rank() == 0 {
					allocs = testing.AllocsPerRun(runs, func() {
						call(x, y)
					})
				} else {
					for i := 0; i < runs+1; i++ {
						call(x, y)
					}
				}
			})
			if allocs != 0 {
				t.Errorf("%s np=%d: allocated %.1f times per call in steady state, want 0", c.name, np, allocs)
			}
		}
	}
}
