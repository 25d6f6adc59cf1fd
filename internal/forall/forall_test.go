package forall

import (
	"math"
	"testing"

	"hpfcg/internal/comm"
	"hpfcg/internal/dist"
	"hpfcg/internal/inspector"
	"hpfcg/internal/topology"
)

func machine(np int) *comm.Machine {
	return comm.NewMachine(np, topology.Hypercube{}, topology.DefaultCostParams())
}

var testNPs = []int{1, 2, 3, 4, 8}

// The paper's Figure 5 workload: CSC-style many-to-one accumulation
// parallelised with PRIVATE + MERGE(+), the merged blocks gathered
// onto every processor.
func TestPrivateMergeReplicated(t *testing.T) {
	for _, np := range testNPs {
		n := 4*np + 1
		d := dist.NewBlock(n, np)
		counts := dist.Counts(d)
		machine(np).Run(func(p *comm.Proc) {
			region := NewPrivate(counts)
			q := region.Open()
			// Every processor accumulates its own block's iterations
			// into scattered targets.
			for j := d.Lo(p.Rank()); j < d.Lo(p.Rank()+1); j++ {
				q[(j*3)%n] += float64(j)
			}
			blk := make([]float64, counts[p.Rank()])
			region.MergeDistributed(p, blk)
			got := p.AllgatherV(blk, counts)
			want := make([]float64, n)
			for j := 0; j < n; j++ {
				want[(j*3)%n] += float64(j)
			}
			for i := range want {
				if math.Abs(got[i]-want[i]) > 1e-12 {
					t.Fatalf("np=%d: merged[%d] = %g, want %g", np, i, got[i], want[i])
				}
			}
		})
	}
}

func TestPrivateMergeDistributed(t *testing.T) {
	for _, np := range testNPs {
		n := 6 * np
		d := dist.NewBlock(n, np)
		counts := dist.Counts(d)
		machine(np).Run(func(p *comm.Proc) {
			region := NewPrivate(counts)
			blk := make([]float64, counts[p.Rank()])
			// The second region proves Open zeroes what the first left.
			for round := 1; round <= 2; round++ {
				q := region.Open()
				for i := range q {
					q[i] += float64(round * (p.Rank() + 1))
				}
				region.MergeDistributed(p, blk)
				sum := float64(round*np*(np+1)) / 2
				for _, v := range blk {
					if v != sum {
						t.Fatalf("np=%d round %d: merged %g, want %g", np, round, v, sum)
					}
				}
			}
		})
	}
}

// An inspected region holds the owned block and the ghost slots only,
// and merges to the dense region's bits: Figure 5's accumulation into
// scattered targets, run into both and merged by each.
func TestPrivateInspectedMatchesDense(t *testing.T) {
	for _, np := range testNPs {
		n := 5*np + 2
		d := dist.NewBlock(n, np)
		counts := dist.Counts(d)
		target := func(j, k int) int { return (j*7 + k*(n/2+1)) % n }
		machine(np).Run(func(p *comm.Proc) {
			r := p.Rank()
			lo, cnt := d.Lo(r), counts[r]
			var needs []int
			for j := lo; j < lo+cnt; j++ {
				needs = append(needs, target(j, 0), target(j, 1))
			}
			sched := inspector.Build(p, d, needs)
			dense, inspected := NewPrivate(counts), NewPrivateInspected(cnt, sched)
			slot := func(g int) int {
				if g >= lo && g < lo+cnt {
					return g - lo
				}
				return cnt + sched.GhostSlot(g)
			}
			want, got := make([]float64, cnt), make([]float64, cnt)
			for round := 1; round <= 2; round++ {
				q, qs := dense.Open(), inspected.Open()
				if len(qs) != cnt+sched.NGhosts() {
					t.Fatalf("np=%d rank %d: inspected copy of %d words, want %d", np, r, len(qs), cnt+sched.NGhosts())
				}
				for j := lo; j < lo+cnt; j++ {
					for k := range 2 {
						v := math.Sin(float64(j*round+k)) * 1e3
						q[target(j, k)] += v
						qs[slot(target(j, k))] += v
					}
				}
				dense.MergeDistributed(p, want)
				inspected.MergeDistributed(p, got)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("np=%d rank %d round %d: merged[%d] = %v, dense %v", np, r, round, i, got[i], want[i])
					}
				}
			}
		})
	}
}

func TestNewPrivateValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative length should panic")
		}
	}()
	machine(1).Run(func(p *comm.Proc) {
		NewPrivate([]int{2, -1})
	})
}
