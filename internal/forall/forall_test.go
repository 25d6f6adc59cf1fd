package forall

import (
	"math"
	"sync"
	"testing"

	"hpfcg/internal/comm"
	"hpfcg/internal/dist"
	"hpfcg/internal/topology"
)

func machine(np int) *comm.Machine {
	return comm.NewMachine(np, topology.Hypercube{}, topology.DefaultCostParams())
}

var testNPs = []int{1, 2, 3, 4, 8}

func TestIndepCoversEachIterationOnce(t *testing.T) {
	for _, np := range testNPs {
		n := 7*np + 3
		var mu sync.Mutex
		hits := make([]int, n)
		machine(np).Run(func(p *comm.Proc) {
			Indep(p, 0, n, MapFunc(dist.NewBlock(n, np).Owner), 1, func(i int) {
				mu.Lock()
				hits[i]++
				mu.Unlock()
			})
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("np=%d: iteration %d executed %d times", np, i, h)
			}
		}
	}
}

func TestIndepRespectsMapping(t *testing.T) {
	np := 4
	n := 16
	machine(np).Run(func(p *comm.Proc) {
		Indep(p, 0, n, MapFunc(dist.NewCyclic(n, np).Owner), 0, func(i int) {
			if i%np != p.Rank() {
				t.Errorf("rank %d executed iteration %d under cyclic map", p.Rank(), i)
			}
		})
		Indep(p, 0, n, MapFunc(func(i int) int { return 2 }), 0, func(i int) {
			if p.Rank() != 2 {
				t.Errorf("rank %d executed iteration %d mapped to 2", p.Rank(), i)
			}
		})
	})
}

func TestIndepChargesOwnedIterationsOnly(t *testing.T) {
	np := 4
	n := 100
	st := machine(np).Run(func(p *comm.Proc) {
		Indep(p, 0, n, MapFunc(dist.NewBlock(n, np).Owner), 10, func(i int) {})
	})
	if st.TotalFlops != int64(n*10) {
		t.Errorf("TotalFlops = %d, want %d", st.TotalFlops, n*10)
	}
	if st.MaxFlops != 250 {
		t.Errorf("MaxFlops = %d, want 250", st.MaxFlops)
	}
}

// FORALL semantics: all RHS evaluated before any assignment, so a
// vector reversal through the same array is safe per processor.
func TestForallTwoPhase(t *testing.T) {
	np := 1 // single proc: the two-phase property is per-processor
	n := 9
	machine(np).Run(func(p *comm.Proc) {
		a := make([]float64, n)
		for i := range a {
			a[i] = float64(i)
		}
		Forall(p, 0, n, MapFunc(dist.NewBlock(n, np).Owner), 1,
			func(i int) float64 { return a[n-1-i] },
			func(i int, v float64) { a[i] = v })
		for i := range a {
			if a[i] != float64(n-1-i) {
				t.Fatalf("FORALL reversal failed: a[%d] = %g", i, a[i])
			}
		}
	})
}

func TestForallDistributed(t *testing.T) {
	for _, np := range testNPs {
		n := 5 * np
		d := dist.NewBlock(n, np)
		machine(np).Run(func(p *comm.Proc) {
			out := make([]float64, n) // each proc writes only its part
			Forall(p, 0, n, MapFunc(d.Owner), 2,
				func(i int) float64 { return 3 * float64(i) },
				func(i int, v float64) { out[i] = v })
			lo := d.Lo(p.Rank())
			for off := 0; off < d.Count(p.Rank()); off++ {
				if out[lo+off] != 3*float64(lo+off) {
					t.Fatalf("np=%d rank=%d: out[%d] = %g", np, p.Rank(), lo+off, out[lo+off])
				}
			}
		})
	}
}

// The paper's Figure 5 workload: CSC-style many-to-one accumulation
// parallelised with PRIVATE + MERGE(+).
func TestPrivateMergeReplicated(t *testing.T) {
	for _, np := range testNPs {
		n := 4*np + 1
		machine(np).Run(func(p *comm.Proc) {
			region := NewPrivate(p, n, MergeSum)
			// Every processor accumulates into scattered targets.
			Indep(p, 0, n, MapFunc(dist.NewBlock(n, np).Owner), 2, func(j int) {
				region.Data()[(j*3)%n] += float64(j)
			})
			got := region.MergeReplicated()
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
			region := NewPrivate(p, n, MergeSum)
			for i := 0; i < n; i++ {
				region.Data()[i] = float64(p.Rank() + 1)
			}
			blk := region.MergeDistributed(counts)
			if len(blk) != counts[p.Rank()] {
				t.Fatalf("np=%d: block len %d", np, len(blk))
			}
			sum := float64(np*(np+1)) / 2
			for _, v := range blk {
				if v != sum {
					t.Fatalf("np=%d: merged %g, want %g", np, v, sum)
				}
			}
		})
	}
}

func TestPrivateDiscard(t *testing.T) {
	machine(3).Run(func(p *comm.Proc) {
		region := NewPrivate(p, 5, Discard)
		region.Data()[0] = 1
		if got := region.MergeReplicated(); got != nil {
			t.Errorf("Discard MergeReplicated = %v", got)
		}
		if got := region.MergeDistributed([]int{2, 2, 1}); got != nil {
			t.Errorf("Discard MergeDistributed = %v", got)
		}
	})
}

func TestNewPrivateValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative length should panic")
		}
	}()
	machine(1).Run(func(p *comm.Proc) {
		NewPrivate(p, -1, MergeSum)
	})
}

// Serialized must produce the same result as the parallel private-merge
// path, while charging all compute to rank 0.
func TestSerializedMatchesParallel(t *testing.T) {
	np := 4
	n := 20
	d := dist.NewBlock(n, np)
	counts := dist.Counts(d)
	// x[i] = i; out[j] = x[j] * 2 computed "serially".
	var serialOut, parallelOut []float64
	st := machine(np).Run(func(p *comm.Proc) {
		local := make([]float64, counts[p.Rank()])
		lo := d.Lo(p.Rank())
		for i := range local {
			local[i] = float64(lo + i)
		}
		blk := Serialized(p, local, counts, counts, n, 2*n, func(xFull, out []float64) {
			for j := 0; j < n; j++ {
				out[j] = 2 * xFull[j]
			}
		})
		full := p.AllgatherV(blk, counts)
		if p.Rank() == 0 {
			serialOut = full
		}
	})
	if st.Procs[1].Flops != 0 || st.Procs[0].Flops != int64(2*n) {
		t.Errorf("Serialized flops distribution wrong: %+v", st.Procs)
	}
	machine(np).Run(func(p *comm.Proc) {
		region := NewPrivate(p, n, MergeSum)
		Indep(p, 0, n, MapFunc(dist.NewBlock(n, np).Owner), 2, func(j int) {
			region.Data()[j] = 2 * float64(j)
		})
		blk := region.MergeDistributed(counts)
		full := p.AllgatherV(blk, counts)
		if p.Rank() == 0 {
			parallelOut = full
		}
	})
	for i := range serialOut {
		if serialOut[i] != parallelOut[i] {
			t.Fatalf("serial vs parallel diverge at %d: %g vs %g", i, serialOut[i], parallelOut[i])
		}
	}
}

// The point of §5.1: the private-merge version distributes compute,
// the serialised version concentrates it on one processor.
func TestPrivateBeatsSerializedOnCompute(t *testing.T) {
	np := 8
	n := 1 << 10
	flopsPer := 4
	d := dist.NewBlock(n, np)
	counts := dist.Counts(d)

	serial := machine(np).Run(func(p *comm.Proc) {
		local := make([]float64, counts[p.Rank()])
		Serialized(p, local, counts, counts, n, n*flopsPer, func(xFull, out []float64) {})
	})
	parallel := machine(np).Run(func(p *comm.Proc) {
		region := NewPrivate(p, n, MergeSum)
		Indep(p, 0, n, MapFunc(dist.NewBlock(n, np).Owner), flopsPer, func(j int) {})
		region.MergeDistributed(counts)
	})
	if parallel.MaxFlops >= serial.MaxFlops {
		t.Errorf("private-merge max flops %d should beat serialised %d", parallel.MaxFlops, serial.MaxFlops)
	}
	if serial.FlopImbalance() < float64(np)*0.99 {
		t.Errorf("serialised imbalance %g, want ~%d", serial.FlopImbalance(), np)
	}
	if parallel.FlopImbalance() > 1.3 {
		t.Errorf("private-merge imbalance %g, want ~1", parallel.FlopImbalance())
	}
}

// HPF FORALL with a mask: only masked iterations execute, two-phase
// semantics preserved across the masked set.
func TestForallMasked(t *testing.T) {
	for _, np := range testNPs {
		n := 6 * np
		d := dist.NewBlock(n, np)
		st := machine(np).Run(func(p *comm.Proc) {
			out := make([]float64, n)
			for i := range out {
				out[i] = -1
			}
			ForallMasked(p, 0, n, MapFunc(d.Owner), 3,
				func(i int) bool { return i%2 == 0 },
				func(i int) float64 { return float64(10 * i) },
				func(i int, v float64) { out[i] = v })
			lo := d.Lo(p.Rank())
			for off := 0; off < d.Count(p.Rank()); off++ {
				g := lo + off
				want := -1.0
				if g%2 == 0 {
					want = float64(10 * g)
				}
				if out[g] != want {
					t.Errorf("np=%d: out[%d] = %g, want %g", np, g, out[g], want)
					return
				}
			}
		})
		// Only masked iterations are charged: n/2 of them, 3 flops each.
		want := int64(3 * ((n + 1) / 2))
		if st.TotalFlops != want {
			t.Errorf("np=%d: flops %d, want %d", np, st.TotalFlops, want)
		}
	}
}

// A masked FORALL that reads what it conditionally writes must still
// see pre-assignment values in the RHS phase.
func TestForallMaskedTwoPhase(t *testing.T) {
	machine(1).Run(func(p *comm.Proc) {
		n := 8
		a := make([]float64, n)
		for i := range a {
			a[i] = float64(i)
		}
		// a(i) = a(i+1) for even i: must read original a(i+1) even when
		// i+1 was itself (oddly) untouched... and for chains a(0)=a(1),
		// a(2)=a(3): no chaining issues since mask hits evens only, but
		// verify against the spec semantics anyway.
		ForallMasked(p, 0, n-1, MapFunc(dist.NewBlock(n-1, 1).Owner), 1,
			func(i int) bool { return i%2 == 0 },
			func(i int) float64 { return a[i+1] },
			func(i int, v float64) { a[i] = v })
		want := []float64{1, 1, 3, 3, 5, 5, 7, 7}
		for i := range want {
			if a[i] != want[i] {
				t.Fatalf("a = %v, want %v", a, want)
			}
		}
	})
}
