package comm

import (
	"math"
	"testing"

	"hpfcg/internal/topology"
)

// serialReduce is the reference: combine all ranks' vectors in rank
// order on one machine.
func serialReduce(np, n int, op ReduceOp, gen func(rank, i int) float64) []float64 {
	ref := make([]float64, n)
	for i := range ref {
		ref[i] = gen(0, i)
	}
	for r := 1; r < np; r++ {
		v := make([]float64, n)
		for i := range v {
			v[i] = gen(r, i)
		}
		op.combine(ref, v)
	}
	return ref
}

// TestAllreduceAlgosBitIdentical: the tree allreduce must agree bit
// for bit with a serial rank-order reduction on integer-valued data
// (where every combination order is exact) for every operator,
// processor count — including the odd counts whose trees are ragged —
// and vector length.
func TestAllreduceAlgosBitIdentical(t *testing.T) {
	sizes := []int{1, 3, 17, 64, 257}
	gen := func(rank, i int) float64 { return float64((rank*31+i*7)%23 - 11) }
	for _, np := range testNPs {
		for _, n := range sizes {
			for _, op := range []ReduceOp{OpSum, OpMax, OpMin} {
				ref := serialReduce(np, n, op, gen)
				got := make([][]float64, np)
				testMachine(np).Run(func(p *Proc) {
					x := make([]float64, n)
					for i := range x {
						x[i] = gen(p.Rank(), i)
					}
					p.AllreduceScalars(x, op)
					got[p.Rank()] = x
				})
				for r := 0; r < np; r++ {
					for i := range ref {
						if got[r][i] != ref[i] {
							t.Fatalf("np=%d n=%d op=%d rank=%d elem %d: got %v want %v",
								np, n, op, r, i, got[r][i], ref[i])
						}
					}
				}
			}
		}
	}
}

// TestAllreduceStartupAsymptotics: under a startup-only cost model the
// tree allreduce on a power-of-two machine is 2·log2 NP sequential
// message steps — log2 NP up to rank 0 and log2 NP back down, the
// t_s·log NP of §4 twice.
func TestAllreduceStartupAsymptotics(t *testing.T) {
	tsOnly := topology.CostParams{TStartup: 1}
	for _, np := range []int{2, 4, 8, 16} {
		m := NewMachine(np, topology.Hypercube{}, tsOnly)
		got := m.Run(func(p *Proc) {
			p.AllreduceScalars(make([]float64, 64), OpSum)
		}).ModelTime
		if want := float64(2 * topology.Log2Ceil(np)); got != want {
			t.Errorf("np=%d: startup-only makespan %g, want %g", np, got, want)
		}
	}
}

// TestAllreduceScalarsMatchesSeparate: batching k scalars into one
// AllreduceScalars round is bit-identical to k separate AllreduceScalar
// calls — the element-wise combine runs in the same tree order — even
// for floating-point data where the order matters.
func TestAllreduceScalarsMatchesSeparate(t *testing.T) {
	for _, np := range testNPs {
		testMachine(np).Run(func(p *Proc) {
			vals := []float64{
				1.0 / float64(p.Rank()+1),
				math.Pi * float64(p.Rank()),
				1e-17 + float64(p.Rank()),
			}
			batched := make([]float64, len(vals))
			copy(batched, vals)
			p.AllreduceScalars(batched, OpSum)
			for i, v := range vals {
				if sep := p.AllreduceScalar(v, OpSum); sep != batched[i] {
					t.Errorf("np=%d elem %d: batched %v != separate %v", np, i, batched[i], sep)
				}
			}
		})
	}
}

// TestAllreduceScalarNoAllocs is the scalar fast path's zero-allocation
// guard: after one warm-up round fills every rank's buffer pool, the
// steady-state DOT_PRODUCT merge must not touch the heap on any rank
// (AllocsPerRun counts process-wide allocations, so peer ranks
// allocating would fail it too).
func TestAllreduceScalarNoAllocs(t *testing.T) {
	const runs = 7
	m := testMachine(4)
	var allocs float64
	m.Run(func(p *Proc) {
		x := float64(p.Rank() + 1)
		p.AllreduceScalar(x, OpSum) // warm-up: populate the pools
		if p.Rank() == 0 {
			allocs = testing.AllocsPerRun(runs, func() {
				p.AllreduceScalar(x, OpSum)
			})
		} else {
			for i := 0; i < runs+1; i++ {
				p.AllreduceScalar(x, OpSum)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("AllreduceScalar allocated %.1f times per call in steady state, want 0", allocs)
	}
}

// TestAllreduceInPlaceNoAllocs: a 128-word tree allreduce runs in
// place and allocation-free in steady state on pooled buffers.
func TestAllreduceInPlaceNoAllocs(t *testing.T) {
	const runs = 7
	m := testMachine(4)
	var allocs float64
	m.Run(func(p *Proc) {
		x := make([]float64, 128)
		p.AllreduceScalars(x, OpSum)
		if p.Rank() == 0 {
			allocs = testing.AllocsPerRun(runs, func() {
				p.AllreduceScalars(x, OpSum)
			})
		} else {
			for i := 0; i < runs+1; i++ {
				p.AllreduceScalars(x, OpSum)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("AllreduceScalars(128 words) allocated %.1f times per call in steady state, want 0", allocs)
	}
}

// TestAllgatherVIntoNoAllocs: the gather phase of the mat-vec reuses
// the caller's buffer and pooled messages — no steady-state heap
// traffic on either the power-of-two or the ring path.
func TestAllgatherVIntoNoAllocs(t *testing.T) {
	const runs = 7
	for _, np := range []int{3, 4} {
		m := testMachine(np)
		var allocs float64
		m.Run(func(p *Proc) {
			counts := make([]int, np)
			for i := range counts {
				counts[i] = 16
			}
			local := make([]float64, 16)
			full := make([]float64, 16*np)
			p.AllgatherVInto(local, counts, full)
			if p.Rank() == 0 {
				allocs = testing.AllocsPerRun(runs, func() {
					p.AllgatherVInto(local, counts, full)
				})
			} else {
				for i := 0; i < runs+1; i++ {
					p.AllgatherVInto(local, counts, full)
				}
			}
		})
		if allocs != 0 {
			t.Errorf("np=%d: AllgatherVInto allocated %.1f times per call in steady state, want 0", np, allocs)
		}
	}
}
