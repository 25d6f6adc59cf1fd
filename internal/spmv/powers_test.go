package spmv

import (
	"slices"
	"testing"

	"hpfcg/internal/comm"
	"hpfcg/internal/darray"
	"hpfcg/internal/dist"
	"hpfcg/internal/inspector"
	"hpfcg/internal/sparse"
)

// The matrix-powers kernel as a plain Operator must match the
// sequential reference, like every other operator.
func TestPowersApplyMatchesReference(t *testing.T) {
	for name, A := range testMatrices() {
		want := reference(A, false)
		for _, np := range testNPs {
			for _, depth := range []int{1, 2, 3} {
				got := runApply(t, np, A, func(p *comm.Proc, d dist.Contiguous) Operator {
					return NewRowBlockCSRPowers(p, A, d, depth)
				}, false)
				checkClose(t, name+"/powers", got, want)
			}
		}
	}
}

// The load-bearing property of the kernel: a basis block produced by
// ApplyPowersBlock must be bit-identical — not approximately equal —
// to the vectors repeated depth-1 Applies yield, because
// CGSStep's s=1 equivalence and its cross-s convergence accounting
// both assume the block brings in no new rounding.
func TestPowersBlockBitIdenticalToRepeatedApplies(t *testing.T) {
	mats := map[string]*sparse.CSR{
		"laplace2d": sparse.Laplace2D(6, 7),
		"banded":    sparse.Banded(48, 3),
		"randspd":   sparse.RandomSPD(40, 6, 11),
	}
	for name, A := range mats {
		n := A.NRows
		ps := sparse.RandomVector(n, 5)
		rs := sparse.RandomVector(n, 6)
		for _, np := range []int{1, 2, 4} {
			for _, depth := range []int{1, 2, 3, 4} {
				d := dist.NewBlock(n, np)
				machine(np).Run(func(p *comm.Proc) {
					pow := NewRowBlockCSRPowers(p, A, d, depth)
					gh := NewRowBlockCSRGhost(p, A, d)
					pv := darray.New(p, d)
					rv := darray.New(p, d)
					pv.SetGlobal(func(g int) float64 { return ps[g] })
					rv.SetGlobal(func(g int) float64 { return rs[g] })

					AP := make([]*darray.Vector, depth)
					for j := range AP {
						AP[j] = darray.New(p, d)
					}
					rDepth := depth - 1
					if rDepth == 0 {
						rDepth = 1
					}
					AR := make([]*darray.Vector, rDepth)
					for j := range AR {
						AR[j] = darray.New(p, d)
					}
					pow.ApplyPowersBlock(
						[]*darray.Vector{pv, rv},
						[][]*darray.Vector{AP, AR},
					)

					cur := pv
					for j := 0; j < depth; j++ {
						next := darray.New(p, d)
						gh.Apply(cur, next)
						wl, gl := next.Local(), AP[j].Local()
						for i := range wl {
							if wl[i] != gl[i] {
								t.Errorf("%s np=%d depth=%d: A^%d p differs at local %d: %v vs %v",
									name, np, depth, j+1, i, gl[i], wl[i])
							}
						}
						cur = next
					}
					cur = rv
					for j := 0; j < rDepth; j++ {
						next := darray.New(p, d)
						gh.Apply(cur, next)
						wl, gl := next.Local(), AR[j].Local()
						for i := range wl {
							if wl[i] != gl[i] {
								t.Errorf("%s np=%d depth=%d: A^%d r differs at local %d: %v vs %v",
									name, np, depth, j+1, i, gl[i], wl[i])
							}
						}
						cur = next
					}
				})
			}
		}
	}
}

// ExchangeBlock must deliver exactly what k separate Exchanges deliver,
// in one message round per neighbour pair instead of k.
func TestExchangeBlockBitIdenticalToExchanges(t *testing.T) {
	n := 40
	const np = 4
	const k = 3
	d := dist.NewBlock(n, np)
	vecs := make([][]float64, k)
	for v := range vecs {
		vecs[v] = sparse.RandomVector(n, int64(v+1))
	}
	machine(np).Run(func(p *comm.Proc) {
		r := p.Rank()
		lo, cnt := d.Lo(r), d.Count(r)
		// Every rank wants a halo of two indices on each side.
		var needs []int
		for _, g := range []int{lo - 2, lo - 1, lo + cnt, lo + cnt + 1} {
			if g >= 0 && g < n {
				needs = append(needs, g)
			}
		}
		sched := inspector.Build(p, d, needs)
		locals := make([][]float64, k)
		for v := range locals {
			locals[v] = vecs[v][lo : lo+cnt]
		}
		var want [][]float64
		for v := 0; v < k; v++ {
			g := sched.Exchange(locals[v])
			want = append(want, append([]float64(nil), g...))
		}
		got := sched.ExchangeBlock(locals)
		for v := 0; v < k; v++ {
			for i := range want[v] {
				if got[v][i] != want[v][i] {
					t.Errorf("rank %d vec %d slot %d: block %v, single %v", r, v, i, got[v][i], want[v][i])
				}
			}
		}
	})
	// One round: a 2-vector block on the powers schedule must cost fewer
	// messages than two single exchanges.
	countMsgs := func(block bool) int64 {
		st := machine(np).Run(func(p *comm.Proc) {
			r := p.Rank()
			lo, cnt := d.Lo(r), d.Count(r)
			var needs []int
			for _, g := range []int{lo - 1, lo + cnt} {
				if g >= 0 && g < n {
					needs = append(needs, g)
				}
			}
			sched := inspector.Build(p, d, needs)
			locals := [][]float64{vecs[0][lo : lo+cnt], vecs[1][lo : lo+cnt]}
			if block {
				sched.ExchangeBlock(locals)
			} else {
				sched.Exchange(locals[0])
				sched.Exchange(locals[1])
			}
		})
		return st.TotalMsgs
	}
	if b, s := countMsgs(true), countMsgs(false); b >= s {
		t.Errorf("block exchange sent %d msgs, singles sent %d; block must be fewer", b, s)
	}
}

// Satellite guard: the matrix-powers executor allocates nothing in
// steady state — the widened ghost buffers, the packed send buffers and
// the ping-pong level buffers are all reused.
func TestPowersBlockSteadyStateNoAllocs(t *testing.T) {
	A := sparse.Laplace2D(8, 8)
	n := A.NRows
	const runs = 7
	const depth = 4
	for _, np := range []int{3, 4} {
		d := dist.NewBlock(n, np)
		var allocs float64
		machine(np).Run(func(p *comm.Proc) {
			op := NewRowBlockCSRPowers(p, A, d, depth)
			pv := darray.New(p, d)
			rv := darray.New(p, d)
			pv.SetGlobal(func(g int) float64 { return float64(g%7) - 3 })
			rv.SetGlobal(func(g int) float64 { return float64(g%5) - 2 })
			AP := make([]*darray.Vector, depth)
			AR := make([]*darray.Vector, depth-1)
			for j := range AP {
				AP[j] = darray.New(p, d)
			}
			for j := range AR {
				AR[j] = darray.New(p, d)
			}
			seeds := []*darray.Vector{pv, rv}
			outs := [][]*darray.Vector{AP, AR}
			op.ApplyPowersBlock(seeds, outs) // warm-up sizes every buffer
			if p.Rank() == 0 {
				allocs = testing.AllocsPerRun(runs, func() {
					op.ApplyPowersBlock(seeds, outs)
				})
			} else {
				for i := 0; i < runs+1; i++ {
					op.ApplyPowersBlock(seeds, outs)
				}
			}
		})
		if allocs != 0 {
			t.Errorf("np=%d: ApplyPowersBlock allocated %.1f times per call in steady state, want 0", np, allocs)
		}
	}
}

// PowersStats must price exactly the work the kernel itself reports —
// it is the input of the s-selection cost model, so any disagreement
// would make hpfexec pick s against the wrong numbers. One call's
// slices must equal, at every depth 1..8, the kernel built at that
// depth: the widest ghost set and the largest basis-pair sweep (the
// kernel's flop-charge table for a depth-s p chain plus a depth-(s-1)
// r chain). At depth 1 the sweep is exactly the local rows. np 3
// divides none of the sizes.
func TestPowersStatsMatchesKernel(t *testing.T) {
	const maxDepth = 8
	for name, A := range map[string]*sparse.CSR{
		"laplace2d": sparse.Laplace2D(20, 17),
		"banded":    sparse.Banded(200, 3),
		"randspd":   sparse.RandomSPD(121, 6, 11),
		"powerlaw":  sparse.PowerLaw(151, 1.2, 151/4, 1),
	} {
		for _, np := range []int{1, 2, 3, 8} {
			d := dist.NewBlock(A.NRows, np)
			entries, ghosts := PowersStats(A, d, np, maxDepth)
			if len(entries) != maxDepth+1 || len(ghosts) != maxDepth+1 {
				t.Fatalf("%s np=%d: %d entries and %d ghosts, want depths 0..%d", name, np, len(entries), len(ghosts), maxDepth)
			}
			for depth := 1; depth <= maxDepth; depth++ {
				rankEntries, rankGhosts, rankLocal := make([]int, np), make([]int, np), make([]int, np)
				machine(np).Run(func(p *comm.Proc) {
					op, r := NewRowBlockCSRPowers(p, A, d, depth), p.Rank()
					rankEntries[r] = op.cumEntries[depth] + op.cumEntries[depth-1]
					rankGhosts[r] = op.NGhosts()
					rankLocal[r] = op.LocalNNZ()
					if depth == 1 && op.OverlapNNZ() != 0 {
						t.Errorf("%s np=%d depth 1 rank %d: overlap nnz %d, want 0", name, np, r, op.OverlapNNZ())
					}
				})
				wantEntries, wantGhosts, maxLocal := slices.Max(rankEntries), slices.Max(rankGhosts), slices.Max(rankLocal)
				if entries[depth] != wantEntries || ghosts[depth] != wantGhosts {
					t.Errorf("%s np=%d depth %d: PowersStats (%d entries, %d ghosts), kernels (%d, %d)",
						name, np, depth, entries[depth], ghosts[depth], wantEntries, wantGhosts)
				}
				if depth == 1 && entries[1] != maxLocal {
					t.Errorf("%s np=%d: depth-1 entries %d, want the max local nnz %d", name, np, entries[1], maxLocal)
				}
			}
		}
	}
}
