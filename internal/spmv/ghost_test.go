package spmv

import (
	"math"
	"testing"

	"hpfcg/internal/comm"
	"hpfcg/internal/darray"
	"hpfcg/internal/dist"
	"hpfcg/internal/sparse"
)

func TestGhostOperatorMatchesReference(t *testing.T) {
	for name, A := range testMatrices() {
		want := reference(A, false)
		for _, np := range testNPs {
			got := runApply(t, np, A, func(p *comm.Proc, d dist.Contiguous) Operator {
				return NewRowBlockCSRGhost(p, A, d)
			}, false)
			checkClose(t, name+"/ghost", got, want)
		}
	}
}

func TestGhostScheduleReusedAcrossApplies(t *testing.T) {
	A := sparse.Banded(64, 2)
	np := 4
	d := dist.NewBlock(64, np)
	machine(np).Run(func(p *comm.Proc) {
		op := NewRowBlockCSRGhost(p, A, d)
		x := darray.New(p, d)
		y := darray.New(p, d)
		for rep := 0; rep < 3; rep++ {
			x.SetGlobal(func(g int) float64 { return float64(g + rep) })
			op.Apply(x, y)
			full := y.Gather()
			ref := make([]float64, 64)
			xf := make([]float64, 64)
			for g := range xf {
				xf[g] = float64(g + rep)
			}
			A.MulVec(xf, ref)
			for i := range ref {
				if math.Abs(full[i]-ref[i]) > 1e-10 {
					t.Fatalf("rep %d: elem %d = %g, want %g", rep, i, full[i], ref[i])
				}
			}
		}
	})
}

func TestGhostMetadata(t *testing.T) {
	A := sparse.Banded(40, 3)
	np := 4
	d := dist.NewBlock(40, np)
	machine(np).Run(func(p *comm.Proc) {
		op := NewRowBlockCSRGhost(p, A, d)
		if op.N() != 40 || op.NNZ() != A.NNZ() {
			t.Errorf("metadata: N=%d NNZ=%d", op.N(), op.NNZ())
		}
		if op.LocalNNZ() <= 0 {
			t.Errorf("LocalNNZ = %d", op.LocalNNZ())
		}
		// Halfband 3 halo: at most 3 ghosts per side.
		if op.NGhosts() > 6 {
			t.Errorf("banded halo has %d ghosts, want <= 6", op.NGhosts())
		}
		if p.NP() > 1 && op.NGhosts() == 0 {
			t.Error("interior processors should have ghosts")
		}
	})
}

// The E14 claim: on a banded matrix the ghost operator moves far fewer
// bytes per apply than the broadcast operator, and modeled time drops.
func TestGhostBeatsBroadcastOnBanded(t *testing.T) {
	n := 2048
	A := sparse.Banded(n, 4)
	np := 8
	d := dist.NewBlock(n, np)
	run := func(ghost bool, applies int) comm.RunStats {
		return machine(np).Run(func(p *comm.Proc) {
			var op Operator
			if ghost {
				op = NewRowBlockCSRGhost(p, A, d)
			} else {
				op = NewRowBlockCSR(p, A, d)
			}
			x := darray.New(p, d)
			y := darray.New(p, d)
			x.Fill(1)
			for i := 0; i < applies; i++ {
				op.Apply(x, y)
			}
		})
	}
	const applies = 10
	bc := run(false, applies)
	gh := run(true, applies) // includes the one-time inspector
	if gh.TotalBytes >= bc.TotalBytes {
		t.Errorf("ghost moved %d bytes, broadcast %d", gh.TotalBytes, bc.TotalBytes)
	}
	if gh.ModelTime >= bc.ModelTime {
		t.Errorf("ghost model time %g, broadcast %g", gh.ModelTime, bc.ModelTime)
	}
}

// CG must run unchanged on the ghost operator (it is just an Operator).
func TestGhostWorksUnderGather(t *testing.T) {
	// A dense-ish random matrix: the ghost set approaches the whole
	// vector, and results must still be exact.
	A := sparse.RandomSPD(60, 20, 4)
	want := reference(A, false)
	got := runApply(t, 4, A, func(p *comm.Proc, d dist.Contiguous) Operator {
		return NewRowBlockCSRGhost(p, A, d)
	}, false)
	checkClose(t, "dense-ghost", got, want)
}

// The depth-1 executor must stay as small as the matrix allows: its
// values are A's own (no copy), its column map is sized exactly, and the
// basis-block work buffers do not exist until a block is asked for —
// a plain CG solve never pays for them.
func TestGhostAliasesMatrixAndDefersBlockBuffers(t *testing.T) {
	A := sparse.Banded(64, 3)
	np := 4
	d := dist.NewBlock(64, np)
	machine(np).Run(func(p *comm.Proc) {
		op := NewRowBlockCSRGhost(p, A, d)
		lo := A.RowPtr[d.Lo(p.Rank())]
		if len(op.val) != op.nnzLocal || &op.val[0] != &A.Val[lo] {
			t.Errorf("rank %d: values are a copy (%d entries for %d local)", p.Rank(), len(op.val), op.nnzLocal)
		}
		if len(op.colSlot) != op.nnzLocal || cap(op.colSlot) != op.nnzLocal {
			t.Errorf("rank %d: column map len %d cap %d for %d entries", p.Rank(), len(op.colSlot), cap(op.colSlot), op.nnzLocal)
		}
		x := darray.New(p, d)
		y := darray.New(p, d)
		x.Fill(1)
		op.Apply(x, y)
		op.ApplyDot(x, y)
		if op.work0 != nil || op.work1 != nil {
			t.Errorf("rank %d: block buffers allocated before any ApplyPowersBlock", p.Rank())
		}
		op.ApplyPowersBlock([]*darray.Vector{x}, [][]*darray.Vector{{y}})
		if len(op.work0) != op.nSlots || len(op.work1) != op.nSlots {
			t.Errorf("rank %d: block buffers %d/%d after a block, want %d", p.Rank(), len(op.work0), len(op.work1), op.nSlots)
		}
	})
}

// Extended row i produces value slot i, so the slot vector is paid for
// by keeping no per-row slot map: the depth-1 executor retains no slot
// map at all, and a deeper one at most one entry per ghost, where the
// closure's ring order differs from the exchange's.
func TestGhostKeepsNoRowSlotMap(t *testing.T) {
	A := sparse.Laplace2D(9, 8)
	np := 4
	d := dist.NewBlock(A.NRows, np)
	machine(np).Run(func(p *comm.Proc) {
		op := NewRowBlockCSRGhost(p, A, d)
		if op.ghostSlot != nil {
			t.Errorf("rank %d: depth-1 executor keeps a slot map of %d entries", p.Rank(), cap(op.ghostSlot))
		}
		if len(op.xs) != op.nSlots || cap(op.xs) != op.nSlots {
			t.Errorf("rank %d: slot vector len %d cap %d, want %d", p.Rank(), len(op.xs), cap(op.xs), op.nSlots)
		}
		deep := NewRowBlockCSRPowers(p, A, d, 3)
		if m := deep.ghostSlot; m != nil && (len(m) != deep.NGhosts() || cap(m) != deep.NGhosts()) {
			t.Errorf("rank %d: depth-3 slot map len %d cap %d, want %d ghosts", p.Rank(), len(m), cap(m), deep.NGhosts())
		}
	})
}
