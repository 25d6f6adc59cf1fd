package grid

import (
	"math"
	"testing"

	"hpfcg/internal/comm"
	"hpfcg/internal/darray"
	"hpfcg/internal/dist"
	"hpfcg/internal/sparse"
	"hpfcg/internal/spmv"
)

func sparseCheckerApply(t *testing.T, np, n int, A *sparse.CSR) {
	t.Helper()
	g := NewProcGrid(np)
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(float64(i) * 0.7)
	}
	want := make([]float64, n)
	A.MulVec(x, want)
	var got []float64
	machine(np).Run(func(p *comm.Proc) {
		cb := NewSparseCheckerboard(p, A, g)
		var xBlock []float64
		pr, pc := g.Coords(p.Rank())
		if pr == 0 {
			lo := pc * n / g.Cols
			xBlock = append([]float64(nil), x[lo:lo+cb.XLen()]...)
		}
		y := cb.Apply(xBlock)
		full := gatherY(p, g, n, y)
		if p.Rank() == 0 {
			got = full
		}
	})
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("np=%d n=%d: elem %d = %g, want %g", np, n, i, got[i], want[i])
		}
	}
}

func TestSparseCheckerboardApply(t *testing.T) {
	for _, c := range []struct{ np, n int }{
		{1, 9}, {2, 12}, {4, 16}, {6, 25}, {9, 27}, {16, 40},
	} {
		sparseCheckerApply(t, c.np, c.n, sparse.RandomSPD(c.n, 4, int64(c.np)))
	}
	sparseCheckerApply(t, 4, 30, sparse.Laplace2D(5, 6))
	sparseCheckerApply(t, 4, 20, sparse.Banded(20, 3))
}

func TestSparseCheckerboardBlockNNZ(t *testing.T) {
	A := sparse.Laplace1D(16)
	np := 4
	g := NewProcGrid(np)
	total := 0
	var totals [4]int
	machine(np).Run(func(p *comm.Proc) {
		cb := NewSparseCheckerboard(p, A, g)
		totals[p.Rank()] = cb.nnzLocal
		if cb.N() != 16 {
			t.Errorf("N = %d", cb.N())
		}
	})
	for _, v := range totals {
		total += v
	}
	if total != A.NNZ() {
		t.Errorf("block nnz sum %d != %d", total, A.NNZ())
	}
}

// Versus striping on a uniformly sparse matrix: fewer bytes per apply.
func TestSparseCheckerboardBytes(t *testing.T) {
	n, np := 1024, 16
	A := sparse.Banded(n, 8)
	g := NewProcGrid(np)

	checker := machine(np).Run(func(p *comm.Proc) {
		cb := NewSparseCheckerboard(p, A, g)
		var xBlock []float64
		if pr, _ := g.Coords(p.Rank()); pr == 0 {
			xBlock = make([]float64, cb.XLen())
		}
		cb.Apply(xBlock)
	})
	d := dist.NewBlock(n, np)
	striped := machine(np).Run(func(p *comm.Proc) {
		op := spmv.NewRowBlockCSR(p, A, d)
		x := darray.New(p, d)
		y := darray.New(p, d)
		x.Fill(1)
		op.Apply(x, y)
	})
	if checker.TotalBytes >= striped.TotalBytes {
		t.Errorf("checkerboard %d bytes >= striped %d", checker.TotalBytes, striped.TotalBytes)
	}
}
