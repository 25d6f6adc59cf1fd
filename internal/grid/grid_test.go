package grid

import (
	"math"
	"testing"

	"hpfcg/internal/comm"
	"hpfcg/internal/dist"
	"hpfcg/internal/sparse"
	"hpfcg/internal/topology"
)

func machine(np int) *comm.Machine {
	return comm.NewMachine(np, topology.Hypercube{}, topology.DefaultCostParams())
}

// gatherY collects the y blocks a checkerboard Apply leaves on grid
// column 0 (BLOCK over the grid rows) into the full vector on every
// rank.
func gatherY(p *comm.Proc, g ProcGrid, n int, y []float64) []float64 {
	rowD := dist.NewBlock(n, g.Rows)
	counts := make([]int, p.NP())
	for pr := 0; pr < g.Rows; pr++ {
		counts[g.Rank(pr, 0)] = rowD.Count(pr)
	}
	return p.AllgatherV(y, counts)
}

func TestProcGridLayout(t *testing.T) {
	g := NewProcGrid(6)
	if g.Rows != 2 || g.Cols != 3 {
		t.Fatalf("grid %dx%d, want 2x3", g.Rows, g.Cols)
	}
	if g.NP() != 6 {
		t.Errorf("NP = %d", g.NP())
	}
	if g.Rank(1, 2) != 5 {
		t.Errorf("Rank(1,2) = %d", g.Rank(1, 2))
	}
	pr, pc := g.Coords(4)
	if pr != 1 || pc != 1 {
		t.Errorf("Coords(4) = (%d,%d)", pr, pc)
	}
	row := g.RowRanks(1)
	if len(row) != 3 || row[0] != 3 || row[2] != 5 {
		t.Errorf("RowRanks(1) = %v", row)
	}
	col := g.ColRanks(2)
	if len(col) != 2 || col[0] != 2 || col[1] != 5 {
		t.Errorf("ColRanks(2) = %v", col)
	}
}

// stored returns A as a CSR that stores all n² entries, zeros
// included: the dense operand E13 runs.
func stored(A *sparse.CSR) *sparse.CSR {
	d := A.ToDense()
	m := &sparse.CSR{NRows: d.NRows, NCols: d.NCols, RowPtr: make([]int, d.NRows+1), Val: d.Data}
	for i := 0; i < d.NRows; i++ {
		for j := 0; j < d.NCols; j++ {
			m.Col = append(m.Col, j)
		}
		m.RowPtr[i+1] = len(m.Col)
	}
	return m
}

func TestCheckerboardApply(t *testing.T) {
	for _, c := range []struct{ np, n int }{
		{1, 7}, {2, 10}, {4, 16}, {4, 17}, {6, 23}, {9, 30}, {16, 32},
	} {
		sparseCheckerApply(t, c.np, c.n, stored(sparse.RandomSPD(c.n, 5, int64(c.n+c.np))))
	}
}

func TestCheckerboardRepeatedApplies(t *testing.T) {
	n, np := 20, 4
	A := stored(sparse.Laplace1D(n))
	g := NewProcGrid(np)
	machine(np).Run(func(p *comm.Proc) {
		cb := NewSparseCheckerboard(p, A, g)
		pr, pc := g.Coords(p.Rank())
		for rep := 1; rep <= 3; rep++ {
			var xBlock []float64
			if pr == 0 {
				xBlock = make([]float64, cb.XLen())
				lo := pc * n / g.Cols
				for i := range xBlock {
					xBlock[i] = float64(rep * (lo + i))
				}
			}
			y := cb.Apply(xBlock)
			full := gatherY(p, g, n, y)
			if p.Rank() == 0 {
				want := make([]float64, n)
				xf := make([]float64, n)
				for i := range xf {
					xf[i] = float64(rep * i)
				}
				A.MulVec(xf, want)
				for i := range want {
					if math.Abs(full[i]-want[i]) > 1e-9 {
						t.Errorf("rep %d elem %d: %g want %g", rep, i, full[i], want[i])
						return
					}
				}
			}
		}
	})
}

// The §4-beating property: for large n the checkerboard moves fewer
// bytes per processor than the row-striped broadcast.
func TestCheckerboardBeatsStripesOnBytes(t *testing.T) {
	n, np := 512, 16
	A := stored(sparse.Banded(n, 2))
	g := NewProcGrid(np)

	cbStats := machine(np).Run(func(p *comm.Proc) {
		cb := NewSparseCheckerboard(p, A, g)
		var xBlock []float64
		if pr, _ := g.Coords(p.Rank()); pr == 0 {
			xBlock = make([]float64, cb.XLen())
		}
		cb.Apply(xBlock)
	})
	// Striped comparison: an allgather of the whole x (the row-block
	// path) moves n*(np-1)/np elements into every processor.
	stripeBytes := int64(8 * n * (np - 1) / np * np) // total across procs
	if cbStats.TotalBytes >= stripeBytes {
		t.Errorf("checkerboard moved %d bytes total, striping moves %d", cbStats.TotalBytes, stripeBytes)
	}
}

func TestCheckerboardValidation(t *testing.T) {
	cases := []struct {
		name string
		fn   func(p *comm.Proc)
	}{
		{"grid-mismatch", func(p *comm.Proc) {
			NewSparseCheckerboard(p, sparse.NewCOO(4, 4).ToCSR(), ProcGrid{Rows: 3, Cols: 3})
		}},
		{"rectangular", func(p *comm.Proc) {
			NewSparseCheckerboard(p, sparse.NewCOO(4, 5).ToCSR(), NewProcGrid(p.NP()))
		}},
		{"bad-x-block", func(p *comm.Proc) {
			cb := NewSparseCheckerboard(p, sparse.NewCOO(8, 8).ToCSR(), NewProcGrid(p.NP()))
			cb.Apply(make([]float64, 99))
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", c.name)
				}
			}()
			machine(2).Run(c.fn)
		})
	}
}
