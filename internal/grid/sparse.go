package grid

import (
	"fmt"

	"hpfcg/internal/comm"
	"hpfcg/internal/dist"
	"hpfcg/internal/sparse"
)

// SparseCheckerboard is a CSR matrix distributed (BLOCK, BLOCK) over
// the processor grid: processor (pr, pc) holds its (row-strip x
// column-strip) sub-matrix in CSR with rebased indices. The mat-vec
// follows the textbook algorithm: the operand x lives block-distributed
// along grid row 0 (processor (0, pc) holds the pc-th column block of
// x) and the result y along grid column 0 (processor (pr, 0) ends with
// the pr-th row block). Apply performs a column broadcast of x blocks,
// a local sparse block multiply and a row reduction of partial results,
// so the per-processor communication is O(n/√NP·log NP) versus the
// striped O(n) — §4's striping bound escaped. A dense matrix is a CSR
// that stores every entry, which E13 runs as its dense operand.
type SparseCheckerboard struct {
	p        *comm.Proc
	g        ProcGrid
	colD     dist.Block
	rowPtr   []int // local block CSR, rebased to (0,0)
	col      []int
	val      []float64
	rowGroup comm.Group
	colGroup comm.Group
	n        int
	nnzLocal int
}

// NewSparseCheckerboard slices this processor's block of A.
// Collective: all processors construct it together.
func NewSparseCheckerboard(p *comm.Proc, A *sparse.CSR, g ProcGrid) *SparseCheckerboard {
	if g.NP() != p.NP() {
		panic(fmt.Sprintf("grid: %dx%d grid needs %d procs, machine has %d", g.Rows, g.Cols, g.NP(), p.NP()))
	}
	if A.NRows != A.NCols {
		panic(fmt.Sprintf("grid: matrix must be square, got %dx%d", A.NRows, A.NCols))
	}
	n := A.NRows
	rowD := dist.NewBlock(n, g.Rows)
	colD := dist.NewBlock(n, g.Cols)
	pr, pc := g.Coords(p.Rank())
	rlo, rn := rowD.Lo(pr), rowD.Count(pr)
	clo, cn := colD.Lo(pc), colD.Count(pc)

	rowPtr := make([]int, rn+1)
	var col []int
	var val []float64
	for i := 0; i < rn; i++ {
		rowPtr[i] = len(col)
		cols, vals := A.Row(rlo + i)
		for k, j := range cols {
			if j >= clo && j < clo+cn {
				col = append(col, j-clo)
				val = append(val, vals[k])
			}
		}
	}
	rowPtr[rn] = len(col)

	return &SparseCheckerboard{
		p:        p,
		g:        g,
		colD:     colD,
		rowPtr:   rowPtr,
		col:      col,
		val:      val,
		rowGroup: comm.NewGroup(p, g.RowRanks(pr)),
		colGroup: comm.NewGroup(p, g.ColRanks(pc)),
		n:        n,
		nnzLocal: len(val),
	}
}

// XLen returns the length of this processor's x block if it is on grid
// row 0, else 0.
func (a *SparseCheckerboard) XLen() int {
	pr, pc := a.g.Coords(a.p.Rank())
	if pr != 0 {
		return 0
	}
	return a.colD.Count(pc)
}

// Apply computes y = A*x: x blocks on grid row 0 in (nil elsewhere),
// y blocks on grid column 0 out (nil elsewhere).
func (a *SparseCheckerboard) Apply(xBlock []float64) []float64 {
	pr, pc := a.g.Coords(a.p.Rank())
	if pr == 0 && len(xBlock) != a.colD.Count(pc) {
		panic(fmt.Sprintf("grid: x block length %d, want %d", len(xBlock), a.colD.Count(pc)))
	}
	xb := a.colGroup.BcastFloats(a.p, xBlock)
	rn := len(a.rowPtr) - 1
	partial := make([]float64, rn)
	for i := 0; i < rn; i++ {
		s := 0.0
		for k := a.rowPtr[i]; k < a.rowPtr[i+1]; k++ {
			s += a.val[k] * xb[a.col[k]]
		}
		partial[i] = s
	}
	a.p.Compute(2 * a.nnzLocal)
	return a.rowGroup.ReduceSumFloats(a.p, partial)
}
