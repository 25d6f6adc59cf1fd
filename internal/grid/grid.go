// Package grid implements two-dimensional (BLOCK, BLOCK) data
// mappings on a processor grid — HPF's `PROCESSORS P(R,C)` with both
// matrix dimensions distributed. The paper's §4 concludes that "it is
// not possible to reduce the communication time if the matrix is
// partitioned into regular stripes either in a row-wise or column-wise
// fashion"; the checkerboard partition is the standard way past that
// limit (Kumar et al., the paper's ref [17]): the matrix-vector
// product's communication drops from O(t_w·n) per processor to
// O(t_w·n/√NP·log NP), at the price of a column broadcast and a row
// reduction. Experiment E13 measures the crossover against the striped
// operators.
package grid

import (
	"fmt"

	"hpfcg/internal/comm"
	"hpfcg/internal/dist"
	"hpfcg/internal/sparse"
	"hpfcg/internal/topology"
)

// ProcGrid is an R x C arrangement of the machine's NP = R*C
// processors, rank = pr*C + pc (row-major).
type ProcGrid struct {
	Rows, Cols int
}

// NewProcGrid factors np into the most nearly square grid.
func NewProcGrid(np int) ProcGrid {
	r, c := topology.Dims(np)
	return ProcGrid{Rows: r, Cols: c}
}

// NP returns the processor count.
func (g ProcGrid) NP() int { return g.Rows * g.Cols }

// Rank returns the rank at grid position (pr, pc).
func (g ProcGrid) Rank(pr, pc int) int { return pr*g.Cols + pc }

// Coords returns the grid position of a rank.
func (g ProcGrid) Coords(rank int) (pr, pc int) { return rank / g.Cols, rank % g.Cols }

// RowRanks returns the ranks of grid row pr, in column order.
func (g ProcGrid) RowRanks(pr int) []int {
	out := make([]int, g.Cols)
	for c := range out {
		out[c] = g.Rank(pr, c)
	}
	return out
}

// ColRanks returns the ranks of grid column pc, in row order.
func (g ProcGrid) ColRanks(pc int) []int {
	out := make([]int, g.Rows)
	for r := range out {
		out[r] = g.Rank(r, pc)
	}
	return out
}

// DenseCheckerboard is a dense matrix distributed (BLOCK, BLOCK) over
// a processor grid: processor (pr, pc) stores the block
// A[rowLo(pr):rowHi(pr), colLo(pc):colHi(pc)].
//
// The mat-vec convention follows the textbook algorithm: the operand
// x lives block-distributed along grid row 0 (processor (0, pc) holds
// the pc-th column block of x) and the result y along grid column 0
// (processor (pr, 0) ends with the pr-th row block). Apply performs:
// column broadcast of x blocks, local block multiply, row reduction of
// partial results.
type DenseCheckerboard struct {
	p        *comm.Proc
	g        ProcGrid
	colD     dist.Block // n over grid cols
	local    [][]float64
	rowGroup comm.Group
	colGroup comm.Group
	n        int
}

// NewDenseCheckerboard slices this processor's block of dense A.
// Collective: all processors construct it together.
func NewDenseCheckerboard(p *comm.Proc, A *sparse.Dense, g ProcGrid) *DenseCheckerboard {
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
	local := make([][]float64, rn)
	for i := range local {
		row := make([]float64, cn)
		copy(row, A.Row(rlo + i)[clo:clo+cn])
		local[i] = row
	}
	return &DenseCheckerboard{
		p:        p,
		g:        g,
		colD:     colD,
		local:    local,
		rowGroup: comm.NewGroup(p, g.RowRanks(pr)),
		colGroup: comm.NewGroup(p, g.ColRanks(pc)),
		n:        n,
	}
}

// N returns the global dimension.
func (a *DenseCheckerboard) N() int { return a.n }

// XLen returns the length of this processor's x block if it is on grid
// row 0, else 0.
func (a *DenseCheckerboard) XLen() int {
	pr, pc := a.g.Coords(a.p.Rank())
	if pr != 0 {
		return 0
	}
	return a.colD.Count(pc)
}

// Apply computes y = A*x. xBlock must hold this processor's x block
// (grid row 0; nil elsewhere); the returned y block is valid on grid
// column 0 and nil elsewhere.
func (a *DenseCheckerboard) Apply(xBlock []float64) []float64 {
	pr, pc := a.g.Coords(a.p.Rank())
	if pr == 0 && len(xBlock) != a.colD.Count(pc) {
		panic(fmt.Sprintf("grid: x block length %d, want %d", len(xBlock), a.colD.Count(pc)))
	}
	// 1. Broadcast the x block down each grid column (root: grid row 0,
	//    which is column-group member index 0).
	xb := a.colGroup.BcastFloats(a.p, xBlock)

	// 2. Local block multiply.
	partial := make([]float64, len(a.local))
	for i, row := range a.local {
		s := 0.0
		for j, v := range row {
			s += v * xb[j]
		}
		partial[i] = s
	}
	a.p.Compute(2 * len(a.local) * len(xb))

	// 3. Sum partials across each grid row onto column 0.
	return a.rowGroup.ReduceSumFloats(a.p, partial)
}
