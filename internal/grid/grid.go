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
// operators, with one checkerboard (SparseCheckerboard) for its dense
// and sparse operands alike: a dense matrix is a CSR storing every
// entry.
package grid

import "hpfcg/internal/topology"

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
