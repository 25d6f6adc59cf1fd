// Package sparse implements the sparse-matrix storage schemes of §3 of
// the paper — Compressed Sparse Row (CSR), Compressed Sparse Column
// (CSC, Figure 1) and the coordinate (COO) builder format — together
// with dense matrices, format conversions, transposition, symmetry
// checks, and the matrix generators the experiments need (Laplacians,
// banded, random SPD, NAS-CG-like, and power-law "irregular grid"
// matrices for the load-balance study of §5.2.2).
//
// Index convention: everything is 0-based (the paper's Fortran listings
// are 1-based). In CSR, row j's entries occupy a[RowPtr[j]:RowPtr[j+1]]
// with column indices Col[...]; the paper's (row, col, a) trio maps to
// (RowPtr, Col, Val) for CSR and (ColPtr, Row, Val) for CSC.
package sparse

import (
	"fmt"
	"math"
	"sort"
)

// COO is the coordinate ("triplet") builder format: unordered (i, j, v)
// entries. Duplicate coordinates are summed on conversion.
type COO struct {
	NRows, NCols int
	I, J         []int
	V            []float64
}

// NewCOO creates an empty nrows x ncols triplet accumulator.
func NewCOO(nrows, ncols int) *COO {
	if nrows < 0 || ncols < 0 {
		panic(fmt.Sprintf("sparse: invalid shape %dx%d", nrows, ncols))
	}
	return &COO{NRows: nrows, NCols: ncols}
}

// Add appends entry (i, j, v). Zero values are kept (callers may want
// explicit zeros); duplicates are summed when converting.
func (c *COO) Add(i, j int, v float64) {
	if i < 0 || i >= c.NRows || j < 0 || j >= c.NCols {
		panic(fmt.Sprintf("sparse: entry (%d,%d) outside %dx%d", i, j, c.NRows, c.NCols))
	}
	c.I = append(c.I, i)
	c.J = append(c.J, j)
	c.V = append(c.V, v)
}

// ToCSR converts the triplets to CSR, summing duplicates and sorting
// column indices within each row. Rows whose triplets arrived in
// strictly ascending column order — every row of a file written row by
// row or column by column — are already sorted and duplicate-free and
// are left alone.
func (c *COO) ToCSR() *CSR {
	n := c.NRows
	rowPtr := make([]int, n+1)
	for _, i := range c.I {
		rowPtr[i+1]++
	}
	for i := 0; i < n; i++ {
		rowPtr[i+1] += rowPtr[i]
	}
	col := make([]int, len(c.V))
	val := make([]float64, len(c.V))
	next := append([]int(nil), rowPtr[:n]...)
	for k := range c.V {
		i := c.I[k]
		col[next[i]] = c.J[k]
		val[next[i]] = c.V[k]
		next[i]++
	}
	m := &CSR{NRows: n, NCols: c.NCols, RowPtr: rowPtr, Col: col, Val: val}
	if m.sortRows() {
		m.sumDuplicates()
	}
	return m
}

// CSR is the Compressed Sparse Row format: for row i, the entries are
// Val[RowPtr[i]:RowPtr[i+1]] in columns Col[RowPtr[i]:RowPtr[i+1]],
// sorted by column.
type CSR struct {
	NRows, NCols int
	RowPtr       []int // length NRows+1
	Col          []int // length NNZ
	Val          []float64
}

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.Val) }

// Validate checks structural invariants and returns a descriptive
// error when they are violated.
func (m *CSR) Validate() error {
	if len(m.RowPtr) != m.NRows+1 {
		return fmt.Errorf("sparse: RowPtr length %d != NRows+1 = %d", len(m.RowPtr), m.NRows+1)
	}
	if m.RowPtr[0] != 0 {
		return fmt.Errorf("sparse: RowPtr[0] = %d, want 0", m.RowPtr[0])
	}
	if m.RowPtr[m.NRows] != len(m.Val) || len(m.Col) != len(m.Val) {
		return fmt.Errorf("sparse: nnz mismatch: RowPtr end %d, Col %d, Val %d",
			m.RowPtr[m.NRows], len(m.Col), len(m.Val))
	}
	for i := 0; i < m.NRows; i++ {
		if m.RowPtr[i+1] < m.RowPtr[i] {
			return fmt.Errorf("sparse: RowPtr decreases at row %d", i)
		}
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			if m.Col[k] < 0 || m.Col[k] >= m.NCols {
				return fmt.Errorf("sparse: row %d has column %d outside [0,%d)", i, m.Col[k], m.NCols)
			}
			if k > m.RowPtr[i] && m.Col[k] <= m.Col[k-1] {
				return fmt.Errorf("sparse: row %d columns not strictly increasing at %d", i, k)
			}
		}
	}
	return nil
}

// sortRows sorts every row that is not already strictly ascending by
// column and reports whether there was one; only such a row can hold a
// duplicate.
func (m *CSR) sortRows() (sorted bool) {
	for i := 0; i < m.NRows; i++ {
		lo, hi := m.RowPtr[i], m.RowPtr[i+1]
		if !strictlyAscending(m.Col[lo:hi]) {
			sort.Sort(&rowSorter{col: m.Col[lo:hi], val: m.Val[lo:hi]})
			sorted = true
		}
	}
	return sorted
}

func strictlyAscending(col []int) bool {
	for k := 1; k < len(col); k++ {
		if col[k] <= col[k-1] {
			return false
		}
	}
	return true
}

type rowSorter struct {
	col []int
	val []float64
}

func (s *rowSorter) Len() int           { return len(s.col) }
func (s *rowSorter) Less(i, j int) bool { return s.col[i] < s.col[j] }
func (s *rowSorter) Swap(i, j int) {
	s.col[i], s.col[j] = s.col[j], s.col[i]
	s.val[i], s.val[j] = s.val[j], s.val[i]
}

// sumDuplicates merges adjacent equal-column entries (rows must be
// sorted first).
func (m *CSR) sumDuplicates() {
	out := 0
	newPtr := make([]int, m.NRows+1)
	for i := 0; i < m.NRows; i++ {
		newPtr[i] = out
		lo, hi := m.RowPtr[i], m.RowPtr[i+1]
		for k := lo; k < hi; k++ {
			if out > newPtr[i] && m.Col[out-1] == m.Col[k] {
				m.Val[out-1] += m.Val[k]
			} else {
				m.Col[out] = m.Col[k]
				m.Val[out] = m.Val[k]
				out++
			}
		}
	}
	newPtr[m.NRows] = out
	m.RowPtr = newPtr
	m.Col = m.Col[:out]
	m.Val = m.Val[:out]
}

// Row returns the column indices and values of row i (views, not
// copies).
func (m *CSR) Row(i int) (cols []int, vals []float64) {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	return m.Col[lo:hi], m.Val[lo:hi]
}

// At returns element (i, j), zero if not stored.
func (m *CSR) At(i, j int) float64 {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	cols := m.Col[lo:hi]
	k := sort.SearchInts(cols, j)
	if k < len(cols) && cols[k] == j {
		return m.Val[lo+k]
	}
	return 0
}

// MulVec computes y = A*x sequentially. y must have length NRows.
func (m *CSR) MulVec(x, y []float64) {
	if len(x) != m.NCols || len(y) != m.NRows {
		panic(fmt.Sprintf("sparse: MulVec shapes: A %dx%d, x %d, y %d", m.NRows, m.NCols, len(x), len(y)))
	}
	for i := 0; i < m.NRows; i++ {
		s := 0.0
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			s += m.Val[k] * x[m.Col[k]]
		}
		y[i] = s
	}
}

// MulVecT computes y = A^T*x sequentially. y must have length NCols.
func (m *CSR) MulVecT(x, y []float64) {
	if len(x) != m.NRows || len(y) != m.NCols {
		panic(fmt.Sprintf("sparse: MulVecT shapes: A %dx%d, x %d, y %d", m.NRows, m.NCols, len(x), len(y)))
	}
	for j := range y {
		y[j] = 0
	}
	for i := 0; i < m.NRows; i++ {
		xi := x[i]
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			y[m.Col[k]] += m.Val[k] * xi
		}
	}
}

// Diag returns the main diagonal as a dense vector (zeros where no
// entry is stored).
func (m *CSR) Diag() []float64 {
	n := m.NRows
	if m.NCols < n {
		n = m.NCols
	}
	d := make([]float64, n)
	for i := 0; i < n; i++ {
		d[i] = m.At(i, i)
	}
	return d
}

// ToCSC converts to compressed sparse column form.
func (m *CSR) ToCSC() *CSC {
	t := m.Transpose()
	return &CSC{
		NRows:  m.NRows,
		NCols:  m.NCols,
		ColPtr: t.RowPtr,
		Row:    t.Col,
		Val:    t.Val,
	}
}

// Transpose returns A^T in CSR form.
func (m *CSR) Transpose() *CSR {
	colCount := make([]int, m.NCols)
	for _, j := range m.Col {
		colCount[j]++
	}
	ptr := make([]int, m.NCols+1)
	for j := 0; j < m.NCols; j++ {
		ptr[j+1] = ptr[j] + colCount[j]
	}
	col := make([]int, len(m.Val))
	val := make([]float64, len(m.Val))
	next := append([]int(nil), ptr[:m.NCols]...)
	for i := 0; i < m.NRows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			j := m.Col[k]
			col[next[j]] = i
			val[next[j]] = m.Val[k]
			next[j]++
		}
	}
	return &CSR{NRows: m.NCols, NCols: m.NRows, RowPtr: ptr, Col: col, Val: val}
}

// IsSymmetric reports whether the matrix equals its transpose to
// within tol on every stored entry.
func (m *CSR) IsSymmetric(tol float64) bool {
	if m.NRows != m.NCols {
		return false
	}
	t := m.Transpose()
	if len(t.Val) != len(m.Val) {
		return false
	}
	for i := 0; i < m.NRows; i++ {
		if t.RowPtr[i] != m.RowPtr[i] {
			return false
		}
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			if t.Col[k] != m.Col[k] || math.Abs(t.Val[k]-m.Val[k]) > tol {
				return false
			}
		}
	}
	return true
}

// ToDense expands to a dense matrix (for tests and small baselines).
func (m *CSR) ToDense() *Dense {
	d := NewDense(m.NRows, m.NCols)
	for i := 0; i < m.NRows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			d.Set(i, m.Col[k], m.Val[k])
		}
	}
	return d
}

// CSC is the Compressed Sparse Column format of Figure 1: for column j,
// the entries are Val[ColPtr[j]:ColPtr[j+1]] in rows
// Row[ColPtr[j]:ColPtr[j+1]], sorted by row.
type CSC struct {
	NRows, NCols int
	ColPtr       []int // length NCols+1
	Row          []int // length NNZ
	Val          []float64
}

// NNZ returns the number of stored entries.
func (m *CSC) NNZ() int { return len(m.Val) }

// Dense is a row-major dense matrix, the paper's "dense storage
// format" alternative (§4).
type Dense struct {
	NRows, NCols int
	Data         []float64 // row-major
}

// NewDense allocates an nrows x ncols zero matrix.
func NewDense(nrows, ncols int) *Dense {
	if nrows < 0 || ncols < 0 {
		panic(fmt.Sprintf("sparse: invalid shape %dx%d", nrows, ncols))
	}
	return &Dense{NRows: nrows, NCols: ncols, Data: make([]float64, nrows*ncols)}
}

// At returns element (i, j).
func (d *Dense) At(i, j int) float64 { return d.Data[i*d.NCols+j] }

// Set assigns element (i, j).
func (d *Dense) Set(i, j int, v float64) { d.Data[i*d.NCols+j] = v }

// Row returns row i as a view.
func (d *Dense) Row(i int) []float64 { return d.Data[i*d.NCols : (i+1)*d.NCols] }

// Clone returns a deep copy.
func (d *Dense) Clone() *Dense {
	c := NewDense(d.NRows, d.NCols)
	copy(c.Data, d.Data)
	return c
}
