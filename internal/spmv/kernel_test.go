package spmv

import (
	"fmt"
	"math"
	"testing"

	"hpfcg/internal/comm"
	"hpfcg/internal/darray"
	"hpfcg/internal/dist"
	"hpfcg/internal/sparse"
)

// kernelMatrices are the shapes of the bit-exactness table: the three
// generators, plus a hand-built CSR with empty rows (1 and 4), a row
// whose columns are unsorted and duplicated (2), a row of one entry that
// multiplies a -0.0 (3: its sum must still be +0.0), and a row made only
// of columns another rank owns once np >= 2 (6). With 7 rows, np = 8
// leaves one rank with no rows at all. "cancel" is built so that column
// strips send exactly cancelling partials to rows other ranks own: every
// column of rows 0 and 5 appears twice with opposite values, so a strip
// holding it sums v·x + (-v)·x, which is exactly +0.0.
func kernelMatrices() map[string]*sparse.CSR {
	hand := &sparse.CSR{
		NRows:  7,
		NCols:  7,
		RowPtr: []int{0, 2, 2, 7, 8, 8, 10, 12},
		Col:    []int{6, 0, 5, 1, 2, 5, 0, 3, 6, 0, 1, 0},
		Val:    []float64{0.5, 4, -1.25, 3, 1e-3, 7, -2, 2.5, 1.5, -0.75, 1e8, -3},
	}
	cancel := &sparse.CSR{
		NRows:  8,
		NCols:  8,
		RowPtr: []int{0, 4, 5, 6, 7, 8, 12, 13, 14},
		Col:    []int{7, 6, 7, 6, 1, 2, 3, 4, 1, 3, 3, 1, 6, 7},
		Val:    []float64{3, 1.5, -3, -1.5, 2, 2, 2, 2, 0.25, -7, 7, -0.25, 2, 2},
	}
	return map[string]*sparse.CSR{
		"hand":      hand,
		"cancel":    cancel,
		"laplace2d": sparse.Laplace2D(9, 7),
		"banded":    sparse.Banded(50, 3),
		"randspd":   sparse.RandomSPD(40, 6, 11),
	}
}

// kernelVector is a global operand of mixed magnitudes and signs, with
// -0.0 at every fourth index.
func kernelVector(n int, seed float64) []float64 {
	x := make([]float64, n)
	for g := range x {
		x[g] = math.Sin(float64(g)+seed) * math.Pow(10, float64(g%5-2))
		if g%4 == 3 {
			x[g] = math.Copysign(0, -1)
		}
	}
	return x
}

// sameBits reports the first local index at which got and want differ
// in any bit.
func sameBits(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: length %d, want %d", label, len(got), len(want))
		return
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Errorf("%s: local %d = %v (%#x), want %v (%#x)", label, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			return
		}
	}
}

// csrExecutors builds every row-block CSR executor: first the two a
// plain solve runs (the depth-1 halo executor and the Scenario 1
// broadcast one), then the powers kernel at depths 2 and 3.
var csrExecutors = []struct {
	name  string
	build func(p *comm.Proc, A *sparse.CSR, d dist.Contiguous) FusedOperator
}{
	{"halo", func(p *comm.Proc, A *sparse.CSR, d dist.Contiguous) FusedOperator {
		return NewRowBlockCSRGhost(p, A, d)
	}},
	{"broadcast", func(p *comm.Proc, A *sparse.CSR, d dist.Contiguous) FusedOperator {
		return NewRowBlockCSR(p, A, d)
	}},
	{"powers-2", func(p *comm.Proc, A *sparse.CSR, d dist.Contiguous) FusedOperator {
		return NewRowBlockCSRPowers(p, A, d, 2)
	}},
	{"powers-3", func(p *comm.Proc, A *sparse.CSR, d dist.Contiguous) FusedOperator {
		return NewRowBlockCSRPowers(p, A, d, 3)
	}},
}

// stripMerge is the §5.1 private merge computed sequentially: y = M·x
// for M given column by column (ptr over columns, idx the row of each
// entry). Each rank's partial sums its strip of d's columns in storage
// order from +0.0, and row i's value adds the partials in the merge's
// order — its owner's first, then the other ranks' in ascending rank.
func stripMerge(ptr, idx []int, val, x []float64, d dist.Contiguous) []float64 {
	n := len(x)
	partial := make([][]float64, d.NP())
	for r := range partial {
		partial[r] = make([]float64, n)
		for j := d.Lo(r); j < d.Lo(r)+d.Count(r); j++ {
			for k := ptr[j]; k < ptr[j+1]; k++ {
				partial[r][idx[k]] += val[k] * x[j]
			}
		}
	}
	y := make([]float64, n)
	for i := range y {
		own := d.Owner(i)
		y[i] = partial[own][i]
		for r := range partial {
			if r != own {
				y[i] += partial[r][i]
			}
		}
	}
	return y
}

// TestKernelBitExact holds every CSR executor to the sequential
// sparse.CSR.MulVec bit for bit — same order of additions, each row from
// +0.0 — at every np, and the fused ApplyDot partial to the row-order
// sum of x·y over the rank's rows. The powers kernel's basis blocks are
// held to repeated sequential products, and the CSC transpose to
// MulVec over the transpose's rows. The private merges — the CSC Apply
// under both merge modes and the row-block ApplyT — are held to
// stripMerge, which adds every rank's partial to every row. The
// inspected merge adds only the partials of ranks whose strip touches
// the row, and that is the same sum bit for bit: each partial is summed
// from +0.0, and in round-to-nearest a sum is -0.0 only if both
// operands are, so no partial is ever -0.0 and the +0.0 of an untouched
// row is an identity. "cancel" checks it where a touching strip's
// partial is itself exactly +0.0.
func TestKernelBitExact(t *testing.T) {
	for name, A := range kernelMatrices() {
		n := A.NRows
		xs, rs := kernelVector(n, 1), kernelVector(n, 2)
		// powers[j] = A^(j+1)·xs, rpowers[j] = A^(j+1)·rs, sequentially.
		powers := make([][]float64, 3)
		rpowers := make([][]float64, 3)
		prev, rprev := xs, rs
		for j := range powers {
			powers[j], rpowers[j] = make([]float64, n), make([]float64, n)
			A.MulVec(prev, powers[j])
			A.MulVec(rprev, rpowers[j])
			prev, rprev = powers[j], rpowers[j]
		}
		csc := A.ToCSC()
		At := &sparse.CSR{NRows: n, NCols: n, RowPtr: csc.ColPtr, Col: csc.Row, Val: csc.Val}
		wantT := make([]float64, n)
		At.MulVec(xs, wantT)

		for _, np := range testNPs {
			d := dist.NewBlock(n, np)
			wantMerge := stripMerge(csc.ColPtr, csc.Row, csc.Val, xs, d)
			wantMergeT := stripMerge(A.RowPtr, A.Col, A.Val, xs, d)
			machine(np).Run(func(p *comm.Proc) {
				lo, cnt := d.Lo(p.Rank()), d.Count(p.Rank())
				at := func(v []float64) []float64 { return v[lo : lo+cnt] }
				wantDot := 0.0
				for i := lo; i < lo+cnt; i++ {
					wantDot += xs[i] * powers[0][i]
				}
				x, y := darray.New(p, d), darray.New(p, d)
				x.SetGlobal(func(g int) float64 { return xs[g] })
				for _, ex := range csrExecutors {
					label := fmt.Sprintf("%s/%s np=%d rank=%d", name, ex.name, np, p.Rank())
					op := ex.build(p, A, d)
					op.Apply(x, y)
					sameBits(t, label+" Apply", y.Local(), at(powers[0]))
					y.Fill(math.NaN())
					dot := op.ApplyDot(x, y)
					sameBits(t, label+" ApplyDot", y.Local(), at(powers[0]))
					if math.Float64bits(dot) != math.Float64bits(wantDot) {
						t.Errorf("%s ApplyDot: partial %v, want %v", label, dot, wantDot)
					}

					pow, ok := op.(PowersOperator)
					if !ok {
						continue
					}
					depth := pow.MaxDepth()
					r := darray.New(p, d)
					r.SetGlobal(func(g int) float64 { return rs[g] })
					chains := [][]*darray.Vector{make([]*darray.Vector, depth), make([]*darray.Vector, max(depth-1, 1))}
					for _, c := range chains {
						for j := range c {
							c[j] = darray.New(p, d)
						}
					}
					pow.ApplyPowersBlock([]*darray.Vector{x, r}, chains)
					for j, v := range chains[0] {
						sameBits(t, fmt.Sprintf("%s block A^%d x", label, j+1), v.Local(), at(powers[j]))
					}
					for j, v := range chains[1] {
						sameBits(t, fmt.Sprintf("%s block A^%d r", label, j+1), v.Local(), at(rpowers[j]))
					}
				}
				rt := NewRowBlockCSR(p, A, d)
				for _, mode := range []Mode{ModePrivateMerge, ModeDenseMerge} {
					op := NewColBlockCSC(p, csc, d, mode)
					op.ApplyT(x, y)
					sameBits(t, fmt.Sprintf("%s/csc %v ApplyT np=%d rank=%d", name, mode, np, p.Rank()), y.Local(), at(wantT))
					// Twice each, so the second call runs on a reused region.
					for range 2 {
						y.Fill(math.NaN())
						op.Apply(x, y)
						sameBits(t, fmt.Sprintf("%s/csc %v Apply np=%d rank=%d", name, mode, np, p.Rank()), y.Local(), at(wantMerge))
					}
				}
				for range 2 {
					rt.ApplyT(x, y)
					sameBits(t, fmt.Sprintf("%s/rowblock ApplyT np=%d rank=%d", name, np, p.Rank()), y.Local(), at(wantMergeT))
				}
			})
		}
	}
}
