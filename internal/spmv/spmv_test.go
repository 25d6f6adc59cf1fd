package spmv

import (
	"math"
	"testing"
	"testing/quick"

	"hpfcg/internal/comm"
	"hpfcg/internal/darray"
	"hpfcg/internal/dist"
	"hpfcg/internal/sparse"
	"hpfcg/internal/topology"
)

func machine(np int) *comm.Machine {
	return comm.NewMachine(np, topology.Hypercube{}, topology.DefaultCostParams())
}

var testNPs = []int{1, 2, 3, 4, 8}

// runApply distributes A with the given operator builder, applies it to
// a fixed vector and returns the gathered result.
func runApply(t *testing.T, np int, A *sparse.CSR, build func(p *comm.Proc, d dist.Contiguous) Operator, transpose bool) []float64 {
	t.Helper()
	n := A.NRows
	d := dist.NewBlock(n, np)
	var out []float64
	machine(np).Run(func(p *comm.Proc) {
		op := build(p, d)
		x := darray.New(p, d)
		y := darray.New(p, d)
		x.SetGlobal(func(g int) float64 { return math.Sin(float64(g) + 1) })
		if transpose {
			op.(TransposeOperator).ApplyT(x, y)
		} else {
			op.Apply(x, y)
		}
		full := y.Gather()
		if p.Rank() == 0 {
			out = full
		}
	})
	return out
}

func reference(A *sparse.CSR, transpose bool) []float64 {
	n := A.NRows
	x := make([]float64, n)
	for g := range x {
		x[g] = math.Sin(float64(g) + 1)
	}
	y := make([]float64, n)
	if transpose {
		A = A.Transpose()
	}
	A.MulVec(x, y)
	return y
}

func checkClose(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", name, len(got), len(want))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("%s: element %d = %g, want %g", name, i, got[i], want[i])
		}
	}
}

// testMatrices exercises structured, random, and asymmetric patterns.
func testMatrices() map[string]*sparse.CSR {
	asym := sparse.NewCOO(9, 9)
	asym.Add(0, 8, 2)
	asym.Add(3, 1, -1)
	asym.Add(8, 0, 5)
	asym.Add(4, 4, 3)
	asym.Add(7, 2, 1.5)
	return map[string]*sparse.CSR{
		"laplace1d": sparse.Laplace1D(17),
		"laplace2d": sparse.Laplace2D(4, 5),
		"randspd":   sparse.RandomSPD(30, 5, 3),
		"asym":      asym.ToCSR(),
	}
}

func TestRowBlockCSRApply(t *testing.T) {
	for name, A := range testMatrices() {
		want := reference(A, false)
		for _, np := range testNPs {
			got := runApply(t, np, A, func(p *comm.Proc, d dist.Contiguous) Operator {
				return NewRowBlockCSR(p, A, d)
			}, false)
			checkClose(t, name+"/rowcsr", got, want)
		}
	}
}

func TestRowBlockCSRApplyT(t *testing.T) {
	for name, A := range testMatrices() {
		want := reference(A, true)
		for _, np := range testNPs {
			got := runApply(t, np, A, func(p *comm.Proc, d dist.Contiguous) Operator {
				return NewRowBlockCSR(p, A, d)
			}, true)
			checkClose(t, name+"/rowcsrT", got, want)
		}
	}
}

func TestColBlockCSCBothModes(t *testing.T) {
	for name, A := range testMatrices() {
		csc := A.ToCSC()
		want := reference(A, false)
		for _, np := range testNPs {
			for _, mode := range []Mode{ModeSerialized, ModePrivateMerge, ModeDenseMerge} {
				got := runApply(t, np, A, func(p *comm.Proc, d dist.Contiguous) Operator {
					return NewColBlockCSC(p, csc, d, mode)
				}, false)
				checkClose(t, name+"/colcsc/"+mode.String(), got, want)
			}
		}
	}
}

func TestColBlockCSCApplyT(t *testing.T) {
	for name, A := range testMatrices() {
		csc := A.ToCSC()
		want := reference(A, true)
		for _, np := range testNPs {
			got := runApply(t, np, A, func(p *comm.Proc, d dist.Contiguous) Operator {
				return NewColBlockCSC(p, csc, d, ModePrivateMerge)
			}, true)
			checkClose(t, name+"/colcscT", got, want)
		}
	}
}

// TestDenseOperators runs the row executor over a CSR that stores all
// n² entries, zeros included: Scenario 1's dense row strips.
func TestDenseOperators(t *testing.T) {
	A := sparse.RandomSPD(20, 4, 5)
	d := A.ToDense()
	den := &sparse.CSR{NRows: 20, NCols: 20, RowPtr: make([]int, 21), Val: d.Data}
	for i := 0; i < 20; i++ {
		for j := 0; j < 20; j++ {
			den.Col = append(den.Col, j)
		}
		den.RowPtr[i+1] = len(den.Col)
	}
	want := reference(A, false)
	for _, np := range testNPs {
		got := runApply(t, np, den, func(p *comm.Proc, d dist.Contiguous) Operator {
			return NewRowBlockCSR(p, den, d)
		}, false)
		checkClose(t, "denserow", got, want)
	}
}

func TestIrregularDistributionApply(t *testing.T) {
	// Operators must also work under the ATOM/partitioner-produced
	// irregular contiguous distributions of §5.2.
	A := sparse.PowerLaw(40, 1.1, 12, 2)
	want := reference(A, false)
	np := 4
	d := dist.NewIrregular([]int{0, 5, 17, 18, 40})
	var got []float64
	machine(np).Run(func(p *comm.Proc) {
		op := NewRowBlockCSR(p, A, d)
		x := darray.New(p, d)
		y := darray.New(p, d)
		x.SetGlobal(func(g int) float64 { return math.Sin(float64(g) + 1) })
		op.Apply(x, y)
		full := y.Gather()
		if p.Rank() == 0 {
			got = full
		}
	})
	checkClose(t, "irregular/rowcsr", got, want)
}

func TestOperatorMetadata(t *testing.T) {
	A := sparse.Laplace1D(10)
	csc := A.ToCSC()
	d := dist.NewBlock(10, 2)
	machine(2).Run(func(p *comm.Proc) {
		row := NewRowBlockCSR(p, A, d)
		if row.N() != 10 || row.NNZ() != A.NNZ() {
			t.Errorf("row metadata: N=%d NNZ=%d", row.N(), row.NNZ())
		}
		if row.LocalNNZ() <= 0 || row.LocalNNZ() >= A.NNZ() {
			t.Errorf("LocalNNZ = %d", row.LocalNNZ())
		}
		col := NewColBlockCSC(p, csc, d, ModePrivateMerge)
		if col.N() != 10 || col.NNZ() != A.NNZ() {
			t.Errorf("col metadata wrong")
		}
		if col.LocalNNZ() <= 0 {
			t.Errorf("col LocalNNZ = %d", col.LocalNNZ())
		}
	})
	if ModeSerialized.String() != "serialized" || ModePrivateMerge.String() != "private-merge" ||
		ModeDenseMerge.String() != "dense-merge" {
		t.Error("mode names wrong")
	}
	if Mode(9).String() == "" {
		t.Error("unknown mode should still format")
	}
}

func TestMisalignedOperandsPanic(t *testing.T) {
	A := sparse.Laplace1D(12)
	defer func() {
		if recover() == nil {
			t.Fatal("expected alignment panic")
		}
	}()
	machine(2).Run(func(p *comm.Proc) {
		d := dist.NewBlock(12, 2)
		other := dist.NewCyclic(12, 2)
		op := NewRowBlockCSR(p, A, d)
		x := darray.New(p, other)
		y := darray.New(p, d)
		op.Apply(x, y)
	})
}

func TestConstructorValidation(t *testing.T) {
	rect := sparse.NewCOO(3, 4)
	rect.Add(0, 0, 1)
	rm := rect.ToCSR()
	defer func() {
		if recover() == nil {
			t.Fatal("expected non-square panic")
		}
	}()
	machine(1).Run(func(p *comm.Proc) {
		NewRowBlockCSR(p, rm, dist.NewBlock(3, 1))
	})
}

// §4's central claim: with regular striping, row-wise and column-wise
// (with the extension) have the same asymptotic communication, while
// the serialized column version also serialises the compute. Both
// merges beat it, the inspected one with its inspector included.
func TestSerializedSlowerThanPrivateMerge(t *testing.T) {
	A := sparse.Banded(512, 8)
	csc := A.ToCSC()
	np := 8
	d := dist.NewBlock(512, np)
	run := func(mode Mode) comm.RunStats {
		return machine(np).Run(func(p *comm.Proc) {
			op := NewColBlockCSC(p, csc, d, mode)
			x := darray.New(p, d)
			y := darray.New(p, d)
			x.Fill(1)
			op.Apply(x, y)
		})
	}
	serial := run(ModeSerialized)
	for _, mode := range []Mode{ModePrivateMerge, ModeDenseMerge} {
		if merge := run(mode); merge.ModelTime >= serial.ModelTime {
			t.Errorf("%v model time %.3g should beat serialized %.3g",
				mode, merge.ModelTime, serial.ModelTime)
		}
	}
}

// The BiCG penalty (E6): under row-block distribution the transpose
// product must cost at least as much as the forward product (it adds
// the merge phase).
func TestTransposePenalty(t *testing.T) {
	A := sparse.RandomSPD(256, 6, 8)
	np := 8
	d := dist.NewBlock(256, np)
	run := func(transpose bool) comm.RunStats {
		return machine(np).Run(func(p *comm.Proc) {
			op := NewRowBlockCSR(p, A, d)
			x := darray.New(p, d)
			y := darray.New(p, d)
			x.Fill(1)
			if transpose {
				op.ApplyT(x, y)
			} else {
				op.Apply(x, y)
			}
		})
	}
	fwd := run(false)
	bwd := run(true)
	if bwd.TotalBytes < fwd.TotalBytes {
		t.Errorf("ApplyT moved %d bytes, forward %d; transpose should not be cheaper",
			bwd.TotalBytes, fwd.TotalBytes)
	}
}

// Property: distributed row CSR equals the sequential product for
// random matrices and processor counts.
func TestRowBlockQuick(t *testing.T) {
	f := func(seed int64, nRaw, npRaw uint8) bool {
		n := int(nRaw%30) + 2
		np := int(npRaw%4) + 1
		A := sparse.RandomSPD(n, 4, seed)
		want := reference(A, false)
		ok := true
		d := dist.NewBlock(n, np)
		machine(np).Run(func(p *comm.Proc) {
			op := NewRowBlockCSR(p, A, d)
			x := darray.New(p, d)
			y := darray.New(p, d)
			x.SetGlobal(func(g int) float64 { return math.Sin(float64(g) + 1) })
			op.Apply(x, y)
			got := y.Gather()
			for i := range want {
				if math.Abs(got[i]-want[i]) > 1e-9 {
					ok = false
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
