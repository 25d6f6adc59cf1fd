package core

import (
	"math"
	"testing"

	"hpfcg/internal/comm"
	"hpfcg/internal/darray"
	"hpfcg/internal/dist"
	"hpfcg/internal/sparse"
	"hpfcg/internal/spmv"
)

func TestBlockJacobiStrongerThanPointJacobi(t *testing.T) {
	// Size chosen so the block coupling reliably beats diagonal scaling.
	A := sparse.Laplace2D(24, 24)
	n := A.NRows
	b := sparse.Ones(n)
	np := 4
	d := dist.NewBlock(n, np)
	iters := map[string]int{}
	for _, precond := range []string{"jacobi", "block-ic0", "block-ssor"} {
		machine(np).Run(func(p *comm.Proc) {
			op := spmv.NewRowBlockCSR(p, A, d)
			bv := darray.New(p, d)
			xv := darray.New(p, d)
			bv.SetGlobal(func(g int) float64 { return b[g] })
			var M Preconditioner
			var err error
			switch precond {
			case "jacobi":
				M, err = NewJacobi(p, A, d)
			case "block-ic0":
				M, err = NewBlockJacobi(p, A, d, "ic0")
			case "block-ssor":
				M, err = NewBlockJacobi(p, A, d, "ssor")
			}
			if err != nil {
				t.Errorf("%s: %v", precond, err)
				return
			}
			st, err := PCG(p, op, M, bv, xv, Options{Tol: 1e-10})
			if err != nil {
				t.Errorf("%s: %v", precond, err)
				return
			}
			if !st.Converged {
				t.Errorf("%s: not converged", precond)
			}
			sol := xv.Gather()
			if p.Rank() == 0 {
				iters[precond] = st.Iterations
				if rr := relResidual(A, sol, b); rr > 1e-8 {
					t.Errorf("%s: residual %g", precond, rr)
				}
			}
		})
	}
	if iters["block-ic0"] >= iters["jacobi"] {
		t.Errorf("block-IC0 %d iterations >= point Jacobi %d", iters["block-ic0"], iters["jacobi"])
	}
	// Block-SSOR captures the same intra-block coupling but more weakly;
	// it must at least not be worse than point Jacobi.
	if iters["block-ssor"] > iters["jacobi"] {
		t.Errorf("block-SSOR %d iterations > point Jacobi %d", iters["block-ssor"], iters["jacobi"])
	}
}

func TestBlockJacobiEmptyBlocks(t *testing.T) {
	// An irregular distribution with an empty processor must not break
	// the preconditioner.
	A := sparse.Laplace1D(12)
	d := dist.NewIrregular([]int{0, 6, 6, 12})
	machine(3).Run(func(p *comm.Proc) {
		op := spmv.NewRowBlockCSR(p, A, d)
		bv := darray.New(p, d)
		xv := darray.New(p, d)
		bv.SetGlobal(func(g int) float64 { return 1 })
		M, err := NewBlockJacobi(p, A, d, "ic0")
		if err != nil {
			t.Errorf("%v", err)
			return
		}
		if M.Name() != "block-jacobi(ic0)" {
			t.Errorf("name %q", M.Name())
		}
		st, err := PCG(p, op, M, bv, xv, Options{Tol: 1e-10})
		if err != nil || !st.Converged {
			t.Errorf("empty-block PCG: %v %v", st, err)
		}
	})
}

func TestBlockJacobiCollectiveFailure(t *testing.T) {
	// A zero diagonal in one processor's block must fail on all.
	coo := sparse.NewCOO(8, 8)
	for i := 0; i < 8; i++ {
		if i != 6 {
			coo.Add(i, i, 2)
		}
	}
	coo.Add(6, 7, 1)
	coo.Add(7, 6, 1)
	A := coo.ToCSR()
	d := dist.NewBlock(8, 2)
	machine(2).Run(func(p *comm.Proc) {
		if _, err := NewBlockJacobi(p, A, d, "ic0"); err == nil {
			t.Errorf("rank %d: factorisation of singular block accepted", p.Rank())
		}
	})
}

func TestDistributedChebyshevMatchesCG(t *testing.T) {
	n := 64
	A := sparse.Laplace1D(n)
	eigMin := 2 - 2*math.Cos(math.Pi/float64(n+1))
	eigMax := 2 - 2*math.Cos(float64(n)*math.Pi/float64(n+1))
	b := sparse.RandomVector(n, 6)
	for _, np := range []int{1, 4} {
		d := dist.NewBlock(n, np)
		machine(np).Run(func(p *comm.Proc) {
			op := spmv.NewRowBlockCSR(p, A, d)
			bv := darray.New(p, d)
			xv := darray.New(p, d)
			bv.SetGlobal(func(g int) float64 { return b[g] })
			st, err := Chebyshev(p, op, bv, xv, eigMin, eigMax, Options{Tol: 1e-9, MaxIter: 20 * n})
			if err != nil {
				t.Errorf("np=%d: %v", np, err)
				return
			}
			if !st.Converged {
				t.Errorf("np=%d: %v", np, st)
				return
			}
			sol := xv.Gather()
			if p.Rank() == 0 {
				if rr := relResidual(A, sol, b); rr > 1e-7 {
					t.Errorf("np=%d residual %g", np, rr)
				}
			}
			// Almost no allreduce merges: the §4 dot-cost escape.
			if perIter := float64(st.DotProducts) / float64(st.Iterations); perIter > 0.25 {
				t.Errorf("np=%d: %.2f dots/iter", np, perIter)
			}
		})
	}
}

func TestDistributedChebyshevValidation(t *testing.T) {
	A := sparse.Laplace1D(8)
	d := dist.NewBlock(8, 1)
	machine(1).Run(func(p *comm.Proc) {
		op := spmv.NewRowBlockCSR(p, A, d)
		b := darray.New(p, d)
		x := darray.New(p, d)
		if _, err := Chebyshev(p, op, b, x, -1, 2, Options{}); err == nil {
			t.Error("bad bounds accepted")
		}
	})
}
