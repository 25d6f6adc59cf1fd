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

// A solve that runs out of iterations pays one norm round per
// checkEvery iterations plus the one at MaxIter, and no more: 25
// iterations check at 10, 20 and 25, so with the setup round that is 4
// rounds and 5 dots, and Residual is the iteration-25 check.
func TestChebyshevMaxIterMergesOnce(t *testing.T) {
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
			st, err := Chebyshev(p, op, bv, xv, eigMin, eigMax, Options{Tol: 1e-300, MaxIter: 25, History: true})
			if err != nil {
				t.Errorf("np=%d: %v", np, err)
				return
			}
			if st.Converged || st.Iterations != 25 || st.Reductions != 4 || st.DotProducts != 5 {
				t.Errorf("np=%d: %v, want 25 unconverged iterations in 4 rounds and 5 dots", np, st)
			}
			if len(st.History) != 3 || st.Residual != st.History[2] {
				t.Errorf("np=%d: residual %g, history %v: want the last of 3 checks", np, st.Residual, st.History)
			}
		})
	}
}
