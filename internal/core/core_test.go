package core

import (
	"math"
	"testing"
	"testing/quick"

	"hpfcg/internal/comm"
	"hpfcg/internal/darray"
	"hpfcg/internal/dist"
	"hpfcg/internal/seq"
	"hpfcg/internal/sparse"
	"hpfcg/internal/spmv"
	"hpfcg/internal/topology"
)

func machine(np int) *comm.Machine {
	return comm.NewMachine(np, topology.Hypercube{}, topology.DefaultCostParams())
}

var testNPs = []int{1, 2, 3, 4, 8}

// distSolve runs a distributed solver on A·x = b and returns the
// gathered solution plus the (rank-0) stats.
func distSolve(t *testing.T, np int, A *sparse.CSR,
	solve func(p *comm.Proc, op spmv.TransposeOperator, b, x *darray.Vector) (Stats, error),
	bvec []float64) ([]float64, Stats) {
	t.Helper()
	n := A.NRows
	d := dist.NewBlock(n, np)
	csc := A.ToCSC()
	var sol []float64
	var stats Stats
	machine(np).Run(func(p *comm.Proc) {
		// Row-block CSR is the paper's primary scenario; use it here.
		_ = csc
		op := spmv.NewRowBlockCSR(p, A, d)
		b := darray.New(p, d)
		x := darray.New(p, d)
		b.SetGlobal(func(g int) float64 { return bvec[g] })
		st, err := solve(p, op, b, x)
		if err != nil {
			t.Errorf("np=%d: %v", np, err)
			return
		}
		full := x.Gather()
		if p.Rank() == 0 {
			sol = full
			stats = st
		}
	})
	return sol, stats
}

func relResidual(A *sparse.CSR, x, b []float64) float64 {
	n := A.NRows
	r := make([]float64, n)
	A.MulVec(x, r)
	rn, bn := 0.0, 0.0
	for i := range r {
		rn += (r[i] - b[i]) * (r[i] - b[i])
		bn += b[i] * b[i]
	}
	return math.Sqrt(rn / bn)
}

func TestDistributedCGSolves(t *testing.T) {
	A := sparse.Laplace2D(8, 8)
	b := sparse.RandomVector(A.NRows, 3)
	for _, np := range testNPs {
		sol, st := distSolve(t, np, A, func(p *comm.Proc, op spmv.TransposeOperator, bv, xv *darray.Vector) (Stats, error) {
			return CG(p, op, bv, xv, Options{Tol: 1e-10})
		}, b)
		if !st.Converged {
			t.Fatalf("np=%d: not converged: %v", np, st)
		}
		if rr := relResidual(A, sol, b); rr > 1e-8 {
			t.Errorf("np=%d: residual %g", np, rr)
		}
	}
}

// The solution and iteration count must not depend on the processor
// count (same arithmetic, just distributed).
func TestCGIterationCountIndependentOfNP(t *testing.T) {
	A := sparse.RandomSPD(60, 5, 21)
	b := sparse.RandomVector(60, 8)
	var baseIters int
	var base []float64
	for i, np := range testNPs {
		sol, st := distSolve(t, np, A, func(p *comm.Proc, op spmv.TransposeOperator, bv, xv *darray.Vector) (Stats, error) {
			return CG(p, op, bv, xv, Options{Tol: 1e-10})
		}, b)
		if i == 0 {
			baseIters, base = st.Iterations, sol
			continue
		}
		if st.Iterations != baseIters {
			t.Errorf("np=%d: %d iterations, np=1 took %d", np, st.Iterations, baseIters)
		}
		for g := range sol {
			if math.Abs(sol[g]-base[g]) > 1e-6 {
				t.Fatalf("np=%d: solution differs at %d", np, g)
				break
			}
		}
	}
}

// Distributed CG must match the sequential reference solver closely.
func TestDistributedMatchesSequential(t *testing.T) {
	A := sparse.Laplace2D(7, 9)
	b := sparse.RandomVector(A.NRows, 5)
	xs := make([]float64, A.NRows)
	seqSt, err := seq.CG(A, b, xs, seq.Options{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	sol, st := distSolve(t, 4, A, func(p *comm.Proc, op spmv.TransposeOperator, bv, xv *darray.Vector) (Stats, error) {
		return CG(p, op, bv, xv, Options{Tol: 1e-10})
	}, b)
	if st.Iterations != seqSt.Iterations {
		t.Errorf("distributed %d iterations, sequential %d", st.Iterations, seqSt.Iterations)
	}
	for i := range sol {
		if math.Abs(sol[i]-xs[i]) > 1e-7 {
			t.Fatalf("solutions differ at %d: %g vs %g", i, sol[i], xs[i])
		}
	}
}

func TestAllDistributedSolvers(t *testing.T) {
	A := sparse.RandomSPD(48, 5, 2)
	b := sparse.RandomVector(48, 1)
	solvers := map[string]func(p *comm.Proc, op spmv.TransposeOperator, bv, xv *darray.Vector) (Stats, error){
		"cg": func(p *comm.Proc, op spmv.TransposeOperator, bv, xv *darray.Vector) (Stats, error) {
			return CG(p, op, bv, xv, Options{Tol: 1e-10})
		},
		"bicg": func(p *comm.Proc, op spmv.TransposeOperator, bv, xv *darray.Vector) (Stats, error) {
			return BiCG(p, op, bv, xv, Options{Tol: 1e-10})
		},
		"cgs": func(p *comm.Proc, op spmv.TransposeOperator, bv, xv *darray.Vector) (Stats, error) {
			return CGS(p, op, bv, xv, Options{Tol: 1e-10})
		},
		"bicgstab": func(p *comm.Proc, op spmv.TransposeOperator, bv, xv *darray.Vector) (Stats, error) {
			return BiCGSTAB(p, op, bv, xv, Options{Tol: 1e-10})
		},
	}
	for name, solve := range solvers {
		for _, np := range []int{1, 3, 4} {
			sol, st := distSolve(t, np, A, solve, b)
			if !st.Converged {
				t.Fatalf("%s np=%d: %v", name, np, st)
			}
			if rr := relResidual(A, sol, b); rr > 1e-7 {
				t.Errorf("%s np=%d: residual %g", name, np, rr)
			}
		}
	}
}

func TestDistributedSolversOnColumnCSC(t *testing.T) {
	// Scenario 2 operator (private-merge) must give the same answers.
	A := sparse.Laplace2D(6, 6)
	csc := A.ToCSC()
	b := sparse.RandomVector(A.NRows, 9)
	for _, np := range []int{1, 2, 4} {
		d := dist.NewBlock(A.NRows, np)
		var sol []float64
		var st Stats
		machine(np).Run(func(p *comm.Proc) {
			op := spmv.NewColBlockCSC(p, csc, d, spmv.ModePrivateMerge)
			bv := darray.New(p, d)
			xv := darray.New(p, d)
			bv.SetGlobal(func(g int) float64 { return b[g] })
			s, err := CG(p, op, bv, xv, Options{Tol: 1e-10})
			if err != nil {
				t.Errorf("np=%d: %v", np, err)
				return
			}
			full := xv.Gather()
			if p.Rank() == 0 {
				sol, st = full, s
			}
		})
		if !st.Converged {
			t.Fatalf("np=%d not converged", np)
		}
		if rr := relResidual(A, sol, b); rr > 1e-8 {
			t.Errorf("np=%d residual %g", np, rr)
		}
	}
}

func TestDistributedBiCGOnNonsymmetric(t *testing.T) {
	n := 36
	coo := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 4)
		if i+1 < n {
			coo.Add(i, i+1, -1.5)
			coo.Add(i+1, i, -0.5)
		}
	}
	A := coo.ToCSR()
	b := sparse.RandomVector(n, 6)
	opt := Options{Tol: 1e-10}
	for _, m := range []struct {
		name  string
		solve func(p *comm.Proc, op spmv.TransposeOperator, bv, xv *darray.Vector) (Stats, error)
	}{
		{"BiCG", func(p *comm.Proc, op spmv.TransposeOperator, bv, xv *darray.Vector) (Stats, error) {
			return BiCG(p, op, bv, xv, opt)
		}},
		{"CGS", func(p *comm.Proc, op spmv.TransposeOperator, bv, xv *darray.Vector) (Stats, error) {
			return CGS(p, op, bv, xv, opt)
		}},
		{"BiCGSTAB", func(p *comm.Proc, op spmv.TransposeOperator, bv, xv *darray.Vector) (Stats, error) {
			return BiCGSTAB(p, op, bv, xv, opt)
		}},
	} {
		sol, st := distSolve(t, 4, A, m.solve, b)
		if !st.Converged {
			t.Fatalf("%s: %v", m.name, st)
		}
		if (st.TransMatVecs > 0) != (m.name == "BiCG") {
			t.Errorf("%s: %d transpose products; only BiCG uses them", m.name, st.TransMatVecs)
		}
		if rr := relResidual(A, sol, b); rr > 1e-7 {
			t.Errorf("%s: residual %g", m.name, rr)
		}
	}
}

func TestDistributedPCGJacobi(t *testing.T) {
	// Badly scaled SPD system: Jacobi must reduce iterations.
	n := 64
	eigs := make([]float64, n)
	for i := range eigs {
		eigs[i] = 1 + float64(i*i)
	}
	A := sparse.DiagWithEigenvalues(eigs)
	b := sparse.Ones(n)
	var plainIters, pcgIters int
	for _, precond := range []bool{false, true} {
		d := dist.NewBlock(n, 4)
		machine(4).Run(func(p *comm.Proc) {
			op := spmv.NewRowBlockCSR(p, A, d)
			bv := darray.New(p, d)
			xv := darray.New(p, d)
			bv.SetGlobal(func(g int) float64 { return b[g] })
			var st Stats
			var err error
			if precond {
				var M *Jacobi
				M, err = NewJacobi(p, A, d)
				if err == nil {
					st, err = PCG(p, op, M, bv, xv, Options{Tol: 1e-10, MaxIter: 10 * n})
				}
			} else {
				st, err = CG(p, op, bv, xv, Options{Tol: 1e-10, MaxIter: 10 * n})
			}
			if err != nil {
				t.Errorf("precond=%v: %v", precond, err)
				return
			}
			if !st.Converged {
				t.Errorf("precond=%v: not converged", precond)
			}
			if p.Rank() == 0 {
				if precond {
					pcgIters = st.Iterations
				} else {
					plainIters = st.Iterations
				}
			}
		})
	}
	// Jacobi on a diagonal matrix is an exact solve: 1 iteration.
	if pcgIters != 1 {
		t.Errorf("PCG(jacobi) on diagonal system took %d iterations", pcgIters)
	}
	if plainIters <= pcgIters {
		t.Errorf("plain CG %d <= PCG %d", plainIters, pcgIters)
	}
}

func TestPCGIdentityMatchesCG(t *testing.T) {
	A := sparse.Laplace1D(30)
	b := sparse.Ones(30)
	d := dist.NewBlock(30, 2)
	machine(2).Run(func(p *comm.Proc) {
		op := spmv.NewRowBlockCSR(p, A, d)
		bv := darray.New(p, d)
		bv.SetGlobal(func(g int) float64 { return b[g] })
		x1 := darray.New(p, d)
		x2 := darray.New(p, d)
		st1, err1 := CG(p, op, bv, x1, Options{})
		st2, err2 := PCG(p, op, Identity{}, bv, x2, Options{})
		if err1 != nil || err2 != nil {
			t.Errorf("errors: %v %v", err1, err2)
			return
		}
		if st1.Iterations != st2.Iterations {
			t.Errorf("CG %d vs PCG(identity) %d iterations", st1.Iterations, st2.Iterations)
		}
	})
}

func TestJacobiErrors(t *testing.T) {
	coo := sparse.NewCOO(4, 4)
	coo.Add(0, 1, 1)
	coo.Add(1, 0, 1)
	coo.Add(2, 2, 1)
	coo.Add(3, 3, 1)
	A := coo.ToCSR()
	d := dist.NewBlock(4, 2)
	machine(2).Run(func(p *comm.Proc) {
		if _, err := NewJacobi(p, A, d); err == nil {
			t.Error("zero diagonal accepted")
		}
	})
}

func TestStatsString(t *testing.T) {
	var st Stats
	st.Iterations = 5
	if st.String() == "" {
		t.Error("empty String()")
	}
}

func TestZeroRHSAndEarlyExit(t *testing.T) {
	A := sparse.Laplace1D(12)
	d := dist.NewBlock(12, 3)
	machine(3).Run(func(p *comm.Proc) {
		op := spmv.NewRowBlockCSR(p, A, d)
		b := darray.New(p, d) // zero rhs
		x := darray.New(p, d)
		st, err := CG(p, op, b, x, Options{})
		if err != nil {
			t.Errorf("%v", err)
			return
		}
		if !st.Converged || st.Iterations != 0 {
			t.Errorf("zero rhs: %v", st)
		}
	})
}

func TestMaxIterStops(t *testing.T) {
	A := sparse.Laplace2D(12, 12)
	b := sparse.Ones(A.NRows)
	_, st := distSolve(t, 2, A, func(p *comm.Proc, op spmv.TransposeOperator, bv, xv *darray.Vector) (Stats, error) {
		return CG(p, op, bv, xv, Options{Tol: 1e-14, MaxIter: 4})
	}, b)
	if st.Converged || st.Iterations != 4 {
		t.Errorf("MaxIter: %v", st)
	}
}

func TestHistory(t *testing.T) {
	A := sparse.Laplace1D(20)
	b := sparse.Ones(20)
	_, st := distSolve(t, 2, A, func(p *comm.Proc, op spmv.TransposeOperator, bv, xv *darray.Vector) (Stats, error) {
		return CG(p, op, bv, xv, Options{History: true})
	}, b)
	if len(st.History) != st.Iterations {
		t.Errorf("history %d != iterations %d", len(st.History), st.Iterations)
	}
}

// Property: distributed CG solves random SPD systems for random NP.
func TestDistributedCGQuick(t *testing.T) {
	f := func(seed int64, nRaw, npRaw uint8) bool {
		n := int(nRaw%30) + 4
		np := int(npRaw%4) + 1
		A := sparse.RandomSPD(n, 4, seed)
		b := sparse.RandomVector(n, seed+2)
		d := dist.NewBlock(n, np)
		ok := true
		machine(np).Run(func(p *comm.Proc) {
			op := spmv.NewRowBlockCSR(p, A, d)
			bv := darray.New(p, d)
			xv := darray.New(p, d)
			bv.SetGlobal(func(g int) float64 { return b[g] })
			st, err := CG(p, op, bv, xv, Options{Tol: 1e-10})
			if err != nil || !st.Converged {
				ok = false
				return
			}
			sol := xv.Gather()
			if p.Rank() == 0 && relResidual(A, sol, b) > 1e-7 {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
