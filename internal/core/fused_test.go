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

// TestCGUnfusedBitIdenticalToCG: the fusions inside CG (batched setup
// norms, fused axpy+norm, rho reuse) reorder no floating-point
// arithmetic, so the restructured CG and the literal Figure 2 baseline
// must walk exactly the same iterates — same counts, same solution
// bits, same recorded history.
func TestCGUnfusedBitIdenticalToCG(t *testing.T) {
	A := sparse.RandomSPD(60, 5, 21)
	b := sparse.RandomVector(60, 8)
	for _, np := range testNPs {
		d := dist.NewBlock(60, np)
		var solF, solU []float64
		var stF, stU Stats
		machine(np).Run(func(p *comm.Proc) {
			op := spmv.NewRowBlockCSR(p, A, d)
			bv := darray.New(p, d)
			bv.SetGlobal(func(g int) float64 { return b[g] })
			x1 := darray.New(p, d)
			x2 := darray.New(p, d)
			s1, err1 := CG(p, op, bv, x1, Options{Tol: 1e-10, History: true})
			s2, err2 := CGUnfused(p, op, bv, x2, Options{Tol: 1e-10, History: true})
			if err1 != nil || err2 != nil {
				t.Errorf("np=%d: %v %v", np, err1, err2)
				return
			}
			f1, f2 := x1.Gather(), x2.Gather()
			if p.Rank() == 0 {
				solF, solU, stF, stU = f1, f2, s1, s2
			}
		})
		if stF.Iterations != stU.Iterations {
			t.Fatalf("np=%d: fused %d iterations, unfused %d", np, stF.Iterations, stU.Iterations)
		}
		for g := range solF {
			if solF[g] != solU[g] {
				t.Fatalf("np=%d: solutions differ at %d: %v vs %v", np, g, solF[g], solU[g])
			}
		}
		for i := range stF.History {
			if stF.History[i] != stU.History[i] {
				t.Fatalf("np=%d: history differs at %d: %v vs %v", np, i, stF.History[i], stU.History[i])
			}
		}
	}
}

// TestCGReductionRounds: the communication-avoidance ledger. CG merges
// twice per iteration (fused mat-vec dot, fused norm-and-rho) plus the
// one batched setup round; CGUnfused pays the textbook three per
// iteration plus three at setup.
func TestCGReductionRounds(t *testing.T) {
	A := sparse.Laplace2D(8, 8)
	b := sparse.RandomVector(A.NRows, 3)
	d := dist.NewBlock(A.NRows, 4)
	machine(4).Run(func(p *comm.Proc) {
		op := spmv.NewRowBlockCSR(p, A, d)
		bv := darray.New(p, d)
		bv.SetGlobal(func(g int) float64 { return b[g] })
		opt := Options{Tol: 1e-10}

		x := darray.New(p, d)
		st, err := CG(p, op, bv, x, opt)
		if err != nil {
			t.Errorf("CG: %v", err)
			return
		}
		if want := 1 + 2*st.Iterations; st.Reductions != want {
			t.Errorf("CG: %d reductions over %d iterations, want %d (2/iter + setup)", st.Reductions, st.Iterations, want)
		}

		x = darray.New(p, d)
		st, err = CGUnfused(p, op, bv, x, opt)
		if err != nil {
			t.Errorf("CGUnfused: %v", err)
			return
		}
		// 3 setup rounds + 3 per iteration, except the converged final
		// iteration returns before its rho recompute round.
		if want := 2 + 3*st.Iterations; st.Reductions != want {
			t.Errorf("CGUnfused: %d reductions over %d iterations, want %d (3/iter + setup - 1)", st.Reductions, st.Iterations, want)
		}
	})
}

// TestWorkspaceReuse: a workspace hands back the same vectors across
// solves of the same shape, rebuilds on shape changes, and solves with
// it are identical to solves without.
func TestWorkspaceReuse(t *testing.T) {
	A := sparse.Laplace2D(6, 6)
	b := sparse.RandomVector(A.NRows, 9)
	d := dist.NewBlock(A.NRows, 2)
	machine(2).Run(func(p *comm.Proc) {
		op := spmv.NewRowBlockCSR(p, A, d)
		bv := darray.New(p, d)
		bv.SetGlobal(func(g int) float64 { return b[g] })
		ws := NewWorkspace()

		x1 := darray.New(p, d)
		st1, err := CG(p, op, bv, x1, Options{Tol: 1e-10, Work: ws})
		if err != nil {
			t.Errorf("%v", err)
			return
		}
		nvecs := len(ws.vecs)
		x2 := darray.New(p, d)
		st2, err := CG(p, op, bv, x2, Options{Tol: 1e-10, Work: ws})
		if err != nil {
			t.Errorf("%v", err)
			return
		}
		if len(ws.vecs) != nvecs {
			t.Errorf("second same-shape solve grew the workspace: %d -> %d vectors", nvecs, len(ws.vecs))
		}
		if st1.Iterations != st2.Iterations {
			t.Errorf("workspace reuse changed iterations: %d vs %d", st1.Iterations, st2.Iterations)
		}
		x3 := darray.New(p, d)
		st3, err := CG(p, op, bv, x3, Options{Tol: 1e-10})
		if err != nil {
			t.Errorf("%v", err)
			return
		}
		if st3.Iterations != st1.Iterations {
			t.Errorf("workspace changed the arithmetic: %d vs %d iterations", st1.Iterations, st3.Iterations)
		}
		l1, l3 := x1.Local(), x3.Local()
		for i := range l1 {
			if l1[i] != l3[i] {
				t.Errorf("workspace changed the solution at local %d", i)
			}
		}

		// Shape change: a smaller aligned problem rebuilds cleanly.
		d2 := dist.NewBlock(16, 2)
		proto := darray.New(p, d2)
		v := ws.begin().take(proto)
		if v.Len() != 16 {
			t.Errorf("shape change: got vector of length %d", v.Len())
		}
	})
}

// TestCGSteadyStateIterationsNoAllocs is the tentpole's acceptance
// guard: with a Workspace, pooled collectives, and the operators'
// reusable gather buffers, a steady-state CG iteration performs zero
// heap allocations on every rank. Measured as a delta — a 40-iteration
// solve must allocate no more than a 10-iteration solve, so per-solve
// constants (Stats, the workspace warm-up, gather targets) cancel and
// only per-iteration allocations would fail the bound. PCG and
// CGResilient run the same recurrence, so they are held to the same
// bound and to CG's per-solve count.
func TestCGSteadyStateIterationsNoAllocs(t *testing.T) {
	A := sparse.Laplace2D(16, 16)
	n := A.NRows
	const np = 4
	d := dist.NewBlock(n, np)
	b := sparse.RandomVector(n, 7)
	store := NewCheckpointStore(np)

	solvers := map[string]func(p *comm.Proc, op spmv.Operator, bv, xv *darray.Vector, opt Options) (Stats, error){
		"cg": func(p *comm.Proc, op spmv.Operator, bv, xv *darray.Vector, opt Options) (Stats, error) {
			return CG(p, op, bv, xv, opt)
		},
		// The recurrence's preconditioned branch (z vector, two-word
		// merge) and its checkpoint hook, checkpoints being written.
		"pcg": func(p *comm.Proc, op spmv.Operator, bv, xv *darray.Vector, opt Options) (Stats, error) {
			return PCG(p, op, Identity{}, bv, xv, opt)
		},
		"cgresilient": func(p *comm.Proc, op spmv.Operator, bv, xv *darray.Vector, opt Options) (Stats, error) {
			// Every solve starts clean: each rank drops its own stamps,
			// and the barrier orders that before any rank's Latest scan.
			for s := range store.slots {
				store.slots[s].iter[p.Rank()] = -1
			}
			p.Barrier()
			return CGResilient(p, op, bv, xv, opt, Resilience{Store: store, Interval: 5})
		},
		// The §2.1 methods and Chebyshev open through the same prologue
		// and take their vectors from the same workspace.
		"bicg": func(p *comm.Proc, op spmv.Operator, bv, xv *darray.Vector, opt Options) (Stats, error) {
			return BiCG(p, op.(spmv.TransposeOperator), bv, xv, opt)
		},
		"cgs": func(p *comm.Proc, op spmv.Operator, bv, xv *darray.Vector, opt Options) (Stats, error) {
			return CGS(p, op, bv, xv, opt)
		},
		"bicgstab": func(p *comm.Proc, op spmv.Operator, bv, xv *darray.Vector, opt Options) (Stats, error) {
			return BiCGSTAB(p, op, bv, xv, opt)
		},
		"chebyshev": func(p *comm.Proc, op spmv.Operator, bv, xv *darray.Vector, opt Options) (Stats, error) {
			// The 16×16 Laplacian's extreme eigenvalues, 4 ∓ 4·cos(π/17).
			c := 4 * math.Cos(math.Pi/17)
			return Chebyshev(p, op, bv, xv, 4-c, 4+c, opt)
		},
	}
	perSolve := map[string]float64{}
	for name, solve := range solvers {
		allocsAt := func(iters int) float64 {
			var allocs float64
			machine(np).Run(func(p *comm.Proc) {
				op := spmv.NewRowBlockCSR(p, A, d)
				bv := darray.New(p, d)
				bv.SetGlobal(func(g int) float64 { return b[g] })
				xv := darray.New(p, d)
				ws := NewWorkspace()
				// Tol below reach so the solve always runs MaxIter
				// iterations; one warm-up solve fills pools everywhere.
				opt := Options{Tol: 1e-300, MaxIter: iters, Work: ws}
				run := func() {
					xv.Fill(0)
					if _, err := solve(p, op, bv, xv, opt); err != nil {
						t.Errorf("%s: %v", name, err)
					}
				}
				run()
				if p.Rank() == 0 {
					allocs = testing.AllocsPerRun(2, run)
				} else {
					for i := 0; i < 3; i++ {
						run()
					}
				}
			})
			return allocs
		}
		short, long := allocsAt(10), allocsAt(40)
		// AllocsPerRun counts every goroutine's mallocs, so a solve as
		// lean as Chebyshev's now and then reads one stray runtime
		// allocation high. The minimum over a few repeats sheds it; a
		// per-iteration allocation adds 30 to every long measurement.
		for rep := 1; rep < 5 && long > short+0.5; rep++ {
			long = math.Min(long, allocsAt(40))
		}
		if long > short+0.5 {
			t.Errorf("%s: 40-iteration solve allocates %.1f, 10-iteration %.1f — iterations are hitting the heap (%.2f allocs/iter)",
				name, long, short, (long-short)/30)
		}
		perSolve[name] = short
	}
	// What a solver adds to the one recurrence costs no allocation per
	// solve either (one per rank would read as np here; a stray runtime
	// allocation reads as 1).
	for _, name := range []string{"pcg", "cgresilient"} {
		if perSolve[name] > perSolve["cg"]+1.5 {
			t.Errorf("%s: a solve allocates %.1f, CG's %.1f", name, perSolve[name], perSolve["cg"])
		}
	}
}
