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

// The Ghysels–Vanroose trajectory differs from CG's in floating point
// but must converge to the same tolerance on the
// whole suite, with exactly one reduction round per iteration: setup
// merges once, every round merges once including the round that
// detects convergence, and the confirmation adds one — Reductions =
// Iterations + 3 on a clean converged solve.
func TestCGPipelinedConvergesAcrossSuite(t *testing.T) {
	for name, A := range sstepSuite() {
		n := A.NRows
		b := sparse.RandomVector(n, 5)
		var cgIters int
		for _, np := range []int{1, 2, 4, 8} {
			d := dist.NewBlock(n, np)
			var st Stats
			var sol []float64
			machine(np).Run(func(p *comm.Proc) {
				op := spmv.NewRowBlockCSRGhost(p, A, d)
				bv := darray.New(p, d)
				bv.SetGlobal(func(g int) float64 { return b[g] })
				xv := darray.New(p, d)
				got, err := CGPipelined(p, op, bv, xv, Options{Tol: 1e-10, MaxIter: 6 * n})
				if err != nil {
					t.Errorf("%s np=%d: %v", name, np, err)
					return
				}
				full := xv.Gather()
				if p.Rank() == 0 {
					st, sol = got, full
				}
			})
			if t.Failed() {
				return
			}
			if !st.Converged {
				t.Fatalf("%s np=%d: not converged: %v", name, np, st)
			}
			if rr := relResidual(A, sol, b); rr > 1e-7 {
				t.Errorf("%s np=%d: residual %g", name, np, rr)
			}
			if st.Replacements == 0 && st.Reductions != st.Iterations+3 {
				t.Errorf("%s np=%d: %d rounds for %d iterations, want iterations+3",
					name, np, st.Reductions, st.Iterations)
			}
			if np == 1 {
				cgIters = st.Iterations
			}
			if cgIters > 0 && st.Iterations > 2*cgIters+20 {
				t.Errorf("%s np=%d: %d iterations vs np=1's %d — trajectory unstable",
					name, np, st.Iterations, cgIters)
			}
		}
	}
}

// The modeled-overlap claim at solver level: with np > 1 the pipelined
// solve must actually hide reduction time behind its mat-vecs (hidden
// > 0 on some rank), and hidden + exposed must account for the full
// blocking cost of every waited-on round.
func TestCGPipelinedOverlapHidesReduction(t *testing.T) {
	A := sparse.Banded(256, 4)
	n := A.NRows
	b := sparse.RandomVector(n, 7)
	const np = 4
	d := dist.NewBlock(n, np)
	rs := machine(np).Run(func(p *comm.Proc) {
		op := spmv.NewRowBlockCSRGhost(p, A, d)
		bv := darray.New(p, d)
		bv.SetGlobal(func(g int) float64 { return b[g] })
		xv := darray.New(p, d)
		if _, err := CGPipelined(p, op, bv, xv, Options{Tol: 1e-10}); err != nil {
			t.Errorf("%v", err)
		}
	})
	hidden, exposed := rs.ReduceOverlap()
	if hidden <= 0 {
		t.Errorf("hidden reduction time %g, want > 0 — the mat-vec hid nothing", hidden)
	}
	if exposed < 0 {
		t.Errorf("exposed reduction time %g < 0", exposed)
	}
}

// The consistent-but-wrong regime, mirroring CGSStep's stagnation
// test: on a spectrum spanning 8 decades with an unreachable tolerance
// the γ recurrence stagnates; the guard must force one residual
// replacement and the plain-CG fallback, and the returned iterate must
// be no worse than the zero initial guess.
func TestCGPipelinedStagnationGuardFallsBack(t *testing.T) {
	n := 64
	eigs := make([]float64, n)
	for i := range eigs {
		eigs[i] = math.Pow(10, 8*float64(i)/float64(n-1)) // 1 .. 1e8
	}
	A := sparse.DiagWithEigenvalues(eigs)
	b := sparse.RandomVector(n, 13)
	const np = 4
	d := dist.NewBlock(n, np)
	var st Stats
	var sol []float64
	machine(np).Run(func(p *comm.Proc) {
		op := spmv.NewRowBlockCSRGhost(p, A, d)
		bv := darray.New(p, d)
		bv.SetGlobal(func(g int) float64 { return b[g] })
		xv := darray.New(p, d)
		got, err := CGPipelined(p, op, bv, xv, Options{Tol: 1e-14, MaxIter: 10 * n})
		if err != nil {
			t.Fatalf("%v", err)
		}
		full := xv.Gather()
		if p.Rank() == 0 {
			st, sol = got, full
		}
	})
	if st.Replacements == 0 {
		t.Fatalf("guard never tripped on an 8-decade spectrum at tol 1e-14: %+v", st)
	}
	if rr := relResidual(A, sol, b); rr > 2 {
		t.Errorf("returned iterate diverged: relres %g", rr)
	}
}

// The zero-alloc satellite: with a Workspace and the handle freelist,
// steady-state pipelined iterations stay off the heap. Measured as a
// delta — a 40-iteration solve must allocate no more than a
// 10-iteration solve — so per-solve constants cancel.
// testing.AllocsPerRun counts every goroutine's mallocs (the other
// ranks', and under -race the runtime's own): about one measurement in
// three reads one malloc high, at either length. The minimum over
// repeats sheds that, while a per-iteration allocation adds at least 30
// to every long measurement and survives.
func TestCGPipelinedSteadyStateIterationsNoAllocs(t *testing.T) {
	A := sparse.Laplace2D(16, 16)
	n := A.NRows
	const np = 4
	d := dist.NewBlock(n, np)
	b := sparse.RandomVector(n, 7)

	allocsAt := func(iters int) float64 {
		var allocs float64
		machine(np).Run(func(p *comm.Proc) {
			op := spmv.NewRowBlockCSR(p, A, d)
			bv := darray.New(p, d)
			bv.SetGlobal(func(g int) float64 { return b[g] })
			xv := darray.New(p, d)
			ws := NewWorkspace()
			// Tol below reach so the solve always runs MaxIter
			// iterations; one warm-up solve fills the pools.
			opt := Options{Tol: 1e-300, MaxIter: iters, Work: ws}
			run := func() {
				xv.Fill(0)
				if _, err := CGPipelined(p, op, bv, xv, opt); err != nil {
					t.Errorf("%v", err)
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
	short := allocsAt(10)
	for rep := 1; rep < 5; rep++ {
		short = math.Min(short, allocsAt(10))
	}
	long := allocsAt(40)
	for rep := 1; rep < 10 && long > short+0.5; rep++ {
		long = math.Min(long, allocsAt(40))
	}
	if long > short+0.5 {
		t.Errorf("40-iteration solve allocates %.1f, 10-iteration %.1f — iterations are hitting the heap (%.2f allocs/iter)",
			long, short, (long-short)/30)
	}
}
