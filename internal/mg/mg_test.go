package mg

import (
	"math"
	"runtime"
	"testing"

	"hpfcg/internal/comm"
	"hpfcg/internal/core"
	"hpfcg/internal/darray"
	"hpfcg/internal/sparse"
	"hpfcg/internal/topology"
)

func machine(np int) *comm.Machine {
	return comm.NewMachine(np, topology.Hypercube{}, topology.DefaultCostParams())
}

// buildDense assembles the 27-point stencil densely from the same
// Spec geometry, as the single-rank ground truth.
func buildDense(s Spec, np int) [][]float64 {
	b, err := s.Fine(np)
	if err != nil {
		panic(err)
	}
	n := b.N()
	A := make([][]float64, n)
	for g := range A {
		A[g] = make([]float64, n)
		x, y, z := b.Coords(g)
		for dz := -1; dz <= 1; dz++ {
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					xx, yy, zz := x+dx, y+dy, z+dz
					if xx < 0 || xx >= b.X || yy < 0 || yy >= b.Y || zz < 0 || zz >= b.Z {
						continue
					}
					h := b.Index(xx, yy, zz)
					if h == g {
						A[g][h] = 26
					} else {
						A[g][h] = -1
					}
				}
			}
		}
	}
	return A
}

// TestOperatorMatchesDenseStencil: the distributed stencil mat-vec
// must agree with the densely assembled 27-point operator at every
// rank count, including ones where slabs are uneven.
func TestOperatorMatchesDenseStencil(t *testing.T) {
	spec := Spec{Nx: 3, Ny: 4, Nz: 2, Levels: 1, Smooths: 1}
	for _, np := range []int{1, 2, 3, 4} {
		dense := buildDense(spec, np)
		n := len(dense)
		xs := sparse.RandomVector(n, 7)
		want := make([]float64, n)
		for i := range dense {
			for j, a := range dense[i] {
				want[i] += a * xs[j]
			}
		}
		var got []float64
		machine(np).Run(func(p *comm.Proc) {
			pb, err := NewProblem(p, spec)
			if err != nil {
				t.Error(err)
				return
			}
			op := pb.Operator()
			if op.N() != n {
				t.Errorf("np=%d: N=%d want %d", np, op.N(), n)
			}
			x := darray.New(p, pb.Dist())
			y := darray.New(p, pb.Dist())
			x.SetGlobal(func(g int) float64 { return xs[g] })
			op.Apply(x, y)
			full := y.Gather()
			if p.Rank() == 0 {
				got = full
			}
		})
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-12 {
				t.Fatalf("np=%d: y[%d] = %v, want %v", np, i, got[i], want[i])
			}
		}
	}
}

// TestStencilNNZMatchesAssembly: the analytic entry count equals the
// dense assembly's nonzero count.
func TestStencilNNZMatchesAssembly(t *testing.T) {
	spec := Spec{Nx: 3, Ny: 5, Nz: 4, Levels: 1, Smooths: 1}
	dense := buildDense(spec, 2)
	nnz := 0
	for i := range dense {
		for _, a := range dense[i] {
			if a != 0 {
				nnz++
			}
		}
	}
	machine(2).Run(func(p *comm.Proc) {
		pb, err := NewProblem(p, spec)
		if err != nil {
			t.Error(err)
			return
		}
		if got := pb.Operator().NNZ(); got != nnz {
			t.Errorf("NNZ = %d, want %d", got, nnz)
		}
	})
}

// solveBoth runs plain CG and V-cycle PCG on the same problem and
// right-hand side, returning iteration counts and solutions.
func solveBoth(t *testing.T, np int, spec Spec, tol float64) (cgIters, pcgIters int, pcgX []float64) {
	t.Helper()
	b, err := spec.Fine(np)
	if err != nil {
		t.Fatal(err)
	}
	rhs := sparse.RandomVector(b.N(), 42)
	run := func(precond bool) (int, []float64) {
		var iters int
		var xs []float64
		machine(np).Run(func(p *comm.Proc) {
			pb, err := NewProblem(p, spec)
			if err != nil {
				t.Error(err)
				return
			}
			bv := darray.New(p, pb.Dist())
			xv := darray.New(p, pb.Dist())
			bv.SetGlobal(func(g int) float64 { return rhs[g] })
			var st core.Stats
			if precond {
				st, err = core.PCG(p, pb.Operator(), pb.Precond(), bv, xv, core.Options{Tol: tol})
			} else {
				st, err = core.CG(p, pb.Operator(), bv, xv, core.Options{Tol: tol})
			}
			if err != nil {
				t.Error(err)
				return
			}
			if !st.Converged {
				t.Errorf("np=%d precond=%v: no convergence in %d iters", np, precond, st.Iterations)
			}
			full := xv.Gather()
			if p.Rank() == 0 {
				iters = st.Iterations
				xs = full
			}
		})
		return iters, xs
	}
	cgIters, _ = run(false)
	pcgIters, pcgX = run(true)
	return cgIters, pcgIters, pcgX
}

// TestVCyclePCGBeatsPlainCG: the acceptance criterion — V-cycle PCG
// converges in strictly fewer iterations than unpreconditioned CG.
func TestVCyclePCGBeatsPlainCG(t *testing.T) {
	cases := []struct {
		np   int
		spec Spec
	}{
		{1, Spec{Nx: 8, Ny: 8, Nz: 8}},
		{2, Spec{Nx: 8, Ny: 8, Nz: 4}},
		{4, Spec{Nx: 4, Ny: 4, Nz: 4}},
		{4, Spec{Nx: 8, Ny: 8, Nz: 2, Levels: 2}},
	}
	for _, c := range cases {
		cg, pcg, x := solveBoth(t, c.np, c.spec, 1e-9)
		if pcg >= cg {
			t.Errorf("np=%d %s: PCG %d iters not < CG %d", c.np, c.spec.Key(), pcg, cg)
		}
		// The answer must actually solve the system.
		dense := buildDense(c.spec, c.np)
		rhs := sparse.RandomVector(len(dense), 42)
		for i := range dense {
			s := rhs[i]
			for j, a := range dense[i] {
				s -= a * x[j]
			}
			if math.Abs(s) > 1e-6 {
				t.Fatalf("np=%d %s: residual %v at row %d", c.np, c.spec.Key(), s, i)
			}
		}
	}
}

// TestPCGBitIdenticalAcrossRuns: repeat solves at fixed np produce
// bit-identical solutions — level setup, smoother order and halo
// exchanges are all deterministic.
func TestPCGBitIdenticalAcrossRuns(t *testing.T) {
	spec := Spec{Nx: 4, Ny: 4, Nz: 4, Levels: 3}
	for _, np := range []int{1, 3, 4} {
		_, _, x1 := solveBoth(t, np, spec, 1e-10)
		_, _, x2 := solveBoth(t, np, spec, 1e-10)
		for i := range x1 {
			if x1[i] != x2[i] {
				t.Fatalf("np=%d: x[%d] differs across runs: %v vs %v", np, i, x1[i], x2[i])
			}
		}
	}
}

// TestLevelsClampWithoutPanic: a requested depth deeper than the
// geometry supports clamps (odd dims, np bigger than the coarsest
// grid) instead of panicking in level setup.
func TestLevelsClampWithoutPanic(t *testing.T) {
	cases := []struct {
		np     int
		spec   Spec
		levels int
	}{
		{2, Spec{Nx: 7, Ny: 8, Nz: 4, Levels: 4}, 1},   // odd x: no coarsening
		{2, Spec{Nx: 12, Ny: 12, Nz: 6, Levels: 8}, 3}, // 12 halves twice
		{8, Spec{Nx: 4, Ny: 4, Nz: 2, Levels: 4}, 2},   // coarse z-planes hit np
	}
	for _, c := range cases {
		machine(c.np).Run(func(p *comm.Proc) {
			pb, err := NewProblem(p, c.spec)
			if err != nil {
				t.Error(err)
				return
			}
			if pb.Levels() != c.levels {
				t.Errorf("np=%d %s: built %d levels, want %d", c.np, c.spec.Key(), pb.Levels(), c.levels)
			}
		})
	}
}

// TestSpecValidate: the admission bounds name the offending field.
func TestSpecValidate(t *testing.T) {
	bad := []Spec{
		{Nx: 0, Ny: 4, Nz: 4, Levels: 1, Smooths: 1},
		{Nx: 4, Ny: -1, Nz: 4, Levels: 1, Smooths: 1},
		{Nx: 4, Ny: 4, Nz: MaxDim + 1, Levels: 1, Smooths: 1},
		{Nx: 4, Ny: 4, Nz: 4, Levels: MaxLevels + 1, Smooths: 1},
		{Nx: 4, Ny: 4, Nz: 4, Levels: 1, Smooths: MaxSmooths + 1},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %+v passed validation", s)
		}
	}
	ok := Spec{Nx: 4, Ny: 4, Nz: 4}.WithDefaults()
	if err := ok.Validate(); err != nil {
		t.Errorf("defaulted spec rejected: %v", err)
	}
	if ok.Levels != DefaultLevels || ok.Smooths != DefaultSmooths {
		t.Errorf("defaults not applied: %+v", ok)
	}
}

// TestVCycleAllocFree: after one warm-up application the V-cycle
// allocates nothing — every level's scratch, ghost buffer and message
// buffer is preallocated or pooled. AllocsPerRun counts process-wide
// allocations, so every rank runs the same measured loop in lockstep
// (the collective exchanges inside the cycle keep them aligned) and
// the total must still be zero.
func TestVCycleAllocFree(t *testing.T) {
	for _, np := range []int{1, 4} {
		var allocs float64
		machine(np).Run(func(p *comm.Proc) {
			pb, err := NewProblem(p, Spec{Nx: 4, Ny: 4, Nz: 4, Levels: 3})
			if err != nil {
				t.Error(err)
				return
			}
			r := darray.New(p, pb.Dist())
			z := darray.New(p, pb.Dist())
			r.SetGlobal(func(g int) float64 { return float64(g%7) - 3 })
			M := pb.Precond()
			M.Apply(r, z) // warm-up: pools fill, block buffers size
			const runs = 10
			if p.Rank() == 0 {
				allocs = testing.AllocsPerRun(runs, func() {
					M.Apply(r, z)
				})
			} else {
				// AllocsPerRun calls f runs+1 times; match it so the
				// collective exchanges stay aligned across ranks.
				for i := 0; i < runs+1; i++ {
					M.Apply(r, z)
				}
			}
		})
		if allocs != 0 {
			t.Errorf("np=%d: V-cycle allocates %v per application in steady state", np, allocs)
		}
	}
}

// TestVCycleMissAllocFree: the bottom solve's miss path allocates
// nothing either. TestVCycleAllocFree repeats one right-hand side, so
// after its warm-up every bottom solve is a memo hit; here consecutive
// V-cycles alternate two, so every one of them solves.
func TestVCycleMissAllocFree(t *testing.T) {
	for _, np := range []int{1, 4} {
		var allocs float64
		var pb0 *Problem
		var before int
		const runs = 10
		machine(np).Run(func(p *comm.Proc) {
			pb, err := NewProblem(p, Spec{Nx: 4, Ny: 4, Nz: 4, Levels: 3})
			if err != nil {
				t.Error(err)
				return
			}
			d := pb.Dist()
			rs := []*darray.Vector{darray.New(p, d), darray.New(p, d)}
			fill(rs[0].Local(), d.Lo(p.Rank()), 1)
			fill(rs[1].Local(), d.Lo(p.Rank()), 2)
			z := darray.New(p, d)
			M := pb.Precond()
			k := 0
			apply := func() {
				M.Apply(rs[k%2], z)
				k++
			}
			apply() // warm-up: pools fill, block buffers size
			apply()
			// The barrier keeps a lagging rank's warm-up out of rank 0's
			// count, and no rank can reach the next bottom solve before
			// rank 0 does.
			p.Barrier()
			if p.Rank() == 0 {
				pb0 = pb
				pb.coarse.mu.Lock()
				before = pb.coarse.solves
				pb.coarse.mu.Unlock()
				allocs = testing.AllocsPerRun(runs, apply)
			} else {
				for i := 0; i < runs+1; i++ {
					apply()
				}
			}
		})
		if allocs != 0 {
			t.Errorf("np=%d: V-cycle allocates %v per application when every bottom solve misses", np, allocs)
		}
		if got := pb0.coarse.solves - before; got != runs+1 {
			t.Errorf("np=%d: %d bottom solves over %d V-cycles with alternating right-hand sides, want one each", np, got, runs+1)
		}
	}
}

// TestCoarseSolveSharedOncePerRHS: the ranks of a run share the bottom
// solve. A V-cycle with a new coarse right-hand side costs the run
// exactly one factor solve, a repeat of the last one costs none, and
// the bottom solution is chol.SolveInto's on the gathered right-hand
// side. The V-cycle's answer and every rank's modeled clock are
// bit-equal to a run in which each rank solves redundantly with a
// factor of its own.
func TestCoarseSolveSharedOncePerRHS(t *testing.T) {
	spec := Spec{Nx: 8, Ny: 8, Nz: 4, Levels: 3, Coarse: "direct"}
	salts := []int{1, 1, 2, 1, 2, 2}
	wantSolves := []int{1, 1, 2, 3, 4, 4}
	type step struct {
		z     []float64
		clock float64
	}
	for _, np := range []int{1, 2, 3, 4, 8} {
		run := func(shared bool) [][]step {
			steps := make([][]step, np)
			machine(np).Run(func(p *comm.Proc) {
				pb, err := NewProblem(p, spec)
				if err != nil {
					t.Error(err)
					return
				}
				chol := pb.coarse.chol
				cn := chol.N()
				if !shared {
					pb.coarse = &coarseFactor{chol: chol, in: make([]float64, cn), out: make([]float64, cn), scratch: make([]float64, cn)}
				}
				d := pb.Dist()
				r, z := darray.New(p, d), darray.New(p, d)
				bottom := pb.levels[len(pb.levels)-1]
				sol, scratch := make([]float64, cn), make([]float64, cn)
				for k, salt := range salts {
					fill(r.Local(), d.Lo(p.Rank()), salt)
					pb.Precond().Apply(r, z)
					steps[p.Rank()] = append(steps[p.Rank()], step{append([]float64(nil), z.Local()...), p.Clock()})
					if err := chol.SolveInto(sol, pb.coarseFull, scratch); err != nil {
						t.Error(err)
						return
					}
					if i := sameBits(bottom.x, sol[bottom.zlo*bottom.b.X*bottom.b.Y:][:bottom.n]); i >= 0 {
						t.Errorf("np=%d shared=%v rank %d V-cycle %d: bottom x[%d] differs from chol.SolveInto", np, shared, p.Rank(), k, i)
					}
					// Every rank has called the bottom solve once the
					// barrier returns, and none can call the next before
					// rank 0 has entered its V-cycle.
					p.Barrier()
					if shared && p.Rank() == 0 {
						pb.coarse.mu.Lock()
						got := pb.coarse.solves
						pb.coarse.mu.Unlock()
						if got != wantSolves[k] {
							t.Errorf("np=%d: %d bottom solves after V-cycle %d, want %d", np, got, k, wantSolves[k])
						}
					}
				}
			})
			return steps
		}
		got, want := run(true), run(false)
		for r := range want {
			for k := range want[r] {
				g, w := got[r][k], want[r][k]
				if i := sameBits(g.z, w.z); i >= 0 {
					t.Errorf("np=%d rank %d V-cycle %d: z[%d] = %v, redundant solve %v", np, r, k, i, g.z[i], w.z[i])
				}
				if g.clock != w.clock {
					t.Errorf("np=%d rank %d V-cycle %d: modeled clock %v, redundant solve %v", np, r, k, g.clock, w.clock)
				}
			}
		}
	}
}

// TestModelBytesPositive: the registry sizing signal scales with the
// problem and never returns zero for a valid spec.
func TestModelBytesPositive(t *testing.T) {
	small := Spec{Nx: 4, Ny: 4, Nz: 4}.ModelBytes(2)
	big := Spec{Nx: 16, Ny: 16, Nz: 16}.ModelBytes(2)
	if small <= 0 || big <= small {
		t.Errorf("ModelBytes: small=%d big=%d", small, big)
	}
}

// TestModelBytesTracksRetainedHeap: the registry's sizing signal must
// be the heap a built hierarchy actually holds, or the registry evicts
// plans it has room for (over-report) or overruns its budget
// (under-report). Measured on solve_hpcg's shape — 20³ per rank, four
// ranks, three levels, direct bottom — as the live heap the four
// Problems keep after a collection; the formula must land within 1.5x
// either way.
func TestModelBytesTracksRetainedHeap(t *testing.T) {
	const np = 4
	spec := Spec{Nx: 20, Ny: 20, Nz: 20, Levels: 3}
	live := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	pbs := make([]*Problem, np)
	before := live()
	machine(np).Run(func(p *comm.Proc) {
		pb, err := NewProblem(p, spec)
		if err != nil {
			t.Error(err)
			return
		}
		pbs[p.Rank()] = pb
	})
	retained := float64(live() - before)
	runtime.KeepAlive(pbs)
	model := float64(spec.ModelBytes(np))
	if model > 1.5*retained || retained > 1.5*model {
		t.Errorf("ModelBytes = %.0f, built problem retains %.0f bytes (ratio %.2f, want within 1.5x)", model, retained, model/retained)
	}
	t.Logf("ModelBytes %.0f, retained %.0f", model, retained)
}

// TestCoarseDirectIterationRegression guards the coarsest-grid direct
// solve: against the same problem and tolerance, the exact bottom solve
// must never need more PCG iterations than the smoother-only bottom —
// and the answers of both variants must converge. This is the
// regression fence for the "remaining depth" item the direct solve
// closes.
func TestCoarseDirectIterationRegression(t *testing.T) {
	for _, np := range []int{1, 4} {
		smooth := Spec{Nx: 4, Ny: 4, Nz: 4, Levels: 3, Coarse: "smooth"}
		dir := Spec{Nx: 4, Ny: 4, Nz: 4, Levels: 3, Coarse: "direct"}
		_, itSmooth, _ := solveBoth(t, np, smooth, 1e-10)
		_, itDirect, _ := solveBoth(t, np, dir, 1e-10)
		if itDirect > itSmooth {
			t.Errorf("np=%d: direct coarse solve needs %d PCG iterations, smoother-only %d", np, itDirect, itSmooth)
		}
	}
}

// TestCoarseModeSelection: auto picks the direct solve when the
// coarsest grid is small enough and falls back to smoothing when it is
// not; explicit "direct" on an oversized coarsest grid is an error, not
// a silent fallback.
func TestCoarseModeSelection(t *testing.T) {
	machine(2).Run(func(p *comm.Proc) {
		pb, err := NewProblem(p, Spec{Nx: 4, Ny: 4, Nz: 4, Levels: 3})
		if err != nil {
			t.Error(err)
			return
		}
		if !pb.CoarseDirect() {
			t.Error("auto did not select the direct solve for a tiny coarsest grid")
		}
		pb, err = NewProblem(p, Spec{Nx: 4, Ny: 4, Nz: 4, Levels: 3, Coarse: "smooth"})
		if err != nil {
			t.Error(err)
			return
		}
		if pb.CoarseDirect() {
			t.Error("explicit smooth still built a factor")
		}
		// 16×16×16 per rank at depth 1: the coarsest grid IS the fine
		// grid (8192 points), far over MaxCoarseDirect.
		big := Spec{Nx: 16, Ny: 16, Nz: 16, Levels: 1}
		pb, err = NewProblem(p, big)
		if err != nil {
			t.Error(err)
			return
		}
		if pb.CoarseDirect() {
			t.Error("auto built a dense factor over an oversized coarsest grid")
		}
		big.Coarse = "direct"
		if _, err := NewProblem(p, big); err == nil {
			t.Error("explicit direct accepted an oversized coarsest grid")
		}
	})
	if err := (Spec{Nx: 4, Ny: 4, Nz: 4, Coarse: "cholesky"}).WithDefaults().Validate(); err == nil {
		t.Error("unknown coarse mode validated")
	}
}

// TestCoarseDirectDeterministic: the redundant bottom solve is
// bit-identical across repeat runs (every rank factors and solves the
// same dense system).
func TestCoarseDirectDeterministic(t *testing.T) {
	spec := Spec{Nx: 4, Ny: 4, Nz: 4, Levels: 3, Coarse: "direct"}
	_, _, x0 := solveBoth(t, 4, spec, 1e-10)
	_, _, x1 := solveBoth(t, 4, spec, 1e-10)
	for i := range x0 {
		if x0[i] != x1[i] {
			t.Fatalf("x[%d] differs across runs: %v vs %v", i, x0[i], x1[i])
		}
	}
}
