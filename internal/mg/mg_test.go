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
// ranks, three levels — as the live heap the four
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

// vcycleExchanging is vcycle with every sweep exchanging its halo: the
// first pre-smooth runs SymGS on the zeroed x instead of SymGSFromZero.
func (pb *Problem) vcycleExchanging(l int, rl, xl []float64) {
	lv := pb.levels[l]
	for i := range xl {
		xl[i] = 0
	}
	pb.p.Compute(lv.n)
	for s := 0; s < pb.smooths; s++ {
		lv.op.SymGS(rl, xl)
	}
	if l == len(pb.levels)-1 {
		return
	}
	lv.op.Residual(rl, xl, lv.res)
	next := pb.levels[l+1]
	next.restrictFrom(pb.p, lv, lv.res)
	pb.vcycleExchanging(l+1, next.r, next.x)
	next.prolongInto(pb.p, lv, xl)
	for s := 0; s < pb.smooths; s++ {
		lv.op.SymGS(rl, xl)
	}
}

// TestFirstSweepExchangesNothing: the first pre-smooth on each level
// starts from x = +0.0, whose halo is +0.0, so the V-cycle sends exactly
// one SymGS halo exchange per level fewer than vcycleExchanging —
// messages and bytes, sent and received, each level's exchange measured
// on its own SymGS — charges the same flops, and returns the same bits.
func TestFirstSweepExchangesNothing(t *testing.T) {
	for _, np := range []int{1, 2, 3, 4, 8} {
		for _, smooths := range []int{1, 2} {
			spec := Spec{Nx: 4, Ny: 4, Nz: 4, Levels: 3, Smooths: smooths}
			machine(np).Run(func(p *comm.Proc) {
				pb, err := NewProblem(p, spec)
				if err != nil {
					t.Error(err)
					return
				}
				if pb.Levels() != 3 {
					t.Errorf("np=%d: %d levels, want 3", np, pb.Levels())
					return
				}
				// The message and flop counts run moves on this rank.
				delta := func(run func()) comm.ProcStats {
					s0 := p.Stats()
					run()
					s1 := p.Stats()
					return comm.ProcStats{MsgsSent: s1.MsgsSent - s0.MsgsSent, BytesSent: s1.BytesSent - s0.BytesSent,
						MsgsRecv: s1.MsgsRecv - s0.MsgsRecv, BytesRecv: s1.BytesRecv - s0.BytesRecv, Flops: s1.Flops - s0.Flops}
				}
				// One SymGS exchange per level, measured on sweeps that
				// leave nonzero ghosts behind for the V-cycle's first
				// sweep to ignore.
				exchanges := delta(func() {
					for l, lv := range pb.levels {
						rl, xl := make([]float64, lv.n), make([]float64, lv.n)
						fill(rl, lv.zlo*lv.b.X*lv.b.Y, 2+l)
						fill(xl, lv.zlo*lv.b.X*lv.b.Y, 3+l)
						lv.op.SymGS(rl, xl)
					}
				})
				exchanges.Flops = 0 // skipping an exchange saves no flops
				d := pb.Dist()
				r := make([]float64, d.Count(p.Rank()))
				fill(r, d.Lo(p.Rank()), 1)
				z, want := make([]float64, len(r)), make([]float64, len(r))
				got := delta(func() { pb.vcycle(0, r, z) })
				ref := delta(func() { pb.vcycleExchanging(0, r, want) })
				saved := comm.ProcStats{MsgsSent: ref.MsgsSent - got.MsgsSent, BytesSent: ref.BytesSent - got.BytesSent,
					MsgsRecv: ref.MsgsRecv - got.MsgsRecv, BytesRecv: ref.BytesRecv - got.BytesRecv, Flops: ref.Flops - got.Flops}
				if saved != exchanges {
					t.Errorf("np=%d S%d rank %d: the V-cycle saves %+v against an exchanging first sweep, want one SymGS exchange per level, %+v",
						np, smooths, p.Rank(), saved, exchanges)
				}
				if i := sameBits(z, want); i >= 0 {
					t.Errorf("np=%d S%d rank %d: z[%d] = %v, exchanging first sweep %v", np, smooths, p.Rank(), i, z[i], want[i])
				}
			})
		}
	}
}
