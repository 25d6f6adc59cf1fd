package hpfexec

import (
	"errors"
	"math"
	"testing"

	"hpfcg/internal/comm"
	"hpfcg/internal/core"
	"hpfcg/internal/fault"
	"hpfcg/internal/hpf"
	"hpfcg/internal/sparse"
)

// resilientRun is one resilient solve: the right-hand side's Result
// with the batch's Recovery report beside it.
type resilientRun struct {
	*Result
	*Recovery
}

// solveResilient is Prepare + a resilient variant with checkpoint
// interval ckpt and restart budget restarts (0 = the default) +
// SolveBatch on a fresh handle.
func solveResilient(m *comm.Machine, plan *hpf.Plan, A *sparse.CSR, b []float64, opt core.Options, ckpt, restarts int) (*resilientRun, error) {
	pr, err := Prepare(m, plan, A)
	if err != nil {
		return nil, err
	}
	if err := pr.WithVariant(Resilient(ckpt, restarts)); err != nil {
		return nil, err
	}
	out, err := pr.SolveBatch([][]float64{b}, []core.Options{opt})
	if err != nil {
		return nil, err
	}
	if out.Results[0].Err != nil {
		return nil, out.Results[0].Err
	}
	return &resilientRun{out.Results[0], out.Recovery}, nil
}

// TestSolveCGResilientSurvivesCrash drives the full product path: an
// hpf plan, a deterministic fault plan that kills one rank mid-solve,
// SolveCG surfacing the typed failure, and a Resilient variant absorbing
// it via checkpoint/restart with a solution bit-identical to the
// fault-free solve.
func TestSolveCGResilientSurvivesCrash(t *testing.T) {
	A := sparse.Laplace2D(16, 16)
	b := sparse.RandomVector(A.NRows, 7)
	np := 4
	plan := bindPlan(t, csrPlan, A.NRows, A.NNZ(), np)
	opt := core.Options{Tol: 1e-10}

	// Fault-free reference.
	ref, err := SolveCG(machine(np), plan, A, b, opt)
	if err != nil {
		t.Fatal(err)
	}

	fp := fault.Plan{Events: []fault.Event{
		{Kind: fault.Crash, Rank: 2, At: 0.6 * ref.Run.ModelTime, Dst: -1},
	}}

	// Without resilience the crash must come back as a typed error.
	{
		inj, err := fault.NewInjector(fp)
		if err != nil {
			t.Fatal(err)
		}
		m := machine(np)
		m.AttachInjector(inj)
		_, err = SolveCG(m, plan, A, b, opt)
		var pf comm.PeerFailure
		if !errors.As(err, &pf) {
			t.Fatalf("SolveCG under crash: err = %v, want comm.PeerFailure", err)
		}
		if pf.Rank != 2 {
			t.Errorf("blamed rank %d, want 2", pf.Rank)
		}
	}

	inj, err := fault.NewInjector(fp)
	if err != nil {
		t.Fatal(err)
	}
	m := machine(np)
	m.AttachInjector(inj)
	res, err := solveResilient(m, plan, A, b, opt, 4, 0)
	if err != nil {
		t.Fatalf("resilient solve: %v", err)
	}
	if res.Attempts != 2 || len(res.Failures) != 1 {
		t.Errorf("attempts = %d, failures = %d, want 2 and 1", res.Attempts, len(res.Failures))
	}
	if len(res.Failures) == 1 && res.Failures[0].Rank != 2 {
		t.Errorf("recorded failure blames rank %d, want 2", res.Failures[0].Rank)
	}
	if !res.Stats.Converged || res.Stats.Iterations != ref.Stats.Iterations {
		t.Fatalf("resilient solve: converged=%v iters=%d, reference iters=%d",
			res.Stats.Converged, res.Stats.Iterations, ref.Stats.Iterations)
	}
	if res.Stats.Restores != 1 || res.Stats.StartIteration == 0 {
		t.Errorf("final attempt restores=%d start=%d, want a restart from a checkpoint",
			res.Stats.Restores, res.Stats.StartIteration)
	}
	if res.LostIterations <= 0 {
		t.Errorf("lost iterations = %d, want > 0 (crash rolled work back)", res.LostIterations)
	}
	if res.TotalIterations != res.Stats.Iterations+res.LostIterations {
		t.Errorf("total %d != useful %d + lost %d",
			res.TotalIterations, res.Stats.Iterations, res.LostIterations)
	}
	if res.TotalModelTime <= res.Run.ModelTime {
		t.Errorf("mission time %.6g not larger than final attempt %.6g",
			res.TotalModelTime, res.Run.ModelTime)
	}
	for g := range ref.X {
		if res.X[g] != ref.X[g] {
			t.Fatalf("solution differs from fault-free run at %d: %v vs %v", g, res.X[g], ref.X[g])
		}
	}
}

// TestSolveCGResilientSurvivesDrop: a dropped message is a failure on
// the modeled clock like a crash. Without resilience it comes back as a
// typed failure blaming the sender — not as a tag mismatch on the
// sender's next message — and a Resilient variant absorbs it in one
// restart with the fault-free solution's bits.
func TestSolveCGResilientSurvivesDrop(t *testing.T) {
	A := sparse.Laplace2D(32, 32)
	b := sparse.RandomVector(A.NRows, 42)
	np := 4
	plan := bindPlan(t, csrPlan, A.NRows, A.NNZ(), np)
	opt := core.Options{Tol: 1e-10}
	ref, err := SolveCG(machine(np), plan, A, b, opt)
	if err != nil {
		t.Fatal(err)
	}
	dropping := func() *comm.Machine {
		fp, err := fault.Parse("drop:rank=1,n=1,dst=0")
		if err != nil {
			t.Fatal(err)
		}
		inj, err := fault.NewInjector(fp)
		if err != nil {
			t.Fatal(err)
		}
		m := machine(np)
		m.AttachInjector(inj)
		return m
	}

	var pf comm.PeerFailure
	if _, err := SolveCG(dropping(), plan, A, b, opt); !errors.As(err, &pf) || pf.Rank != 1 {
		t.Fatalf("SolveCG under a drop: err = %v, want comm.PeerFailure blaming rank 1", err)
	}

	res, err := solveResilient(dropping(), plan, A, b, opt, 0, 0)
	if err != nil {
		t.Fatalf("resilient solve: %v", err)
	}
	if res.Attempts != 2 || len(res.Failures) != 1 || res.Failures[0].Rank != 1 || res.LostIterations != 0 {
		t.Errorf("attempts=%d failures=%v lost=%d, want 2, one blaming rank 1, and 0",
			res.Attempts, res.Failures, res.LostIterations)
	}
	if res.Stats.Iterations != ref.Stats.Iterations {
		t.Errorf("iterations %d, fault-free %d", res.Stats.Iterations, ref.Stats.Iterations)
	}
	for g := range ref.X {
		if res.X[g] != ref.X[g] {
			t.Fatalf("solution differs from the fault-free run at %d: %v vs %v", g, res.X[g], ref.X[g])
		}
	}
}

// TestSolveCGResilientHealthy: with no injector the resilient driver is
// one attempt with zero losses, matching SolveCG bit-for-bit.
func TestSolveCGResilientHealthy(t *testing.T) {
	A := sparse.Laplace2D(12, 12)
	b := sparse.RandomVector(A.NRows, 3)
	np := 4
	plan := bindPlan(t, csrPlan, A.NRows, A.NNZ(), np)
	opt := core.Options{Tol: 1e-10}

	ref, err := SolveCG(machine(np), plan, A, b, opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := solveResilient(machine(np), plan, A, b, opt, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempts != 1 || len(res.Failures) != 0 || res.LostIterations != 0 {
		t.Errorf("healthy solve: attempts=%d failures=%d lost=%d",
			res.Attempts, len(res.Failures), res.LostIterations)
	}
	if res.Stats.Iterations != ref.Stats.Iterations {
		t.Errorf("iterations %d != reference %d", res.Stats.Iterations, ref.Stats.Iterations)
	}
	for g := range ref.X {
		if res.X[g] != ref.X[g] {
			t.Fatalf("solution differs at %d", g)
		}
	}
}

// TestSolveCGResilientGivesUp: a plan that kills a rank immediately on
// every attempt exhausts the restart budget and returns the typed failure.
func TestSolveCGResilientGivesUp(t *testing.T) {
	A := sparse.Laplace2D(8, 8)
	b := sparse.RandomVector(A.NRows, 5)
	np := 2
	plan := bindPlan(t, csrPlan, A.NRows, A.NNZ(), np)
	opt := core.Options{Tol: 1e-10}

	ref, err := SolveCG(machine(np), plan, A, b, opt)
	if err != nil {
		t.Fatal(err)
	}

	// Crashes every fifth of the healthy makespan: each restart makes at
	// most a fifth of the remaining progress before the next one lands,
	// so a budget of 2 restarts cannot reach convergence. Advance consumes at
	// most the attempt's modeled time, leaving later crashes pending.
	evs := make([]fault.Event, 12)
	for i := range evs {
		evs[i] = fault.Event{Kind: fault.Crash, Rank: 1, At: float64(i+1) * 0.2 * ref.Run.ModelTime, Dst: -1}
	}
	inj, err := fault.NewInjector(fault.Plan{Events: evs})
	if err != nil {
		t.Fatal(err)
	}
	m := machine(np)
	m.AttachInjector(inj)
	_, err = solveResilient(m, plan, A, b, opt, 3, 2)
	var pf comm.PeerFailure
	if !errors.As(err, &pf) {
		t.Fatalf("err = %v, want comm.PeerFailure after exhausting restarts", err)
	}
}

// TestSolveCGResilientDeterministic: what a failed attempt costs is a
// function of the modeled schedule, not of when each surviving
// goroutine happened to notice the abort. One resilient solve under a
// fixed multi-crash plan, repeated, must report the same attempts,
// mission time (to the bit), total and lost iterations, and solution.
// The plan is E20's seeded Poisson schedule: crashes land in setup, in
// the loop and right after restarts, and close enough together that a
// perturbed mission clock changes which of them fire.
func TestSolveCGResilientDeterministic(t *testing.T) {
	A := sparse.Banded(288, 4)
	b := sparse.RandomVector(A.NRows, 1996)
	opt := core.Options{Tol: 1e-8}
	for _, np := range []int{2, 4} {
		plan := bindPlan(t, csrPlan, A.NRows, A.NNZ(), np)
		ref, err := SolveCG(machine(np), plan, A, b, opt)
		if err != nil {
			t.Fatal(err)
		}
		T := ref.Run.ModelTime
		fp := fault.RandomPlan(1996+int64(np), np, 0.4*T, 3*T)
		var first *resilientRun
		for rep := 0; rep < 20; rep++ {
			inj, err := fault.NewInjector(fp)
			if err != nil {
				t.Fatal(err)
			}
			m := machine(np)
			m.AttachInjector(inj)
			res, err := solveResilient(m, plan, A, b, opt, 3, 20)
			if err != nil {
				t.Fatalf("np=%d rep %d: %v", np, rep, err)
			}
			if first == nil {
				first = res
				if res.Attempts < 3 {
					t.Fatalf("np=%d: %d attempts, want the plan to land at least two crashes", np, res.Attempts)
				}
				if res.TotalIterations != res.Stats.Iterations+res.LostIterations {
					t.Fatalf("np=%d: total %d != useful %d + lost %d", np, res.TotalIterations, res.Stats.Iterations, res.LostIterations)
				}
				continue
			}
			if res.Attempts != first.Attempts ||
				math.Float64bits(res.TotalModelTime) != math.Float64bits(first.TotalModelTime) ||
				res.TotalIterations != first.TotalIterations ||
				res.LostIterations != first.LostIterations {
				t.Fatalf("np=%d rep %d: attempts=%d mission=%v total=%d lost=%d, first run had %d / %v / %d / %d",
					np, rep, res.Attempts, res.TotalModelTime, res.TotalIterations, res.LostIterations,
					first.Attempts, first.TotalModelTime, first.TotalIterations, first.LostIterations)
			}
			for g := range first.X {
				if math.Float64bits(res.X[g]) != math.Float64bits(first.X[g]) {
					t.Fatalf("np=%d rep %d: x[%d] = %v, first run had %v", np, rep, g, res.X[g], first.X[g])
				}
			}
		}
	}
}

// TestSolveCGResilientCrashAfterLastIteration: a crash in the gather
// window — after iteration MaxIter wrote its checkpoint, before the run
// ends — restores at the iteration limit, so the retry has no iteration
// left to run. It must still report the MaxIter iterations the solve
// took, none of them lost.
func TestSolveCGResilientCrashAfterLastIteration(t *testing.T) {
	A := sparse.Laplace2D(16, 16)
	b := sparse.RandomVector(A.NRows, 7)
	np := 4
	plan := bindPlan(t, csrPlan, A.NRows, A.NNZ(), np)
	opt := core.Options{Tol: 1e-300, MaxIter: 20}

	ref, err := solveResilient(machine(np), plan, A, b, opt, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, frac := range []float64{0.98, 0.985, 0.99, 0.995} {
		inj, err := fault.NewInjector(fault.Plan{Events: []fault.Event{
			{Kind: fault.Crash, Rank: 2, At: frac * ref.Run.ModelTime, Dst: -1},
		}})
		if err != nil {
			t.Fatal(err)
		}
		m := machine(np)
		m.AttachInjector(inj)
		res, err := solveResilient(m, plan, A, b, opt, 10, 0)
		if err != nil {
			t.Fatalf("crash at %g·T: %v", frac, err)
		}
		if res.Attempts != 2 || res.Stats.StartIteration != opt.MaxIter {
			t.Fatalf("crash at %g·T: attempts=%d start=%d, want a restore at iteration %d",
				frac, res.Attempts, res.Stats.StartIteration, opt.MaxIter)
		}
		if res.Stats.Iterations != opt.MaxIter || res.TotalIterations != opt.MaxIter || res.LostIterations != 0 {
			t.Errorf("crash at %g·T: iterations=%d total=%d lost=%d, want %d / %d / 0",
				frac, res.Stats.Iterations, res.TotalIterations, res.LostIterations, opt.MaxIter, opt.MaxIter)
		}
		for g := range ref.X {
			if res.X[g] != ref.X[g] {
				t.Fatalf("crash at %g·T: solution differs from the fault-free run at %d", frac, g)
			}
		}
	}
}
