package core

import (
	"context"
	"errors"
	"testing"

	"hpfcg/internal/comm"
	"hpfcg/internal/darray"
	"hpfcg/internal/dist"
	"hpfcg/internal/fault"
	"hpfcg/internal/sparse"
	"hpfcg/internal/spmv"
)

// resilientFn builds the SPMD body one restart attempt runs: fresh
// vectors (a real restart re-derives everything from A, b and the
// store), CGResilient over the shared checkpoint store, solution and
// stats captured on rank 0.
func resilientFn(A *sparse.CSR, b []float64, d dist.Block, store *CheckpointStore, interval int,
	sol *[]float64, st *Stats, solveErr *error) func(p *comm.Proc) {
	return func(p *comm.Proc) {
		op := spmv.NewRowBlockCSR(p, A, d)
		bv := darray.New(p, d)
		bv.SetGlobal(func(g int) float64 { return b[g] })
		x := darray.New(p, d)
		s, err := CGResilient(p, op, bv, x, Options{Tol: 1e-10},
			Resilience{Store: store, Interval: interval})
		full := x.Gather()
		if p.Rank() == 0 {
			*sol, *st, *solveErr = full, s, err
		}
	}
}

// TestCGResilientHealthyMatchesCG: with no faults, the checkpointing
// solver is CG plus pure-copy snapshots — same merges, same
// arithmetic — so iterates and solution must be bit-identical, and the
// only trace of resilience is the checkpoint count and the modeled
// stable-storage time.
func TestCGResilientHealthyMatchesCG(t *testing.T) {
	A := sparse.RandomSPD(60, 5, 21)
	b := sparse.RandomVector(60, 8)
	for _, np := range testNPs {
		d := dist.NewBlock(60, np)
		var solCG, solRes []float64
		var stCG, stRes Stats
		store := NewCheckpointStore(np)
		machine(np).Run(func(p *comm.Proc) {
			op := spmv.NewRowBlockCSR(p, A, d)
			bv := darray.New(p, d)
			bv.SetGlobal(func(g int) float64 { return b[g] })
			x1 := darray.New(p, d)
			x2 := darray.New(p, d)
			s1, err1 := CG(p, op, bv, x1, Options{Tol: 1e-10, History: true})
			s2, err2 := CGResilient(p, op, bv, x2, Options{Tol: 1e-10, History: true},
				Resilience{Store: store, Interval: 5})
			if err1 != nil || err2 != nil {
				t.Errorf("np=%d: %v %v", np, err1, err2)
				return
			}
			f1, f2 := x1.Gather(), x2.Gather()
			if p.Rank() == 0 {
				solCG, solRes, stCG, stRes = f1, f2, s1, s2
			}
		})
		if stCG.Iterations != stRes.Iterations || !stRes.Converged {
			t.Fatalf("np=%d: CG %d iterations, resilient %d (converged=%v)",
				np, stCG.Iterations, stRes.Iterations, stRes.Converged)
		}
		for g := range solCG {
			if solCG[g] != solRes[g] {
				t.Fatalf("np=%d: solutions differ at %d: %v vs %v", np, g, solCG[g], solRes[g])
			}
		}
		for i := range stCG.History {
			if stCG.History[i] != stRes.History[i] {
				t.Fatalf("np=%d: history differs at %d", np, i)
			}
		}
		if want := stCG.Iterations / 5; stRes.Checkpoints != want {
			t.Errorf("np=%d: %d checkpoints over %d iterations, want %d",
				np, stRes.Checkpoints, stRes.Iterations, want)
		}
		if stRes.Restores != 0 || stRes.Replacements != 0 || stRes.StartIteration != 0 {
			t.Errorf("np=%d: healthy solve reports restores=%d replacements=%d start=%d",
				np, stRes.Restores, stRes.Replacements, stRes.StartIteration)
		}
	}
}

// TestCGResilientSurvivesCrash is the tentpole scenario: a rank is
// killed mid-solve by the deterministic fault plan; the run surfaces a
// typed PeerFailure; the restarted attempt restores the newest
// complete checkpoint and replays CG's exact trajectory — the final
// solution is bit-identical to the fault-free solve. The same crash
// without resilience must also come back as a typed error, not a hang.
func TestCGResilientSurvivesCrash(t *testing.T) {
	const np, n, interval = 4, 96, 3
	A := sparse.RandomSPD(n, 5, 11)
	b := sparse.RandomVector(n, 4)
	d := dist.NewBlock(n, np)

	// Fault-free reference solution and makespan.
	var ref []float64
	var refSt Stats
	healthy := machine(np).Run(func(p *comm.Proc) {
		op := spmv.NewRowBlockCSR(p, A, d)
		bv := darray.New(p, d)
		bv.SetGlobal(func(g int) float64 { return b[g] })
		x := darray.New(p, d)
		s, err := CG(p, op, bv, x, Options{Tol: 1e-10})
		if err != nil {
			t.Errorf("reference CG: %v", err)
		}
		full := x.Gather()
		if p.Rank() == 0 {
			ref, refSt = full, s
		}
	})

	plan := fault.Plan{Events: []fault.Event{
		{Kind: fault.Crash, Rank: 1, At: 0.6 * healthy.ModelTime, Dst: -1},
	}}

	// Without resilience: typed PeerFailure, no deadlock.
	{
		inj, err := fault.NewInjector(plan)
		if err != nil {
			t.Fatal(err)
		}
		m := machine(np)
		m.AttachInjector(inj)
		_, err = m.RunContext(context.Background(), func(p *comm.Proc) {
			op := spmv.NewRowBlockCSR(p, A, d)
			bv := darray.New(p, d)
			bv.SetGlobal(func(g int) float64 { return b[g] })
			x := darray.New(p, d)
			_, _ = CG(p, op, bv, x, Options{Tol: 1e-10})
		})
		var pf comm.PeerFailure
		if !errors.As(err, &pf) {
			t.Fatalf("plain CG under crash: err = %v, want PeerFailure", err)
		}
		if pf.Rank != 1 {
			t.Errorf("blamed rank %d, want 1", pf.Rank)
		}
	}

	// With resilience: restart until the solve completes.
	inj, err := fault.NewInjector(plan)
	if err != nil {
		t.Fatal(err)
	}
	m := machine(np)
	m.AttachInjector(inj)
	store := NewCheckpointStore(np)
	var sol []float64
	var st Stats
	var solveErr error
	fn := resilientFn(A, b, d, store, interval, &sol, &st, &solveErr)
	attempts := 0
	for {
		attempts++
		if attempts > 4 {
			t.Fatal("solve did not complete within 4 attempts")
		}
		rs, err := m.RunContext(context.Background(), fn)
		if err == nil {
			break
		}
		var pf comm.PeerFailure
		if !errors.As(err, &pf) {
			t.Fatalf("attempt %d: err = %v, want PeerFailure", attempts, err)
		}
		inj.Advance(rs.ModelTime)
	}
	if solveErr != nil {
		t.Fatalf("CGResilient: %v", solveErr)
	}
	if attempts != 2 {
		t.Errorf("completed in %d attempts, want 2 (one crash)", attempts)
	}
	if !st.Converged || st.Iterations != refSt.Iterations {
		t.Fatalf("resilient solve: converged=%v iters=%d, reference iters=%d",
			st.Converged, st.Iterations, refSt.Iterations)
	}
	if st.Restores != 1 || st.StartIteration == 0 {
		t.Errorf("final attempt: restores=%d start=%d, want 1 restore from a checkpoint",
			st.Restores, st.StartIteration)
	}
	if st.Replacements != 0 {
		t.Errorf("guard replaced the residual on an exact checkpoint (replacements=%d)", st.Replacements)
	}
	for g := range ref {
		if sol[g] != ref[g] {
			t.Fatalf("solution differs from fault-free run at %d: %v vs %v", g, sol[g], ref[g])
		}
	}
}

// TestCGResilientGuardReplacesCorruptResidual: if the checkpointed
// residual no longer matches b - A·x (silent corruption), the guard
// must detect the deviation at restore, substitute the true residual,
// and still converge.
func TestCGResilientGuardReplacesCorruptResidual(t *testing.T) {
	const np, n, interval = 2, 64, 4
	A := sparse.RandomSPD(n, 5, 31)
	b := sparse.RandomVector(n, 9)
	d := dist.NewBlock(n, np)
	store := NewCheckpointStore(np)
	var sol []float64
	var st Stats
	var solveErr error

	// Populate the store: run a few iterations past one checkpoint.
	machine(np).Run(func(p *comm.Proc) {
		op := spmv.NewRowBlockCSR(p, A, d)
		bv := darray.New(p, d)
		bv.SetGlobal(func(g int) float64 { return b[g] })
		x := darray.New(p, d)
		_, _ = CGResilient(p, op, bv, x, Options{Tol: 1e-10, MaxIter: interval + 1},
			Resilience{Store: store, Interval: interval})
	})
	slot, iter := store.Latest()
	if iter != interval {
		t.Fatalf("Latest = (%d,%d), want a checkpoint at iteration %d", slot, iter, interval)
	}
	// Corrupt the stored residual on every rank.
	for r := 0; r < np; r++ {
		for i := range store.slots[slot].r[r] {
			store.slots[slot].r[r][i] += 0.5
		}
	}

	machine(np).Run(resilientFn(A, b, d, store, interval, &sol, &st, &solveErr))
	if solveErr != nil {
		t.Fatalf("CGResilient: %v", solveErr)
	}
	if st.Replacements != 1 {
		t.Errorf("replacements = %d, want 1 (corrupted checkpoint)", st.Replacements)
	}
	if !st.Converged {
		t.Fatalf("did not converge after residual replacement: %v", st)
	}
	// Converged means the recurrence residual passed the tolerance;
	// double-check against an explicitly computed residual.
	if rr := relResidual(A, sol, b); rr > 1e-9 {
		t.Errorf("true relative residual %.3e after replacement, want <= 1e-9", rr)
	}
}
