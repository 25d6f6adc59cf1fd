package fault_test

import (
	"testing"

	"hpfcg/internal/comm"
	"hpfcg/internal/core"
	"hpfcg/internal/darray"
	"hpfcg/internal/dist"
	"hpfcg/internal/fault"
	"hpfcg/internal/sparse"
	"hpfcg/internal/spmv"
	"hpfcg/internal/topology"
)

// TestIallreduceOverlapUnderStraggler: the nonblocking-collective
// satellite's fault case. A straggler stretches one rank's compute
// inside the overlap window, so that rank hides *more* of the
// reduction (its window is longer) while the values stay bit-identical
// to the healthy run — the eager exchange is the same arithmetic
// regardless of what the clocks do. The straggled run's makespan must
// not be smaller than the healthy one, and the overlap books must stay
// consistent (hidden + exposed covers every waited-on round on both).
func TestIallreduceOverlapUnderStraggler(t *testing.T) {
	A := sparse.Banded(192, 4)
	n := A.NRows
	b := sparse.RandomVector(n, 9)
	const np = 4
	d := dist.NewBlock(n, np)

	solve := func(inj comm.Injector) ([]float64, core.Stats, comm.RunStats) {
		m := comm.NewMachine(np, topology.Hypercube{}, topology.DefaultCostParams())
		if inj != nil {
			m.AttachInjector(inj)
		}
		var sol []float64
		var st core.Stats
		rs := m.Run(func(p *comm.Proc) {
			op := spmv.NewRowBlockCSRGhost(p, A, d)
			bv := darray.New(p, d)
			bv.SetGlobal(func(g int) float64 { return b[g] })
			xv := darray.New(p, d)
			got, err := core.CGPipelined(p, op, bv, xv, core.Options{Tol: 1e-10})
			if err != nil {
				t.Errorf("%v", err)
				return
			}
			full := xv.Gather()
			if p.Rank() == 0 {
				sol, st = full, got
			}
		})
		return sol, st, rs
	}

	inj, err := fault.NewInjector(fault.Plan{Events: []fault.Event{
		{Kind: fault.Straggle, Rank: 1, At: 0, Factor: 8},
	}})
	if err != nil {
		t.Fatal(err)
	}
	healthySol, healthySt, healthyRS := solve(nil)
	stragSol, stragSt, stragRS := solve(inj)

	if !healthySt.Converged || !stragSt.Converged {
		t.Fatalf("convergence: healthy %v, straggled %v", healthySt.Converged, stragSt.Converged)
	}
	if healthySt.Iterations != stragSt.Iterations {
		t.Errorf("iterations diverged under straggler: %d vs %d", healthySt.Iterations, stragSt.Iterations)
	}
	for i := range healthySol {
		if healthySol[i] != stragSol[i] {
			t.Fatalf("x[%d] = %v straggled vs %v healthy — clock skew leaked into the arithmetic",
				i, stragSol[i], healthySol[i])
		}
	}
	if stragRS.ModelTime < healthyRS.ModelTime {
		t.Errorf("straggled makespan %g < healthy %g", stragRS.ModelTime, healthyRS.ModelTime)
	}
	hHealthy, _ := healthyRS.ReduceOverlap()
	hStrag, eStrag := stragRS.ReduceOverlap()
	if hHealthy <= 0 || hStrag <= 0 {
		t.Errorf("hidden time must stay positive: healthy %g, straggled %g", hHealthy, hStrag)
	}
	if eStrag < 0 {
		t.Errorf("straggled exposed time %g < 0", eStrag)
	}
	// The straggler's own rank computes 8x slower, so its overlap
	// window per round is wider and it hides at least as much of the
	// reduction as it does when healthy.
	if stragRS.Procs[1].ReduceHiddenTime < healthyRS.Procs[1].ReduceHiddenTime {
		t.Errorf("straggled rank hides %g, healthy hides %g — a longer window must not hide less",
			stragRS.Procs[1].ReduceHiddenTime, healthyRS.Procs[1].ReduceHiddenTime)
	}
}
