package hpfexec

import (
	"context"
	"strings"
	"testing"

	"hpfcg/internal/comm"
	"hpfcg/internal/core"
	"hpfcg/internal/darray"
	"hpfcg/internal/mfree"
	"hpfcg/internal/sparse"
	"hpfcg/internal/spmv"
	"hpfcg/internal/topology"
)

// TestSolveCGPipelinedConverges: the directive-driven pipelined
// variant converges on the row-block CSR scenario and on the
// partitioner-balanced layout, reports the pipelined strategy, and —
// on a clean solve — pays exactly one allreduce round per iteration
// plus the setup/detection/confirmation rounds.
func TestSolveCGPipelinedConverges(t *testing.T) {
	A := sparse.Laplace2D(12, 12)
	b := sparse.RandomVector(A.NRows, 4)
	np := 4
	for _, layout := range []string{"csr", "balanced"} {
		plan, err := PlanForLayout(layout, np, A.NRows, A.NNZ())
		if err != nil {
			t.Fatal(err)
		}
		res, err := solveVariant(context.Background(), machine(np), plan, A, b, core.Options{Tol: 1e-10}, Pipelined())
		if err != nil {
			t.Fatal(err)
		}
		st := res.Stats
		if !st.Converged {
			t.Fatalf("%s: did not converge: %+v", layout, st)
		}
		if rr := relResidual(A, res.X, b); rr > 1e-8 {
			t.Fatalf("%s: relative residual %g", layout, rr)
		}
		if res.Strategy.Variant != Pipelined() {
			t.Fatalf("%s: pipelined run reported strategy %v", layout, res.Strategy)
		}
		if !strings.Contains(res.Strategy.String(), "pipelined") {
			t.Fatalf("%s: strategy string %q lacks the pipelined marker", layout, res.Strategy)
		}
		if st.Replacements != 0 {
			t.Fatalf("%s: drift guard tripped (%d replacements) on a Laplacian", layout, st.Replacements)
		}
		if want := st.Iterations + 3; st.Reductions != want {
			t.Fatalf("%s: %d reductions for %d iterations, want %d (one hidden round per iteration)",
				layout, st.Reductions, st.Iterations, want)
		}
	}
}

// TestPipelinedRejectsIncompatiblePlans: the overlap recurrence has no
// CSC form — a plan error at prepare time, not a silent fallback — and
// it does not compose with s-step blocking: no variant text names both.
func TestPipelinedRejectsIncompatiblePlans(t *testing.T) {
	A := sparse.Laplace2D(8, 8)
	b := sparse.RandomVector(A.NRows, 6)
	np := 2
	plan := bindPlan(t, cscPlanMerge, A.NRows, A.NNZ(), np)
	if _, err := solveVariant(context.Background(), machine(np), plan, A, b, core.Options{}, Pipelined()); err == nil {
		t.Fatal("pipelined CG on a CSC plan did not error")
	}
	for _, arg := range []string{"pipelined:sstep:4", "sstep:4,pipelined", "pipelined+sstep:4"} {
		if v, err := ParseVariant(arg); err == nil {
			t.Fatalf("ParseVariant(%q) = %v, want no variant that is pipelined and blocked", arg, v)
		}
	}
}

// TestRegistryWarmPipelinedHit: a registry hit on a pipelined Prepared
// reuses the cached ghost operators with zero modeled setup and
// bit-identical solutions — the pipelined path inherits the Prepared
// lifecycle unchanged.
func TestRegistryWarmPipelinedHit(t *testing.T) {
	A := sparse.Laplace2D(12, 12)
	n := A.NRows
	np := 4
	plan, err := PlanForLayout("csr", np, n, A.NNZ())
	if err != nil {
		t.Fatal(err)
	}
	pr, err := Prepare(machine(np), plan, A)
	if err != nil {
		t.Fatal(err)
	}
	if err := pr.WithVariant(Pipelined()); err != nil {
		t.Fatal(err)
	}
	if pr.Strategy().Variant != Pipelined() {
		t.Fatal("prepared handle does not report pipelined")
	}
	reg := NewRegistry(0)
	if _, ok := reg.Put("pipe-plan", pr); !ok {
		t.Fatal("put failed")
	}

	rhs := [][]float64{sparse.RandomVector(n, 9), sparse.RandomVector(n, 10)}
	opts := []core.Options{{Tol: 1e-10}}
	e, ok := reg.Get("pipe-plan")
	if !ok {
		t.Fatal("registry miss on the key just put")
	}
	e.Lock()
	cold, err := e.Prepared().SolveBatch(rhs, opts)
	e.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if cold.SetupModelTime <= 0 {
		t.Fatalf("cold pipelined setup model time %g, want > 0 (inspector exchange)", cold.SetupModelTime)
	}

	e, ok = reg.Get("pipe-plan")
	if !ok {
		t.Fatal("registry miss on warm lookup")
	}
	if !e.Prepared().Warm() {
		t.Fatal("entry not warm after first batch")
	}
	e.Lock()
	warm, err := e.Prepared().SolveBatch(rhs, opts)
	e.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if warm.SetupModelTime != 0 {
		t.Fatalf("warm pipelined setup model time %g, want exactly 0", warm.SetupModelTime)
	}
	for k := range rhs {
		if warm.Results[k].Strategy.Variant != Pipelined() {
			t.Fatalf("rhs %d: warm strategy not pipelined", k)
		}
		cx, wx := cold.Results[k].X, warm.Results[k].X
		for i := range cx {
			if cx[i] != wx[i] {
				t.Fatalf("rhs %d: warm x[%d] differs: %v vs %v", k, i, wx[i], cx[i])
			}
		}
		if rr := relResidual(A, wx, rhs[k]); rr > 1e-8 {
			t.Fatalf("rhs %d: relative residual %g", k, rr)
		}
	}
}

// TestVariantFrontier pins the three-regime frontier the §4 pricing
// predicts on a bandwidth-9 operator at np=4: at near-zero latency the
// plain recurrence's smaller flop count wins; at the default machine
// constants the pipelined variant wins by hiding its single round
// behind the mat-vec; at 125x latency the round cannot hide and the
// s-step amortization (1/s rounds) takes over.
func TestVariantFrontier(t *testing.T) {
	A := sparse.Banded(1024, 8)
	np := 4
	for _, tc := range []struct {
		scale float64
		want  string
	}{
		{0.05, "plain"},
		{1, "pipelined"},
		{125, "sstep:8"},
	} {
		c := topology.DefaultCostParams()
		c.TStartup *= tc.scale
		c.THop *= tc.scale
		m := comm.NewMachine(np, topology.Hypercube{}, c)
		models := csrFrontier(t, m, A)
		best := Cheapest(models).Variant.String()
		if best != tc.want {
			t.Fatalf("scale %g: chose %q, want %q (%+v)", tc.scale, best, tc.want, models)
		}
		// The winner must be the frontier argmin, ties to the earlier
		// (simpler) variant.
		var tBest float64
		var iBest int
		for i, mod := range models {
			if mod.Variant.String() == best {
				tBest, iBest = mod.TimePerIter, i
			}
		}
		for i, mod := range models {
			if mod.TimePerIter < tBest || (mod.TimePerIter == tBest && i < iBest) {
				t.Fatalf("scale %g: chose %q (%.3g) but %q models %.3g", tc.scale, best, tBest, mod.Variant.String(), mod.TimePerIter)
			}
		}

		pipe := models[len(models)-1]
		if pipe.Variant != Pipelined() || pipe.RoundsPerIter != 1 {
			t.Fatalf("scale %g: last row %+v, want pipelined at 1 round/iter", tc.scale, pipe)
		}
		reduce := topology.AllreduceTime(m.Topology(), c, np, 2)
		window := haloTime(c, pipe.Ghosts, 1) + c.TFlop*2*float64(pipe.BlockEntries)
		wantHidden := reduce
		if window < wantHidden {
			wantHidden = window
		}
		if pipe.HiddenTime != wantHidden {
			t.Fatalf("scale %g: hidden %g != min(reduce %g, window %g)", tc.scale, pipe.HiddenTime, reduce, window)
		}
	}
}

// TestStencilPipelinedBitIdenticalToAssembled: the pipelined solver on
// a matrix-free stencil handle equals, bit for bit, core.CGPipelined
// over the assembled CSR ghost executor on the same brick layout — the
// overlap window prices differently, the arithmetic does not.
func TestStencilPipelinedBitIdenticalToAssembled(t *testing.T) {
	spec := mfree.Spec{Stencil: "5pt", Nx: 10, Ny: 6}
	A, err := spec.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	for _, np := range []int{1, 4} {
		m := machine(np)
		pr, err := PrepareStencil(m, spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := pr.WithVariant(Pipelined()); err != nil {
			t.Fatal(err)
		}
		if pr.Strategy().Variant != Pipelined() {
			t.Fatal("stencil handle does not report pipelined")
		}
		b := sparse.RandomVector(pr.N(), 5)
		out, err := pr.SolveBatch([][]float64{b}, []core.Options{{Tol: 1e-10}})
		if err != nil {
			t.Fatal(err)
		}
		if out.SetupModelTime != 0 {
			t.Fatalf("np=%d: stencil setup time %g, want exactly 0", np, out.SetupModelTime)
		}
		if out.Results[0].Strategy.Variant != Pipelined() {
			t.Fatalf("np=%d: strategy not pipelined", np)
		}

		var want []float64
		var st core.Stats
		if _, err := machine(np).RunContext(context.Background(), func(p *comm.Proc) {
			brick, err := spec.Brick(np)
			if err != nil {
				t.Error(err)
				return
			}
			op := spmv.NewRowBlockCSRGhost(p, A, brick.VectorDist())
			bv := darray.New(p, brick.VectorDist())
			xv := darray.New(p, brick.VectorDist())
			bv.SetGlobal(func(g int) float64 { return b[g] })
			s, err := core.CGPipelined(p, op, bv, xv, core.Options{Tol: 1e-10})
			if err != nil {
				t.Error(err)
				return
			}
			full := xv.Gather()
			if p.Rank() == 0 {
				want = full
				st = s
			}
		}); err != nil {
			t.Fatal(err)
		}

		got := out.Results[0].X
		if out.Results[0].Stats.Iterations != st.Iterations {
			t.Errorf("np=%d: %d iterations, assembled %d", np, out.Results[0].Stats.Iterations, st.Iterations)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("np=%d: x[%d] = %v, assembled %v", np, i, got[i], want[i])
			}
		}
	}
}
