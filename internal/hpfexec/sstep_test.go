package hpfexec

import (
	"context"
	"math"
	"strings"
	"testing"

	"hpfcg/internal/comm"
	"hpfcg/internal/core"
	"hpfcg/internal/darray"
	"hpfcg/internal/dist"
	"hpfcg/internal/sparse"
	"hpfcg/internal/spmv"
)

// s-step CG at s = 1 is plain CG: SStep(1) is the Plain variant, and
// a plain handle's solve equals core.CGSStep at s = 1 (which delegates
// to CG) over the same halo executor in every bit.
func TestSolveCGSStepS1MatchesSolveCG(t *testing.T) {
	if SStep(1) != Plain() {
		t.Fatalf("SStep(1) = %v, want plain", SStep(1))
	}
	A := sparse.Laplace2D(12, 12)
	b := sparse.RandomVector(A.NRows, 4)
	np := 4
	plan := bindPlan(t, csrPlan, A.NRows, A.NNZ(), np)
	opt := core.Options{Tol: 1e-10}
	ref, err := SolveCG(machine(np), plan, A, b, opt)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Strategy.Variant != Plain() || ref.Strategy.Variant.Factor() != 1 || ref.Strategy.Mode != "local(ghost)" {
		t.Fatalf("plain run reported strategy %+v, want plain at factor 1 on the halo executor", ref.Strategy)
	}
	var x []float64
	var st core.Stats
	if _, err := machine(np).RunContext(context.Background(), func(p *comm.Proc) {
		d := dist.NewBlock(A.NRows, np)
		bv, xv := darray.New(p, d), darray.New(p, d)
		bv.SetGlobal(func(g int) float64 { return b[g] })
		s, err := core.CGSStep(p, spmv.NewRowBlockCSRGhost(p, A, d), bv, xv, opt, 1)
		if err != nil {
			t.Error(err)
			return
		}
		if full := xv.Gather(); p.Rank() == 0 {
			x, st = full, s
		}
	}); err != nil {
		t.Fatal(err)
	}
	for i := range ref.X {
		if x[i] != ref.X[i] {
			t.Fatalf("x[%d] differs: %v vs %v", i, x[i], ref.X[i])
		}
	}
	if st.Iterations != ref.Stats.Iterations {
		t.Fatalf("iterations %d vs %d", st.Iterations, ref.Stats.Iterations)
	}
}

// Fixed s >= 2 must cut the allreduce rounds to ~1/s per iteration on
// both the plain-BLOCK and the partitioner-balanced layouts (the
// powers closure runs on irregular contiguous distributions too).
func TestSolveCGSStepReducesRounds(t *testing.T) {
	A := sparse.Banded(256, 4)
	b := sparse.RandomVector(A.NRows, 5)
	np := 4
	for _, layout := range []string{"csr", "balanced"} {
		plan, err := PlanForLayout(layout, np, A.NRows, A.NNZ())
		if err != nil {
			t.Fatal(err)
		}
		const s = 4
		res, err := solveVariant(context.Background(), machine(np), plan, A, b, core.Options{Tol: 1e-10}, SStep(s))
		if err != nil {
			t.Fatal(err)
		}
		st := res.Stats
		if !st.Converged {
			t.Fatalf("%s: did not converge", layout)
		}
		if rr := relResidual(A, res.X, b); rr > 1e-8 {
			t.Fatalf("%s: relative residual %g", layout, rr)
		}
		if res.Strategy.Variant != SStep(s) {
			t.Fatalf("%s: strategy reports %v, want %v", layout, res.Strategy.Variant, SStep(s))
		}
		if st.Replacements != 0 {
			t.Fatalf("%s: stability guard tripped (%d replacements) on a well-conditioned band", layout, st.Replacements)
		}
		want := 2 + (st.Iterations+s-1)/s
		if st.Reductions != want {
			t.Fatalf("%s: %d reductions for %d iterations, want %d", layout, st.Reductions, st.Iterations, want)
		}
		if !strings.HasSuffix(res.Strategy.String(), " / sstep:4") {
			t.Fatalf("%s: strategy string %q lacks the s-step marker", layout, res.Strategy)
		}
	}
}

// The CSC scenarios have no matrix-powers form: a fixed s >= 2 is a
// plan error, and Auto, which the frontier does not price there,
// degrades to plain CG.
func TestSolveCGSStepCSCFallsBackToPlain(t *testing.T) {
	A := sparse.Laplace2D(8, 8)
	b := sparse.RandomVector(A.NRows, 6)
	np := 2
	plan := bindPlan(t, cscPlanMerge, A.NRows, A.NNZ(), np)
	if _, err := solveVariant(context.Background(), machine(np), plan, A, b, core.Options{}, SStep(4)); err == nil {
		t.Fatal("fixed s=4 on a CSC plan did not error")
	}
	res, err := solveVariant(context.Background(), machine(np), plan, A, b, core.Options{Tol: 1e-10}, Auto())
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy.Variant != Plain() {
		t.Fatalf("auto on CSC resolved to %v, want plain", res.Strategy.Variant)
	}
	if _, err := solveVariant(context.Background(), machine(np), plan, A, b, core.Options{}, SStep(MaxSStep+1)); err == nil {
		t.Fatal("out-of-range s did not error")
	}
}

// The cost model's structural properties: rounds per iteration are 2
// for plain CG and 1/s for the blocked recovery; on one processor
// (where allreduces are free) the flop overhead makes s=1 optimal;
// at np >= 4 with the default machine constants the latency term
// dominates and the selector must find a win at some s > 1 whose
// modeled time beats plain CG.
func TestSStepCostModelSelection(t *testing.T) {
	A := sparse.Laplace2D(12, 12)
	models1 := blocking(csrFrontier(t, machine(1), A))
	s1 := Cheapest(models1).Variant.Factor()
	if s1 != 1 {
		t.Fatalf("np=1 chose s=%d, want 1 (allreduces are free, overlap flops are not)", s1)
	}
	for _, mod := range models1 {
		wantRounds := 2.0
		if mod.Variant.Factor() > 1 {
			wantRounds = 1 / float64(mod.Variant.Factor())
		}
		if math.Abs(mod.RoundsPerIter-wantRounds) > 1e-12 {
			t.Fatalf("s=%d models %g rounds/iter, want %g", mod.Variant.Factor(), mod.RoundsPerIter, wantRounds)
		}
	}

	np := 4
	models4 := blocking(csrFrontier(t, machine(np), A))
	s4 := Cheapest(models4).Variant.Factor()
	if s4 <= 1 {
		t.Fatalf("np=%d chose s=%d; latency-dominated regime should pick s>1", np, s4)
	}
	var t1, tBest float64
	for _, mod := range models4 {
		if mod.Variant.Factor() == 1 {
			t1 = mod.TimePerIter
		}
		if mod.Variant.Factor() == s4 {
			tBest = mod.TimePerIter
		}
	}
	// The chosen s must be the frontier argmin (ties to smaller s).
	for _, mod := range models4 {
		if mod.TimePerIter < tBest || (mod.TimePerIter == tBest && mod.Variant.Factor() < s4) {
			t.Fatalf("selector picked s=%d (%.3g) but s=%d models %.3g", s4, tBest, mod.Variant.Factor(), mod.TimePerIter)
		}
	}
	if tBest >= t1 {
		t.Fatalf("chosen s=%d models %.3g per iter, no better than plain CG's %.3g", s4, tBest, t1)
	}

	// Widening monotonicity of the priced work: deeper closures sweep
	// more entries and fetch more ghosts on a multi-rank distribution.
	if models4[len(models4)-1].BlockEntries <= models4[0].BlockEntries ||
		models4[len(models4)-1].Ghosts <= models4[0].Ghosts {
		t.Fatalf("model frontier not monotone in closure size: %+v", models4)
	}
}

// blocking is the frontier's blocking rows: every row but the last,
// pipelined one.
func blocking(rows []FrontierRow) []FrontierRow { return rows[:len(rows)-1] }

// Satellite: a registry hit on an s-step Prepared must reuse the
// cached matrix-powers operator — widened inspector schedule included —
// with zero modeled setup and bit-identical solutions.
func TestRegistryWarmSStepHit(t *testing.T) {
	A := sparse.Laplace2D(12, 12)
	n := A.NRows
	np := 4
	plan, err := PlanForLayout("csr", np, n, A.NNZ())
	if err != nil {
		t.Fatal(err)
	}
	const s = 4
	pr, err := Prepare(machine(np), plan, A)
	if err != nil {
		t.Fatal(err)
	}
	if err := pr.WithVariant(SStep(s)); err != nil {
		t.Fatal(err)
	}
	if pr.Strategy().Variant != SStep(s) {
		t.Fatalf("prepared handle reports %v, want %v", pr.Strategy().Variant, SStep(s))
	}
	reg := NewRegistry(0)
	if _, ok := reg.Put("sstep-plan", pr); !ok {
		t.Fatal("put failed")
	}

	rhs := [][]float64{sparse.RandomVector(n, 9), sparse.RandomVector(n, 10)}
	opts := []core.Options{{Tol: 1e-10}}
	e, ok := reg.Get("sstep-plan")
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
		t.Fatalf("cold s-step setup model time %g, want > 0 (widened inspector exchange)", cold.SetupModelTime)
	}

	e, ok = reg.Get("sstep-plan")
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
		t.Fatalf("warm s-step setup model time %g, want exactly 0", warm.SetupModelTime)
	}
	for k := range rhs {
		if got, want := warm.Results[k].Strategy.Variant.Factor(), s; got != want {
			t.Fatalf("rhs %d: warm strategy reports s=%d, want %d", k, got, want)
		}
		st := warm.Results[k].Stats
		if wantRed := 2 + (st.Iterations+s-1)/s; st.Reductions != wantRed {
			t.Fatalf("rhs %d: %d reductions for %d iterations, want %d", k, st.Reductions, st.Iterations, wantRed)
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
	if st := reg.Stats(); st.Hits != 2 {
		t.Fatalf("registry hits %d, want 2", st.Hits)
	}
}
