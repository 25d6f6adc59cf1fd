package hpfexec

import (
	"testing"

	"hpfcg/internal/core"
	"hpfcg/internal/mg"
	"hpfcg/internal/sparse"
)

func mgSpec() mg.Spec { return mg.Spec{Nx: 4, Ny: 4, Nz: 4, Levels: 3} }

// TestSolveHPCGConverges: the end-to-end MG handle solves the stencil
// system and reports the V-cycle strategy.
func TestSolveHPCGConverges(t *testing.T) {
	m := machine(4)
	pr, err := PrepareMG(m, mgSpec())
	if err != nil {
		t.Fatal(err)
	}
	n := pr.N()
	if want := 4 * 4 * 4 * 4; n != want {
		t.Fatalf("N = %d, want %d", n, want)
	}
	b := sparse.RandomVector(n, 42)
	out, err := pr.SolveBatch([][]float64{b}, []core.Options{{Tol: 1e-10}})
	if err != nil {
		t.Fatal(err)
	}
	res := out.Results[0]
	if !res.Stats.Converged {
		t.Fatalf("no convergence: %+v", res.Stats)
	}
	if res.Strategy.Scenario != "hpcg 27-pt stencil" {
		t.Errorf("scenario = %q", res.Strategy.Scenario)
	}
	if res.Strategy.Levels != 3 || pr.Strategy().Levels != 3 {
		t.Errorf("levels = %d (handle %d), want 3", res.Strategy.Levels, pr.Strategy().Levels)
	}
	if out.Run.TotalFlops <= 0 {
		t.Errorf("no flops charged: %d", out.Run.TotalFlops)
	}
}

// TestHPCGBatchMultiRHS: a batch of right-hand sides shares one SPMD
// run and each solution matches its own solo solve bit-for-bit.
func TestHPCGBatchMultiRHS(t *testing.T) {
	spec := mgSpec()
	solo := func(seed int64) []float64 {
		m := machine(2)
		pr, err := PrepareMG(m, spec)
		if err != nil {
			t.Fatal(err)
		}
		b := sparse.RandomVector(pr.N(), seed)
		out, err := pr.SolveBatch([][]float64{b}, []core.Options{{Tol: 1e-10}})
		if err != nil {
			t.Fatal(err)
		}
		return out.Results[0].X
	}
	m := machine(2)
	pr, err := PrepareMG(m, spec)
	if err != nil {
		t.Fatal(err)
	}
	rhs := [][]float64{
		sparse.RandomVector(pr.N(), 1),
		sparse.RandomVector(pr.N(), 2),
		sparse.RandomVector(pr.N(), 3),
	}
	out, err := pr.SolveBatch(rhs, []core.Options{{Tol: 1e-10}})
	if err != nil {
		t.Fatal(err)
	}
	for k, seed := range []int64{1, 2, 3} {
		want := solo(seed)
		got := out.Results[k].X
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("rhs %d: x[%d] = %v, solo %v", k, i, got[i], want[i])
			}
		}
	}
}

// TestPrepareMGRejectsBadSpec: admission-time validation, not a
// worker panic.
func TestPrepareMGRejectsBadSpec(t *testing.T) {
	if _, err := PrepareMG(machine(2), mg.Spec{Nx: 0, Ny: 4, Nz: 4}); err == nil {
		t.Error("accepted zero dimension")
	}
	if _, err := PrepareMG(machine(2), mg.Spec{Nx: 4, Ny: 4, Nz: 4, Levels: mg.MaxLevels + 1}); err == nil {
		t.Error("accepted absurd level count")
	}
}

// TestMGHandleMemoryBytes: registry sizing works without a matrix.
func TestMGHandleMemoryBytes(t *testing.T) {
	pr, err := PrepareMG(machine(2), mgSpec())
	if err != nil {
		t.Fatal(err)
	}
	if pr.MemoryBytes() <= 0 {
		t.Errorf("MemoryBytes = %d", pr.MemoryBytes())
	}
}
