package hpfexec

import (
	"context"
	"testing"

	"hpfcg/internal/comm"
	"hpfcg/internal/core"
	"hpfcg/internal/darray"
	"hpfcg/internal/mfree"
	"hpfcg/internal/sparse"
	"hpfcg/internal/spmv"
)

func stencilSpec() mfree.Spec { return mfree.Spec{Stencil: "5pt", Nx: 10, Ny: 6} }

// TestSolveStencilConverges: the end-to-end matrix-free handle solves
// the stencil system and reports the matrix-free strategy.
func TestSolveStencilConverges(t *testing.T) {
	m := machine(4)
	pr, err := PrepareStencil(m, stencilSpec())
	if err != nil {
		t.Fatal(err)
	}
	if pr.N() != 60 {
		t.Fatalf("N = %d, want 60", pr.N())
	}
	b := sparse.RandomVector(pr.N(), 42)
	out, err := pr.SolveBatch([][]float64{b}, []core.Options{{Tol: 1e-10}})
	if err != nil {
		t.Fatal(err)
	}
	res := out.Results[0]
	if !res.Stats.Converged {
		t.Fatalf("no convergence: %+v", res.Stats)
	}
	if res.Strategy.Scenario != "matrix-free 5pt stencil" {
		t.Errorf("scenario = %q", res.Strategy.Scenario)
	}
	if out.Run.TotalFlops <= 0 {
		t.Errorf("no flops charged: %d", out.Run.TotalFlops)
	}
}

// TestStencilBitIdenticalToAssembledCG: a full CG solve through the
// matrix-free handle equals, bit for bit, a CG solve over the
// assembled CSR ghost executor on the same brick layout — the
// end-to-end form of mfree's per-Apply contract.
func TestStencilBitIdenticalToAssembledCG(t *testing.T) {
	for _, spec := range []mfree.Spec{stencilSpec(), {Stencil: "27pt", Nx: 3, Ny: 3, Nz: 7}} {
		A, err := spec.Assemble()
		if err != nil {
			t.Fatal(err)
		}
		for _, np := range []int{1, 3, 4} {
			m := machine(np)
			pr, err := PrepareStencil(m, spec)
			if err != nil {
				t.Fatal(err)
			}
			b := sparse.RandomVector(pr.N(), 5)
			out, err := pr.SolveBatch([][]float64{b}, []core.Options{{Tol: 1e-10}})
			if err != nil {
				t.Fatal(err)
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
				s, err := core.CG(p, op, bv, xv, core.Options{Tol: 1e-10})
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
				t.Errorf("%s np=%d: %d iterations, assembled %d",
					spec.Stencil, np, out.Results[0].Stats.Iterations, st.Iterations)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s np=%d: x[%d] = %v, assembled %v", spec.Stencil, np, i, got[i], want[i])
				}
			}
		}
	}
}

// TestStencilBatchMultiRHS: each batched solution matches its solo
// solve bit for bit.
func TestStencilBatchMultiRHS(t *testing.T) {
	spec := stencilSpec()
	solo := func(seed int64) []float64 {
		pr, err := PrepareStencil(machine(2), spec)
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
	pr, err := PrepareStencil(machine(2), spec)
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

// TestPrepareStencilRejectsBadSpec: admission-time validation,
// including the slab-vs-np geometry check.
func TestPrepareStencilRejectsBadSpec(t *testing.T) {
	if _, err := PrepareStencil(machine(2), mfree.Spec{Stencil: "9pt", Nx: 4, Ny: 4}); err == nil {
		t.Error("accepted unknown stencil")
	}
	if _, err := PrepareStencil(machine(4), mfree.Spec{Stencil: "5pt", Nx: 2, Ny: 8}); err == nil {
		t.Error("accepted slab thinner than the machine")
	}
}

// TestStencilHandleMemoryBytes: registry sizing is analytic and tiny.
func TestStencilHandleMemoryBytes(t *testing.T) {
	pr, err := PrepareStencil(machine(2), stencilSpec())
	if err != nil {
		t.Fatal(err)
	}
	if pr.MemoryBytes() <= 0 {
		t.Errorf("MemoryBytes = %d", pr.MemoryBytes())
	}
}
