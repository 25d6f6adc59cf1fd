package bench

import (
	"fmt"
	"slices"

	"hpfcg/internal/core"
	"hpfcg/internal/hpfexec"
	"hpfcg/internal/mfree"
	"hpfcg/internal/report"
	"hpfcg/internal/sparse"
)

// E25 — matrix-free stencil CG vs the assembled CSR executor. Both arms
// solve the identical system on the identical brick layout: the
// assembled arm pays generator assembly (host work the model does not
// charge) plus the inspector ghost exchange (modeled setup) before it
// can iterate; the matrix-free arm derives its halo schedule from brick
// coordinates and starts iterating at modeled clock zero. The claims are enforced, not
// observed — the runner errors unless every matrix-free solution is
// bit-identical to its assembled counterpart, matrix-free modeled setup
// is exactly zero cold AND warm, assembled cold setup is nonzero
// beyond one rank, and the matrix-free total never exceeds the
// assembled total. Table 2 pins the warm-registry semantics: a second
// batch from the same Prepared handle repeats the answer bitwise with
// setup still exactly zero.
func E25(cfg Config) ([]*report.Table, error) {
	specs := []mfree.Spec{
		{Stencil: "5pt", Nx: 32, Ny: 24},
		{Stencil: "5pt", Nx: 64, Ny: 48},
		{Stencil: "27pt", Nx: 10, Ny: 10, Nz: 16},
	}
	nps := []int{1, 2, 4, 8}
	if cfg.Quick {
		specs = []mfree.Spec{
			{Stencil: "5pt", Nx: 16, Ny: 10},
			{Stencil: "27pt", Nx: 6, Ny: 6, Nz: 8},
		}
		nps = []int{1, 2, 4}
	}
	opts := []core.Options{{Tol: 1e-8}}

	// assembled runs CG over the generator-assembled CSR with the ghost
	// executor on the SAME brick layout the matrix-free operator uses,
	// so the two arms differ only in where the operator comes from. Its
	// setup is the modeled clock once the executor finished its
	// inspector exchange.
	assembled := func(np int, spec mfree.Spec, b []float64) (solved, error) {
		A, err := spec.Assemble()
		if err != nil {
			return solved{}, err
		}
		brick, err := spec.Brick(np)
		if err != nil {
			return solved{}, err
		}
		return solveOn(cfg.machine(np), brick.VectorDist(), b, true, ghostOp(A), cgSolve(opts[0]))
	}

	t1 := &report.Table{
		ID:    "E25",
		Title: "Matrix-free stencil CG vs assembled CSR on the same brick layout (tol 1e-8)",
		Header: []string{"np", "stencil", "n", "it", "asm_setup_s", "asm_total_s",
			"mf_total_s", "mem_ratio", "bits"},
		Notes: []string{
			"Both arms solve the identical system with the identical z-slab layout;",
			"asm_setup_s is the assembled arm's modeled clock after the inspector ghost",
			"exchange (the matrix-free arm's equivalent is exactly 0, cold and warm,",
			"enforced). bits = solutions bitwise identical (enforced, with equal",
			"iteration counts). mf_total_s <= asm_total_s is enforced.",
			"mem_ratio = assembled CSR resident bytes / matrix-free handle bytes.",
		},
	}
	for _, spec := range specs {
		for _, np := range nps {
			if _, err := spec.WithDefaults().Brick(np); err != nil {
				continue // slab thinner than the machine: size not runnable at this np
			}
			pr, err := hpfexec.PrepareStencil(cfg.machine(np), spec)
			if err != nil {
				return nil, fmt.Errorf("E25 np=%d %s: %w", np, spec.Stencil, err)
			}
			b := sparse.RandomVector(pr.N(), cfg.Seed)

			out, err := pr.SolveBatch([][]float64{b}, opts)
			if err != nil {
				return nil, fmt.Errorf("E25 np=%d %s mfree: %w", np, spec.Stencil, err)
			}
			if out.SetupModelTime != 0 {
				return nil, fmt.Errorf("E25 np=%d %s: cold matrix-free setup %g, want exactly 0",
					np, spec.Stencil, out.SetupModelTime)
			}
			mfRes := out.Results[0]
			if !mfRes.Stats.Converged {
				return nil, fmt.Errorf("E25 np=%d %s: matrix-free CG did not converge", np, spec.Stencil)
			}

			asm, err := assembled(np, spec, b)
			if err != nil {
				return nil, fmt.Errorf("E25 np=%d %s assembled: %w", np, spec.Stencil, err)
			}
			ast, ars, asmSetup := asm.st, asm.run, asm.setup
			if np > 1 && asmSetup <= 0 {
				return nil, fmt.Errorf("E25 np=%d %s: assembled setup %g, want > 0 (inspector not charged?)",
					np, spec.Stencil, asmSetup)
			}
			if mfRes.Stats.Iterations != ast.Iterations {
				return nil, fmt.Errorf("E25 np=%d %s: %d matrix-free iterations vs %d assembled",
					np, spec.Stencil, mfRes.Stats.Iterations, ast.Iterations)
			}
			if !slices.Equal(mfRes.X, asm.x) {
				return nil, fmt.Errorf("E25 np=%d %s: matrix-free solution not bit-identical to assembled",
					np, spec.Stencil)
			}
			if out.Run.ModelTime > ars.ModelTime {
				return nil, fmt.Errorf("E25 np=%d %s: matrix-free total %g > assembled %g",
					np, spec.Stencil, out.Run.ModelTime, ars.ModelTime)
			}

			s := spec.WithDefaults()
			csrBytes := int64(np) * (int64(s.NNZ())*16 + int64(s.N()+1)*8)
			t1.AddRowf(np, s.Stencil, s.N(), ast.Iterations, asmSetup, ars.ModelTime,
				out.Run.ModelTime,
				fmt.Sprintf("%.0fx", float64(csrBytes)/float64(pr.MemoryBytes())), true)
		}
	}

	// Table 2: warm-registry semantics. A second batch from the same
	// Prepared handle — the serving tier's plan-cache hit — must repeat
	// the cold answer bitwise with setup still exactly zero; there was
	// never an inspector exchange to amortize.
	t2 := &report.Table{
		ID:     "E25",
		Title:  "Matrix-free warm registry: cold vs warm batches from one handle",
		Header: []string{"np", "stencil", "cold_setup_s", "warm_setup_s", "bit_identical", "model_t_equal"},
		Notes: []string{
			"Unlike assembled plans (warm skips the inspector) and MG hierarchies (warm",
			"skips level setup), the matrix-free handle has nothing to skip: setup is",
			"exactly 0 in both columns, enforced. Warmth buys machine reuse only, and",
			"answers stay bitwise stable across batch windows.",
		},
	}
	detNPs := []int{1, 4}
	if cfg.Quick {
		detNPs = []int{1, 2}
	}
	for _, np := range detNPs {
		spec := mfree.Spec{Stencil: "5pt", Nx: 16, Ny: 10}
		pr, err := hpfexec.PrepareStencil(cfg.machine(np), spec)
		if err != nil {
			return nil, err
		}
		b := sparse.RandomVector(pr.N(), cfg.Seed)
		cold, err := pr.SolveBatch([][]float64{b}, opts)
		if err != nil {
			return nil, err
		}
		warm, err := pr.SolveBatch([][]float64{b}, opts)
		if err != nil {
			return nil, err
		}
		if cold.SetupModelTime != 0 || warm.SetupModelTime != 0 {
			return nil, fmt.Errorf("E25 np=%d: setup cold %g warm %g, want exactly 0/0",
				np, cold.SetupModelTime, warm.SetupModelTime)
		}
		identical := slices.Equal(cold.Results[0].X, warm.Results[0].X)
		tEqual := cold.SolveModelTime[0] == warm.SolveModelTime[0]
		if !identical || !tEqual {
			return nil, fmt.Errorf("E25 np=%d: warm batch diverged (bits %v, clock %v)", np, identical, tEqual)
		}
		t2.AddRowf(np, "5pt", cold.SetupModelTime, warm.SetupModelTime, identical, tEqual)
	}
	return []*report.Table{t1, t2}, nil
}
