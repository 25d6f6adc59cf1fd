package bench

import (
	"fmt"

	"hpfcg/internal/comm"
	"hpfcg/internal/core"
	"hpfcg/internal/darray"
	"hpfcg/internal/dist"
	"hpfcg/internal/report"
	"hpfcg/internal/sparse"
	"hpfcg/internal/spmv"
)

// E19 — the communication-avoiding CG hot path. Its one table pits the three
// CG formulations against each other across processor counts and
// problem sizes: the literal Figure 2 transcription (three allreduce
// rounds per iteration, fresh vectors every call),
// the fused production CG (batched setup norms, fused mat-vec dot,
// rho reuse — two rounds, bit-identical iterates), and pipelined CG
// (one nonblocking round overlapped with the mat-vec, a different
// floating-point trajectory). Each variant is timed on the
// modeled machine (t_s·rounds is what shrinks) over repeated solves
// from a shared workspace.
func E19(cfg Config) ([]*report.Table, error) {
	type variant struct {
		name  string
		reuse bool
		solve func(p *comm.Proc, A spmv.Operator, b, x *darray.Vector, opt core.Options) (core.Stats, error)
	}
	variants := []variant{
		{"unfused_3round", false, core.CGUnfused},
		{"fused_2round", true, core.CG},
		{"pipe_1round", true, core.CGPipelined},
	}
	repeats := cfg.pick(8, 3)
	nps := []int{2, 4, 8, 16}
	sizes := []int{cfg.pick(1024, 256), cfg.pick(4096, 576)}
	if cfg.Quick {
		nps = []int{2, 4}
	}

	t1 := &report.Table{
		ID:     "E19",
		Title:  fmt.Sprintf("CG reduction fusion: rounds and model time (%d solves each)", repeats),
		Header: []string{"variant", "np", "n", "iters", "rounds/it", "model_t_s"},
		Notes: []string{
			"rounds/it = allreduce merge rounds per iteration (setup rounds excluded);",
			"model_t_s = simulated makespan per solve, over repeated solves reusing one",
			"workspace (unfused allocates per call).",
		},
	}
	for _, n := range sizes {
		A := sparse.Banded(n, 4)
		b := sparse.RandomVector(n, cfg.Seed)
		for _, np := range nps {
			d := dist.NewBlock(n, np)
			for _, v := range variants {
				r, err := solveOn(cfg.machine(np), d, b, false, ghostOp(A),
					func(p *comm.Proc, op spmv.Operator, bv, xv *darray.Vector) (core.Stats, error) {
						opt := core.Options{Tol: 1e-8}
						if v.reuse {
							opt.Work = core.NewWorkspace()
						}
						var st core.Stats
						for rep := 0; rep < repeats; rep++ {
							xv.Fill(0)
							s, err := v.solve(p, op, bv, xv, opt)
							if err != nil {
								return s, err
							}
							st = s
						}
						return st, nil
					})
				if err != nil {
					return nil, fmt.Errorf("%s np=%d n=%d: %w", v.name, np, n, err)
				}
				st, rs := r.st, r.run
				if !st.Converged {
					return nil, fmt.Errorf("%s np=%d n=%d: did not converge: %v", v.name, np, n, st)
				}
				// Setup rounds: 3 for the unfused baseline (three separate
				// merges before the loop), 1 for both fused variants (one
				// batched {r·r, b·b} round).
				setup := 1
				if !v.reuse {
					setup = 3
				}
				perIt := float64(st.Reductions-setup) / float64(st.Iterations)
				t1.AddRowf(v.name, np, n, st.Iterations, perIt, rs.ModelTime/float64(repeats))
			}
		}
	}
	return []*report.Table{t1}, nil
}
