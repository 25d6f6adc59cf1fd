package bench

import (
	"fmt"
	"math"

	"hpfcg/internal/comm"
	"hpfcg/internal/core"
	"hpfcg/internal/darray"
	"hpfcg/internal/dist"
	"hpfcg/internal/hpfexec"
	"hpfcg/internal/report"
	"hpfcg/internal/sparse"
	"hpfcg/internal/spmv"
)

// E23 — communication-avoiding s-step CG. Table 1 is the headline
// rounds claim: at blocking factor s the solver recovers s iterations'
// scalars from one batched Gram allreduce, so merge rounds per
// iteration fall from plain CG's 2 to 1/s while the matrix-powers
// kernel keeps the halo traffic at one (widened) exchange per block;
// the simulated makespan confirms the cost model's prediction that the
// trade wins once the t_s·log NP latency term dominates (np >= 4).
// Table 2 is the stability map across the E19 matrix suite plus an
// ill-conditioned diagonal: where the monomial basis degrades, the
// residual-replacement guard trips (repl > 0) and the solve finishes
// at s=1 — degraded performance, never a wrong answer. Table 3 shows
// the per-np cost-model frontier's blocking rows and that their argmin
// (the blocking factor the model picks) is confirmed by the simulated
// machine.
func E23(cfg Config) ([]*report.Table, error) {
	factors := hpfexec.SStepCandidates

	// One s-step solve on a fresh machine, its solution gathered.
	solve := func(np int, A *sparse.CSR, b []float64, s int, opt core.Options) (solved, error) {
		powers := func(p *comm.Proc, d dist.Contiguous) (spmv.Operator, error) {
			return spmv.NewRowBlockCSRPowers(p, A, d, s), nil
		}
		return solveOn(cfg.machine(np), dist.NewBlock(A.NRows, np), b, true, powers,
			func(p *comm.Proc, op spmv.Operator, bv, xv *darray.Vector) (core.Stats, error) {
				o := opt
				o.Work = core.NewWorkspace()
				return core.CGSStep(p, op, bv, xv, o, s)
			})
	}

	// roundsPerIter strips the setup/confirm rounds: plain CG pays one
	// batched setup merge then 2 rounds per iteration; CGSStep pays a
	// setup and a confirm round around ceil(iters/s) Gram rounds.
	roundsPerIter := func(st core.Stats, s int) float64 {
		setup := 1
		if s >= 2 {
			setup = 2
		}
		return float64(st.Reductions-setup) / float64(st.Iterations)
	}

	n := cfg.pick(1024, 256)
	A := sparse.Banded(n, 4)
	b := sparse.RandomVector(n, cfg.Seed)
	nps := []int{2, 4, 8, 16}
	if cfg.Quick {
		nps = []int{2, 4}
	}

	t1 := &report.Table{
		ID:     "E23",
		Title:  fmt.Sprintf("s-step CG: allreduce rounds and modeled time (banded n=%d)", n),
		Header: []string{"np", "s", "iters", "rounds/it", "repl", "model_t_s", "pred_t/it", "speedup_vs_s1"},
		Notes: []string{
			"rounds/it = merge rounds per iteration, setup/confirm excluded: 2 for plain",
			"CG, 1/s for the batched Gram recovery. pred_t/it = the cost model's per-",
			"iteration price (hpfexec.Frontier); speedup_vs_s1 = simulated makespan",
			"ratio against the s=1 run on the same np. repl > 0 would mean the",
			"stability guard fell back to plain CG (it must stay 0 on this band).",
		},
	}
	// prices is the cost-model frontier's blocking rows at np (every
	// row but the last, pipelined one), and each one's per-iteration
	// price by factor (s = 1 is the plain row).
	prices := func(np int) ([]hpfexec.FrontierRow, map[int]float64, error) {
		rows, err := frontierOf(cfg.machine(np), fmt.Sprintf("banded:%d:4", n))
		if err != nil {
			return nil, nil, err
		}
		rows = rows[:len(rows)-1]
		perIter := map[int]float64{}
		for _, row := range rows {
			perIter[row.Variant.Factor()] = row.TimePerIter
		}
		return rows, perIter, nil
	}
	for _, np := range nps {
		_, pred, err := prices(np)
		if err != nil {
			return nil, fmt.Errorf("E23 np=%d: %w", np, err)
		}
		var baseT float64 // the s = 1 run's makespan, the first factor
		for _, s := range factors {
			r, err := solve(np, A, b, s, core.Options{Tol: 1e-8})
			if err != nil {
				return nil, fmt.Errorf("E23 np=%d s=%d: %w", np, s, err)
			}
			st, rs := r.st, r.run
			if !st.Converged {
				return nil, fmt.Errorf("E23 np=%d s=%d: did not converge: %v", np, s, st)
			}
			if s == 1 {
				baseT = rs.ModelTime
			}
			t1.AddRowf(np, s, st.Iterations, roundsPerIter(st, s), st.Replacements,
				rs.ModelTime, pred[s], baseT/rs.ModelTime)
		}
	}

	// Table 2: the stability map. The diag matrix spans five decades of
	// eigenvalues — enough that the monomial basis at s=8 drifts past
	// the guard and the solve must finish on the plain-CG fallback.
	nd := cfg.pick(96, 64)
	eigs := make([]float64, nd)
	for i := range eigs {
		eigs[i] = math.Pow(10, 5*float64(i)/float64(nd-1))
	}
	suite := []struct {
		name string
		A    *sparse.CSR
	}{
		{"banded", sparse.Banded(cfg.pick(512, 128), 4)},
		{"laplace2d", sparse.Laplace2D(cfg.pick(24, 10), cfg.pick(24, 10))},
		{"randspd", sparse.RandomSPD(cfg.pick(200, 80), 6, cfg.Seed)},
		{"diag_k1e5", sparse.DiagWithEigenvalues(eigs)},
	}
	t2 := &report.Table{
		ID:     "E23",
		Title:  "s-step stability map: guard trips and convergence (np=4, tol 1e-10)",
		Header: []string{"matrix", "s", "converged", "iters", "repl", "rel_resid"},
		Notes: []string{
			"repl counts stability-guard trips (residual replacement + permanent s=1",
			"fallback). The guard may cost iterations, never the answer: every row",
			"converges to tolerance. rel_resid is the true ||b-Ax||/||b|| of the",
			"returned iterate, not the recurrence value.",
		},
	}
	for _, tc := range suite {
		bb := sparse.RandomVector(tc.A.NRows, cfg.Seed+1)
		for _, s := range factors {
			// The ill-conditioned diagonal needs room for the guard's
			// plain-CG fallback tail; 20n covers every suite member.
			opt := core.Options{Tol: 1e-10, MaxIter: 20 * tc.A.NRows}
			r, err := solve(4, tc.A, bb, s, opt)
			if err != nil {
				return nil, fmt.Errorf("E23 %s s=%d: %w", tc.name, s, err)
			}
			t2.AddRowf(tc.name, s, r.st.Converged, r.st.Iterations, r.st.Replacements,
				trueRelResidual(tc.A, r.x, bb))
		}
	}

	// Table 3: which blocking factor the cost-model frontier picks.
	t3 := &report.Table{
		ID:     "E23",
		Title:  fmt.Sprintf("cost-model s selection vs simulated machine (banded n=%d)", n),
		Header: []string{"np", "t/it_s1", "t/it_s2", "t/it_s4", "t/it_s8", "chosen", "sim_s1", "sim_chosen", "sim_agrees"},
		Notes: []string{
			"t/it_sK = modeled per-iteration time at blocking factor K; chosen = the",
			"argmin of the blocking rows only, ties to smaller s (auto also prices the",
			"pipelined row, E26). sim_s1 and sim_chosen are simulated makespans;",
			"sim_agrees marks that the simulated machine confirms the model's verdict",
			"on whether s>1 wins.",
		},
	}
	selNPs := []int{1, 2, 4, 8, 16}
	if cfg.Quick {
		selNPs = []int{1, 2, 4}
	}
	for _, np := range selNPs {
		blocking, perIter, err := prices(np)
		if err != nil {
			return nil, fmt.Errorf("E23 np=%d: %w", np, err)
		}
		chosen := hpfexec.Cheapest(blocking).Variant.Factor()
		s1, err := solve(np, A, b, 1, core.Options{Tol: 1e-8})
		if err != nil {
			return nil, err
		}
		sc := s1
		if chosen > 1 {
			if sc, err = solve(np, A, b, chosen, core.Options{Tol: 1e-8}); err != nil {
				return nil, err
			}
		}
		rs1, simChosen := s1.run, sc.run
		agrees := (chosen > 1) == (simChosen.ModelTime < rs1.ModelTime)
		if chosen == 1 {
			agrees = true // nothing to beat: model and sim trivially agree
		}
		t3.AddRowf(np, perIter[1], perIter[2], perIter[4], perIter[8], chosen,
			rs1.ModelTime, simChosen.ModelTime, agrees)
	}
	return []*report.Table{t1, t2, t3}, nil
}

// trueRelResidual evaluates ||b - A·x|| / ||b|| sequentially.
func trueRelResidual(A *sparse.CSR, x, b []float64) float64 {
	r := make([]float64, A.NRows)
	A.MulVec(x, r)
	rn, bn := 0.0, 0.0
	for i := range r {
		rn += (r[i] - b[i]) * (r[i] - b[i])
		bn += b[i] * b[i]
	}
	return math.Sqrt(rn / bn)
}
