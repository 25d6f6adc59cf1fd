package bench

import (
	"fmt"
	"math"
	"math/rand"

	"hpfcg/internal/comm"
	"hpfcg/internal/core"
	"hpfcg/internal/darray"
	"hpfcg/internal/dist"
	"hpfcg/internal/order"
	"hpfcg/internal/report"
	"hpfcg/internal/seq"
	"hpfcg/internal/sparse"
	"hpfcg/internal/spmv"
)

// E15 — machine-parameter sensitivity. HPF's whole premise is
// portability: the same source must run well across machines with very
// different communication constants. This experiment sweeps the
// message start-up time t_s across three orders of magnitude
// (shared-memory-like 1µs up to workstation-cluster 1ms) and reports,
// at fixed NP, how the three executions of the sparse mat-vec compare:
// Scenario 1 (broadcast), Scenario 2 with the §5.1 extension (merge),
// and the inspector-executor halo. The crossovers show which execution
// a compiler should pick on which machine — the decision the paper
// wants directives to inform.
func E15(cfg Config) ([]*report.Table, error) {
	n := cfg.pick(4096, 512)
	np := cfg.pick(8, 4)
	const applies = 10
	d := dist.NewBlock(n, np)

	matrices := []struct {
		name string
		A    *sparse.CSR
	}{
		{"banded (local halo)", sparse.Banded(n, 4)},
		{"randspd (no locality)", sparse.RandomSPD(n, 6, cfg.Seed)},
	}
	var tables []*report.Table
	for _, mt := range matrices {
		A := mt.A
		csc := A.ToCSC()
		t := &report.Table{
			ID: "E15",
			Title: fmt.Sprintf("start-up-time sensitivity, %s n=%d np=%d, %d applies",
				mt.name, n, np, applies),
			Header: []string{"t_startup", "t_bcast_s", "t_merge_s", "t_ghost_s", "best"},
			Notes: []string{
				"bcast = Scenario 1 allgather; merge = Scenario 2 + PRIVATE/MERGE(+);",
				"ghost = inspector-executor halo (inspector included)",
			},
		}
		execs := []struct {
			name  string
			build buildApply
		}{
			{"bcast", csrApply(A)},
			{"merge", cscApply(csc, spmv.ModeDenseMerge)},
			{"ghost", ghostApply(A, nil)},
		}
		for _, ts := range []float64{1e-6, 10e-6, 100e-6, 1e-3} {
			c := cfg
			c.Cost.TStartup = ts
			row := []any{fmt.Sprintf("%.0e", ts)}
			best, bt := "", math.Inf(1)
			for _, e := range execs {
				rs, err := applyOn(c.machine(np), d, applies, e.build)
				if err != nil {
					return nil, err
				}
				row = append(row, rs.ModelTime)
				if rs.ModelTime < bt {
					best, bt = e.name, rs.ModelTime
				}
			}
			t.AddRowf(append(row, best)...)
		}
		tables = append(tables, t)
	}
	tables[len(tables)-1].Notes = append(tables[len(tables)-1].Notes,
		"the winner flips with matrix structure and machine constants —",
		"the execution-selection decision the paper wants directives to inform")
	return tables, nil
}

// E16 — reordering meets the inspector-executor: a banded matrix whose
// labelling was scrambled (the "irregular grid" arrival order of
// §5.2.2) has a huge ghost halo; Reverse Cuthill-McKee recovers the
// bandwidth and shrinks the halo back to the neighbour exchange. This
// is the locality knob the runtime machinery of E14 depends on.
func E16(cfg Config) ([]*report.Table, error) {
	n := cfg.pick(2048, 512)
	np := cfg.pick(8, 4)
	const applies = 20
	band := sparse.Banded(n, 4)

	// Scramble the labelling deterministically.
	rng := rand.New(rand.NewSource(cfg.Seed))
	perm := make(order.Permutation, n)
	for i := range perm {
		perm[i] = i
	}
	rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	scrambled := order.PermuteSym(band, perm)
	rcm := order.RCM(scrambled)
	restored := order.PermuteSym(scrambled, rcm)

	t := &report.Table{
		ID:     "E16",
		Title:  fmt.Sprintf("RCM reordering and the ghost halo, banded n=%d np=%d, %d applies", n, np, applies),
		Header: []string{"matrix", "bandwidth", "ghosts_per_proc", "t_ghost_s", "bytes"},
		Notes: []string{
			"scrambled = random labelling of the banded matrix (halo ~ whole vector)",
			"rcm = Reverse Cuthill-McKee applied to the scrambled matrix",
		},
	}
	d := dist.NewBlock(n, np)
	for _, c := range []struct {
		name string
		A    *sparse.CSR
	}{
		{"original", band},
		{"scrambled", scrambled},
		{"rcm(scrambled)", restored},
	} {
		A := c.A
		var ghosts int
		rs, err := applyOn(cfg.machine(np), d, applies, ghostApply(A, &ghosts))
		if err != nil {
			return nil, err
		}
		t.AddRowf(c.name, order.Bandwidth(A), ghosts, rs.ModelTime, rs.TotalBytes)
	}
	return []*report.Table{t}, nil
}

// E17 — escaping the inner-product merge: every CG iteration pays
// three allreduce merges (rho, p·Ap, stop test), each t_s·log NP; the
// Chebyshev semi-iteration pays none in its recurrence (one norm every
// 10 iterations for the stopping test). With spectral bounds known
// (here analytic; in practice a short CG probe with EstimateSpectrum),
// Chebyshev needs more iterations but less communication — and wins
// once t_s is large. This quantifies §4's observation that the inner
// products are CG's only unavoidable synchronisations.
func E17(cfg Config) ([]*report.Table, error) {
	n := cfg.pick(4096, 512)
	np := cfg.pick(8, 4)
	// A moderately conditioned SPD system (the regime preconditioned
	// production solves live in): CG and Chebyshev need comparable
	// iteration counts, so the communication difference decides.
	A := sparse.RandomSPD(n, 6, cfg.Seed)
	b := sparse.RandomVector(n, cfg.Seed+1)
	d := dist.NewBlock(n, np)
	tol := 1e-8

	// Spectral bounds from a short sequential CG probe — the
	// CG-Lanczos pipeline (seq.Options.EstimateSpectrum), widened for
	// safety since Ritz values sit inside the true spectrum.
	probeX := make([]float64, n)
	probe, err := seq.CG(A, b, probeX, seq.Options{MaxIter: 30, Tol: 1e-30, EstimateSpectrum: true})
	if err != nil && probe.Spectrum == nil {
		return nil, err
	}
	eigMin := probe.Spectrum.EigMin * 0.8
	eigMax := probe.Spectrum.EigMax * 1.1

	t := &report.Table{
		ID:     "E17",
		Title:  fmt.Sprintf("CG vs Chebyshev (dot-free), randspd n=%d np=%d", n, np),
		Header: []string{"t_startup", "cg_iters", "cg_time_s", "cheb_iters", "cheb_time_s", "cheb/cg_time"},
		Notes: []string{
			"CG: 2 allreduce merges per iteration (fused, see E19); Chebyshev: 1 norm per 10 iterations",
			fmt.Sprintf("spectral bounds from a 30-step CG probe (Ritz interval [%.3g, %.3g], widened)",
				probe.Spectrum.EigMin, probe.Spectrum.EigMax),
		},
	}
	opt := core.Options{Tol: tol, MaxIter: 40 * n}
	cheb := func(p *comm.Proc, op spmv.Operator, b, x *darray.Vector) (core.Stats, error) {
		return core.Chebyshev(p, op, b, x, eigMin, eigMax, opt)
	}
	for _, ts := range []float64{1e-6, 10e-6, 100e-6, 1e-3} {
		c := cfg
		c.Cost.TStartup = ts
		cg, err := solveOn(c.machine(np), d, b, false, csrOp(A), cgSolve(opt))
		if err != nil {
			return nil, err
		}
		ch, err := solveOn(c.machine(np), d, b, false, csrOp(A), cheb)
		if err != nil {
			return nil, err
		}
		t.AddRowf(fmt.Sprintf("%.0e", ts), cg.st.Iterations, cg.run.ModelTime, ch.st.Iterations, ch.run.ModelTime,
			ch.run.ModelTime/cg.run.ModelTime)
	}
	return []*report.Table{t}, nil
}

// E18 — weak scaling: the Gustafson view the strong-scaling E1 cannot
// show. The per-processor problem size is held fixed (n = base·NP), so
// perfect scalability would keep the per-iteration modeled time
// constant; the growth that remains is exactly the t_s·log NP merge
// terms of §4. Iteration counts rise with n (the Laplacian hardens),
// so the table reports time per iteration.
func E18(cfg Config) ([]*report.Table, error) {
	base := cfg.pick(2048, 256) // elements per processor
	t := &report.Table{
		ID:     "E18",
		Title:  fmt.Sprintf("weak scaling, banded CG, n = %d*NP", base),
		Header: []string{"np", "n", "iters", "model_time_s", "time_per_iter_s", "efficiency"},
		Notes: []string{
			"efficiency = time_per_iter(NP=1) / time_per_iter(NP)",
			"the decay is the t_s*log NP DOT_PRODUCT merge growth of §4",
		},
	}
	var perIter1 float64
	for _, np := range cfg.npSweep() {
		n := base * np
		A := sparse.Banded(n, 4)
		b := sparse.RandomVector(n, cfg.Seed)
		r, err := solveOn(cfg.machine(np), dist.NewBlock(n, np), b, false, ghostOp(A),
			cgSolve(core.Options{Tol: 1e-8, MaxIter: 10 * n}))
		if err != nil {
			return nil, err
		}
		iters, rs := r.st.Iterations, r.run
		perIter := rs.ModelTime / float64(iters)
		if np == 1 {
			perIter1 = perIter
		}
		t.AddRowf(np, n, iters, rs.ModelTime, perIter, perIter1/perIter)
	}
	return []*report.Table{t}, nil
}
