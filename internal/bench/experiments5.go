package bench

import (
	"fmt"
	"math"
	"slices"

	"hpfcg/internal/comm"
	"hpfcg/internal/core"
	"hpfcg/internal/darray"
	"hpfcg/internal/dist"
	"hpfcg/internal/fault"
	"hpfcg/internal/hpfexec"
	"hpfcg/internal/report"
	"hpfcg/internal/sparse"
	"hpfcg/internal/spmv"
)

// missionOutcome is one resilient solve driven to completion across
// restart attempts: the recovery record and the last attempt's solve.
type missionOutcome struct {
	rec *hpfexec.Recovery
	solved
}

// runMission drives core.CGResilient under a fault plan until the
// solve converges, through hpfexec.Restart — the loop a Resilient
// hpfexec variant runs: each comm.PeerFailure advances the injector's
// mission clock by the failed attempt's modeled time and restarts from
// the newest complete checkpoint.
func runMission(cfg Config, A *sparse.CSR, b []float64, np, interval int, plan fault.Plan, opt core.Options) (missionOutcome, error) {
	var out missionOutcome
	inj, err := fault.NewInjector(plan)
	if err != nil {
		return out, err
	}
	d := dist.NewBlock(A.NRows, np)
	store := core.NewCheckpointStore(np)
	c := cfg
	c.Injector = inj
	m := c.machine(np)
	resilient := func(p *comm.Proc, op spmv.Operator, bv, x *darray.Vector) (core.Stats, error) {
		return core.CGResilient(p, op, bv, x, opt, core.Resilience{Store: store, Interval: interval})
	}
	// Each scheduled crash can fail at most one attempt.
	out.rec, err = hpfexec.Restart(m, store, len(plan.Events)+1, func() (comm.RunStats, core.Stats, error) {
		r, err := solveOn(m, d, b, true, ghostOp(A), resilient)
		out.solved = r
		return r.run, r.st, err
	})
	return out, err
}

// E20 — resilience: checkpoint/restart under deterministic fault
// injection. Table 1 measures what resilience costs when nothing
// fails: CGResilient with no injector attached versus plain CG — the
// only extra modeled time is the periodic checkpoint write
// (t_s + 24·n/NP·t_w per rank every Interval iterations) and the
// solution must stay bit-identical. Table 2 replays seeded Poisson
// crash schedules (fault.RandomPlan) against the solve for an
// MTBF × checkpoint-interval × NP sweep: mission time counts every
// failed attempt, so the slowdown column is the paper-style price of
// failures, and lost_iters the work rolled back to the last
// checkpoint. Table 3 sweeps the interval at fixed MTBF and compares
// the empirically best choice against Young's first-order optimum
// sqrt(2·MTBF·C)/t_iter; interval=0 (no checkpoints, every failure
// restarts from scratch) anchors the far end.
func E20(cfg Config) ([]*report.Table, error) {
	n := cfg.pick(2048, 288)
	A := sparse.Banded(n, 4)
	b := sparse.RandomVector(n, cfg.Seed)
	opt := core.Options{Tol: 1e-8}
	nps := []int{2, 4, 8}
	if cfg.Quick {
		nps = []int{2, 4}
	}

	// Fault-free baselines per np: plain CG solution, iterations, makespan.
	base := map[int]solved{}
	for _, np := range nps {
		r, err := solveOn(cfg.machine(np), dist.NewBlock(n, np), b, true, ghostOp(A), cgSolve(opt))
		if err != nil {
			return nil, fmt.Errorf("baseline np=%d: %w", np, err)
		}
		base[np] = r
	}

	t1 := &report.Table{
		ID:     "E20",
		Title:  "failure-free checkpoint overhead: CGResilient (no injector) vs CG",
		Header: []string{"np", "n", "interval", "iters", "ckpts", "cg_model", "res_model", "overhead_pct", "bit_identical"},
		Notes: []string{
			"overhead_pct = (res_model - cg_model) / cg_model * 100: pure checkpoint-write",
			"cost (t_s + 24 bytes/element * t_w per rank every interval iterations);",
			"bit_identical compares solutions element-wise — resilience must not perturb CG.",
		},
	}
	intervals1 := []int{5, 20}
	for _, np := range nps {
		for _, iv := range intervals1 {
			out, err := runMission(cfg, A, b, np, iv, fault.Plan{}, opt)
			if err != nil {
				return nil, fmt.Errorf("healthy np=%d interval=%d: %w", np, iv, err)
			}
			bl := base[np].run.ModelTime
			t1.AddRowf(np, n, iv, out.st.Iterations, out.st.Checkpoints,
				bl, out.rec.TotalModelTime,
				100*(out.rec.TotalModelTime-bl)/bl,
				slices.Equal(base[np].x, out.x))
		}
	}

	t2 := &report.Table{
		ID:     "E20",
		Title:  "recovery under Poisson crashes: MTBF x checkpoint interval x NP",
		Header: []string{"np", "mtbf/T", "interval", "crashes", "attempts", "lost_iters", "mission_t", "slowdown"},
		Notes: []string{
			"Seeded fault.RandomPlan schedules crashes with the given MTBF (in units of the",
			"healthy makespan T) over a 3T horizon; mission_t sums every attempt's modeled",
			"time; slowdown = mission_t / T. lost_iters = iterations rolled back by failures.",
		},
	}
	mtbfFracs := []float64{0.4, 1.0}
	intervals2 := []int{3, 10}
	for _, np := range nps {
		T := base[np].run.ModelTime
		for _, frac := range mtbfFracs {
			plan := fault.RandomPlan(cfg.Seed+int64(np), np, frac*T, 3*T)
			for _, iv := range intervals2 {
				out, err := runMission(cfg, A, b, np, iv, plan, opt)
				if err != nil {
					return nil, fmt.Errorf("np=%d mtbf=%.2gT interval=%d: %w", np, frac, iv, err)
				}
				if !slices.Equal(base[np].x, out.x) {
					return nil, fmt.Errorf("np=%d mtbf=%.2gT interval=%d: recovered solution not bit-identical", np, frac, iv)
				}
				t2.AddRowf(np, frac, iv, len(out.rec.Failures), out.rec.Attempts, out.rec.LostIterations,
					out.rec.TotalModelTime, out.rec.TotalModelTime/T)
			}
		}
	}

	t3 := &report.Table{
		ID:     "E20",
		Title:  "checkpoint interval choice vs Young's optimum",
		Header: []string{"np", "interval", "crashes", "lost_iters", "mission_t", "slowdown", "young_interval"},
		Notes: []string{
			"Fixed MTBF = 0.5T; interval 0 = checkpointing disabled (failures restart from",
			"scratch). young_interval = sqrt(2 * MTBF * C) / t_iter with C the per-checkpoint",
			"modeled write cost and t_iter the healthy per-iteration time — the first-order",
			"optimum the empirically best row should sit near.",
		},
	}
	np3 := cfg.pick(4, 2)
	T := base[np3].run.ModelTime
	mtbf := 0.5 * T
	ckptCost := cfg.Cost.TStartup + 24*float64((n+np3-1)/np3)*cfg.Cost.TByte
	tIter := T / float64(base[np3].st.Iterations)
	young := math.Sqrt(2*mtbf*ckptCost) / tIter
	plan := fault.RandomPlan(cfg.Seed+100, np3, mtbf, 3*T)
	intervals3 := []int{0, 2, 5, 10, 20, 40}
	if cfg.Quick {
		intervals3 = []int{0, 2, 5, 15}
	}
	for _, iv := range intervals3 {
		out, err := runMission(cfg, A, b, np3, iv, plan, opt)
		if err != nil {
			return nil, fmt.Errorf("young sweep interval=%d: %w", iv, err)
		}
		t3.AddRowf(np3, iv, len(out.rec.Failures), out.rec.LostIterations, out.rec.TotalModelTime, out.rec.TotalModelTime/T, young)
	}
	return []*report.Table{t1, t2, t3}, nil
}
