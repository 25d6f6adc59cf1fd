package bench

import (
	"context"
	"fmt"
	"time"

	"hpfcg/internal/report"
	"hpfcg/internal/serve"
)

// E21 — same-matrix batching in the solver service, isolated
// deterministically: one worker, a paused queue preloaded with
// same-matrix jobs, and an exact batch occupancy per row — the per-job
// share of the modeled setup time (matrix partition + inspector
// exchange + executor selection) must fall as 1/B while the per-solve
// time stays flat. Throughput and occupancy under live load are wall
// numbers and come from benchmark/ (serve.jobs_per_s,
// serve.batch_occupancy_mean).
func E21(cfg Config) ([]*report.Table, error) {
	matrix := fmt.Sprintf("laplace2d:%d:%d", cfg.pick(24, 12), cfg.pick(24, 12))
	const np = 4
	const jobs = 8
	batchCaps := []int{1, 2, 4, 8}

	t := &report.Table{
		ID:     "E21",
		Title:  fmt.Sprintf("Same-matrix batching amortization (%s, np=%d, %d jobs, 1 worker)", matrix, np, jobs),
		Header: []string{"batch", "occupancy", "setup_model_s", "setup_per_job_s", "solve_per_job_s", "model_per_job_s"},
		Notes: []string{
			"One worker, queue preloaded while paused, so every dispatch coalesces exactly",
			"`batch` jobs. setup_model_s is the modeled cost the batch pays once (matrix",
			"partition, inspector ghost exchange, executor selection); setup_per_job_s is",
			"each job's share.",
		},
	}

	for _, mb := range batchCaps {
		s := serve.New(serve.Options{
			Workers:     1,
			QueueCap:    jobs,
			MaxBatch:    mb,
			StartPaused: true,
			// Registry off: with it, only the first batch would pay setup
			// and every batch cap would amortize identically. E21 measures
			// within-batch amortization; E22 measures the plan cache.
			PlanCacheBytes: -1,
		})
		ids := make([]string, jobs)
		for k := 0; k < jobs; k++ {
			j, err := s.Submit(serve.JobSpec{Matrix: matrix, NP: np, Seed: int64(k + 1)})
			if err != nil {
				return nil, err
			}
			ids[k] = j.ID
		}
		s.Resume()
		var setupSum, setupShare, solveSum, modelShare, occSum float64
		for _, id := range ids {
			v, err := s.Wait(context.Background(), id)
			if err != nil {
				return nil, err
			}
			if v.State != serve.StateDone || !v.Result.Converged {
				return nil, fmt.Errorf("job %s: %s (%s)", id, v.State, v.Error)
			}
			if v.Result.BatchSize != mb {
				return nil, fmt.Errorf("job %s: occupancy %d, want %d", id, v.Result.BatchSize, mb)
			}
			occSum += float64(v.Result.BatchSize)
			setupShare += v.Result.SetupModelTime / float64(v.Result.BatchSize)
			solveSum += v.Result.SolveModelTime
			modelShare += v.Result.ModelTime / float64(v.Result.BatchSize)
			setupSum += v.Result.SetupModelTime
		}
		drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err := s.Drain(drainCtx)
		cancel()
		if err != nil {
			return nil, err
		}
		t.AddRowf(mb, occSum/float64(jobs),
			setupSum/float64(jobs), // each job reports its batch's setup -> mean per-batch setup
			setupShare/float64(jobs),
			solveSum/float64(jobs),
			modelShare/float64(jobs))
	}
	return []*report.Table{t}, nil
}
