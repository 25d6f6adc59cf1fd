// Package serve turns the one-shot solver stack into a service: a
// bounded admission queue with backpressure, a worker pool, and a
// scheduler whose headline optimisation is same-matrix batching — jobs
// against an identical matrix/layout/np/topology key coalesce into one
// SPMD run, so the matrix is assembled, partitioned and
// inspector-exchanged once and the batch of right-hand sides is solved
// back-to-back from a pooled workspace ((*hpfexec.Prepared).SolveBatch).
// This is the paper's §2 shape (one partitioned/inspected matrix, many
// solves) run as a request loop.
//
// Every job, whatever its method (cg, hpcg, stencil), variant (plain,
// s-step, pipelined) and attachments, runs through one dispatch
// (Scheduler.run): look the prepared handle up in the plan registry or
// prepare it, solve, finish. A wall-clock timeout is the context the
// solve runs under (hpfexec's SolveBatchContext) and part of the batch
// key. Jobs with a fault plan, a trace or resilient mode (a
// hpfexec.Variant like any other) differ only in that they never
// coalesce and run from a fresh, uncached handle whose machine carries
// their injector and tracer. Drain stops admission, rejects what is still
// queued and lets in-flight batches finish, and Metrics renders live
// Prometheus text (queue depth, in-flight, stage latency histograms,
// batch occupancy, modeled machine-time totals).
package serve

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"hpfcg/internal/comm"
	"hpfcg/internal/core"
	"hpfcg/internal/fault"
	"hpfcg/internal/hpfexec"
	"hpfcg/internal/report"
	"hpfcg/internal/sparse"
	"hpfcg/internal/topology"
	"hpfcg/internal/trace"
)

// Admission errors. HTTP maps ErrQueueFull to 429 + Retry-After and
// ErrDraining to 503.
var (
	ErrQueueFull = errors.New("serve: admission queue full")
	ErrDraining  = errors.New("serve: scheduler is draining")
)

// ValidationError wraps a rejected spec (HTTP 400).
type ValidationError struct{ Err error }

func (e *ValidationError) Error() string { return e.Err.Error() }
func (e *ValidationError) Unwrap() error { return e.Err }

// Options configures a Scheduler.
type Options struct {
	// Workers is the worker-pool size (default 2).
	Workers int
	// QueueCap bounds the admission queue (default 64); submissions
	// beyond it get ErrQueueFull.
	QueueCap int
	// MaxBatch caps how many same-key jobs one dispatch coalesces
	// (default 8; 1 disables batching).
	MaxBatch int
	// MaxNP bounds the per-job processor count (default 32).
	MaxNP int
	// RetryAfter is the backpressure hint returned with 429s
	// (default 1s).
	RetryAfter time.Duration
	// PlanCacheBytes budgets the Prepared-plan registry: batchable
	// jobs are solved from content-addressed cached plans, so repeat
	// traffic against a hot matrix skips partitioning and the
	// inspector ghost exchange across batch windows. 0 selects
	// hpfexec.DefaultRegistryBudget; negative disables the registry.
	PlanCacheBytes int64
	// StartPaused creates the scheduler with dispatch paused; resume
	// starts it. Tests use this to preload the queue so batch
	// composition is deterministic.
	StartPaused bool
	// BatchStarted, when non-nil, is called synchronously by a worker
	// after it marks a batch running and before it solves. Tests use it
	// to hold a batch in flight at a known point.
	BatchStarted func(jobs []*Job)
}

func (o Options) withDefaults() Options {
	o.Workers, o.QueueCap, o.MaxBatch = cmp.Or(o.Workers, 2), cmp.Or(o.QueueCap, 64), cmp.Or(o.MaxBatch, 8)
	o.MaxNP, o.RetryAfter = cmp.Or(o.MaxNP, 32), cmp.Or(o.RetryAfter, time.Second)
	return o
}

// Scheduler is the solver service: admission, batching, workers.
type Scheduler struct {
	opts Options
	met  *Metrics
	reg  *hpfexec.Registry // nil when the plan cache is disabled

	mu       sync.Mutex
	cond     *sync.Cond
	queue    []*Job
	jobs     map[string]*Job
	nextID   int
	paused   bool
	draining bool
	inflight int

	wg sync.WaitGroup
}

// New starts a scheduler with opts.Workers workers.
func New(opts Options) *Scheduler {
	s := &Scheduler{
		opts:   opts.withDefaults(),
		met:    newMetrics(),
		jobs:   map[string]*Job{},
		paused: opts.StartPaused,
	}
	if s.opts.PlanCacheBytes >= 0 {
		s.reg = hpfexec.NewRegistry(s.opts.PlanCacheBytes)
		s.met.planStats = s.reg.Stats
	}
	s.cond = sync.NewCond(&s.mu)
	for i := 0; i < s.opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Metrics returns the live metric set.
func (s *Scheduler) Metrics() *Metrics { return s.met }

// PlanCacheStats snapshots the plan registry counters (zero value when
// the cache is disabled).
func (s *Scheduler) PlanCacheStats() hpfexec.RegistryStats {
	if s.reg == nil {
		return hpfexec.RegistryStats{}
	}
	return s.reg.Stats()
}

// Draining reports whether admission has closed — the readiness probe
// (/readyz) turns 503 on this so load balancers stop routing before
// the drain completes.
func (s *Scheduler) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// RetryAfter is the backpressure hint for rejected submissions.
func (s *Scheduler) RetryAfter() time.Duration { return s.opts.RetryAfter }

// Submit validates and enqueues a job. It returns ErrQueueFull when
// the admission queue is at capacity (backpressure), ErrDraining after
// Drain, and a *ValidationError for malformed specs.
func (s *Scheduler) Submit(spec JobSpec) (*Job, error) {
	spec.normalize()
	if err := spec.validate(s.opts.MaxNP); err != nil {
		s.met.reject("invalid")
		return nil, &ValidationError{Err: err}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.met.reject("draining")
		return nil, ErrDraining
	}
	if len(s.queue) >= s.opts.QueueCap {
		s.met.reject("queue_full")
		return nil, ErrQueueFull
	}
	s.nextID++
	j := &Job{
		ID:        fmt.Sprintf("job-%d", s.nextID),
		Spec:      spec,
		state:     StateQueued,
		submitted: time.Now(),
		done:      make(chan struct{}),
		key:       spec.key(),
		batchable: spec.batchable(),
	}
	s.jobs[j.ID] = j
	s.queue = append(s.queue, j)
	s.met.submit(spec.Method)
	s.met.setGauges(len(s.queue), s.inflight)
	s.cond.Broadcast()
	return j, nil
}

// View returns a snapshot of the job's externally visible state.
func (s *Scheduler) View(id string) (JobView, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobView{}, false
	}
	return j.view(), true
}

// TraceJSON returns the job's captured Perfetto trace, if any.
func (s *Scheduler) TraceJSON(id string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok || len(j.traceJSON) == 0 {
		return nil, false
	}
	return j.traceJSON, true
}

// Wait blocks until the job reaches a terminal state or ctx expires.
func (s *Scheduler) Wait(ctx context.Context, id string) (JobView, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobView{}, fmt.Errorf("serve: unknown job %q", id)
	}
	select {
	case <-j.done:
	case <-ctx.Done():
		return JobView{}, ctx.Err()
	}
	v, _ := s.View(id)
	return v, nil
}

// resume starts dispatch on a paused scheduler.
func (s *Scheduler) resume() {
	s.mu.Lock()
	s.paused = false
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Drain performs the graceful shutdown: admission closes immediately
// (further Submits get ErrDraining), jobs still queued are failed as
// rejected, and Drain then waits — up to ctx — for the in-flight
// batches to finish. Workers exit afterwards.
func (s *Scheduler) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		rejected := s.queue
		s.queue = nil
		now := time.Now()
		for _, j := range rejected {
			j.state = StateFailed
			j.err = "rejected: server draining"
			j.finished = now
			close(j.done)
			s.met.reject("draining")
		}
		s.met.setGauges(0, s.inflight)
		s.cond.Broadcast()
	}
	s.mu.Unlock()

	finished := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain interrupted with work in flight: %w", ctx.Err())
	}
}

// worker is one pool member. Every dispatch builds or borrows its own
// machine (a comm.Machine is three fields; each Run gets fresh
// mailboxes), so runs from different workers never share comm state.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		batch := s.nextBatch()
		if batch == nil {
			return
		}
		if s.opts.BatchStarted != nil {
			s.opts.BatchStarted(batch)
		}
		s.run(batch)
	}
}

// nextBatch blocks for work, pops the head job and coalesces every
// same-key batchable job behind it (FIFO order preserved for the
// rest). Returns nil when the scheduler is draining and the queue is
// empty — the worker's signal to exit.
func (s *Scheduler) nextBatch() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if len(s.queue) > 0 && !s.paused {
			break
		}
		if s.draining {
			return nil
		}
		s.cond.Wait()
	}
	head := s.queue[0]
	batch := []*Job{head}
	rest := s.queue[1:]
	if head.batchable && s.opts.MaxBatch > 1 {
		kept := rest[:0]
		for _, j := range rest {
			if len(batch) < s.opts.MaxBatch && j.batchable && j.key == head.key {
				batch = append(batch, j)
			} else {
				kept = append(kept, j)
			}
		}
		rest = kept
	}
	s.queue = append(s.queue[:0], rest...)
	now := time.Now()
	for _, j := range batch {
		j.state = StateRunning
		j.started = now
	}
	s.inflight += len(batch)
	s.met.setGauges(len(s.queue), s.inflight)
	waits := make([]float64, len(batch))
	for i, j := range batch {
		waits[i] = now.Sub(j.submitted).Seconds()
	}
	s.met.dispatch(head.Spec.Method, len(batch), waits)
	return batch
}

// prepare opens the job's problem on m (hpfexec.Open, the one front
// over the backends) and sets its solver variant. hpfexec.WithVariant
// consults the same legality table validation did, and resolves auto
// through the cost model.
func (sp *JobSpec) prepare(m *comm.Machine) (*hpfexec.Prepared, error) {
	pr, err := hpfexec.Open(m, sp.prob, sp.Layout)
	if err != nil {
		return nil, err
	}
	return pr, pr.WithVariant(sp.variant)
}

// newMachine builds the job's machine with its attachments: the fault
// injector and, for traced jobs, the tracer that is returned.
func (sp *JobSpec) newMachine() (*comm.Machine, *trace.Tracer, error) {
	topo, err := topology.ByName(sp.Topology)
	if err != nil {
		return nil, nil, err
	}
	m := comm.NewMachine(sp.NP, topo, topology.DefaultCostParams())
	if sp.Fault != "" {
		plan, err := fault.Parse(sp.Fault)
		if err != nil {
			return nil, nil, err
		}
		inj, err := fault.NewInjector(plan)
		if err != nil {
			return nil, nil, err
		}
		m.AttachInjector(inj)
	}
	var tr *trace.Tracer
	if sp.Trace {
		tr = &trace.Tracer{}
		m.AttachTracer(tr)
	}
	return m, tr, nil
}

// run executes one dispatch. Batchable jobs look their plan up in the
// registry by matrix content hash — a warm hit runs with zero modeled
// setup and answers bit-identical to the cold path — and cache it on a
// miss; a nil registry is "always miss, never store". Jobs with
// attachments (fault, trace, resilient) arrive alone and get a fresh
// handle on a machine of their own, so an injector or tracer never
// reaches a cached plan. Then every job solves the same way, under the
// batch's shared timeout when it has one.
func (s *Scheduler) run(batch []*Job) {
	spec := batch[0].Spec
	cached := spec.batchable() && s.reg != nil

	var pr *hpfexec.Prepared
	var entry *hpfexec.Entry
	var tr *trace.Tracer
	var key string
	if cached {
		// Hashing an upload parses it; spec.prob keeps the matrix, so a
		// miss opens it without parsing again.
		hash, err := spec.prob.Hash()
		if err != nil {
			s.failAll(batch, err)
			return
		}
		key = spec.planKey(hash)
		entry, _ = s.reg.Get(key)
	}
	if entry == nil {
		// The plan owns a machine of its own: cached plans outlive any
		// single worker, and the entry lock serializes runs on it.
		m, t, err := spec.newMachine()
		if err == nil {
			pr, err = spec.prepare(m)
		}
		if err != nil {
			s.failAll(batch, err)
			return
		}
		tr = t
		if cached {
			entry, _ = s.reg.Put(key, pr)
		}
	}
	if entry != nil {
		// Cached (or freshly cached): solve under the entry lock so
		// concurrent workers never share the plan's machine. Oversized
		// plans (Put refused) run uncached from the local pr.
		entry.Lock()
		defer entry.Unlock()
		pr = entry.Prepared()
	}

	live, rhs, opts := s.resolveRHS(batch, pr.N())
	if len(live) == 0 {
		return
	}
	ctx := context.Background()
	if spec.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(spec.TimeoutMS)*time.Millisecond)
		defer cancel()
	}
	warm := pr.Warm()
	out, err := pr.SolveBatchContext(ctx, rhs, opts)
	if err != nil {
		s.failAll(live, err)
		return
	}
	if tr != nil {
		if rec := tr.Last(); rec != nil {
			var buf bytes.Buffer
			if err := trace.WriteChromeTrace(&buf, rec); err == nil {
				s.mu.Lock()
				live[0].traceJSON = buf.Bytes()
				s.mu.Unlock()
			}
		}
	}
	s.finishBatch(live, out, warm)
}

// resolveRHS materializes each job's right-hand side; length
// mismatches fail only that job.
func (s *Scheduler) resolveRHS(batch []*Job, n int) (live []*Job, rhs [][]float64, opts []core.Options) {
	live = batch[:0:len(batch)]
	rhs = make([][]float64, 0, len(batch))
	opts = make([]core.Options, 0, len(batch))
	for _, j := range batch {
		b := j.Spec.RHS
		if len(b) == 0 {
			b = sparse.RandomVector(n, j.Spec.Seed)
		} else if len(b) != n {
			s.finishJob(j, nil, fmt.Errorf("rhs length %d != n=%d", len(b), n))
			continue
		}
		live = append(live, j)
		rhs = append(rhs, b)
		opts = append(opts, core.Options{Tol: j.Spec.Tol, MaxIter: j.Spec.MaxIter})
	}
	return live, rhs, opts
}

// finishBatch records model-time metrics and finishes every job of a
// completed solve: a right-hand side whose solver broke down fails its
// own job and no other. hpcg results also carry the HPCG figure of
// merit (modeled GFLOP/s of the run). A recovery report adds attempts
// and failures and makes ModelTime the mission time (every attempt),
// while the setup and solve spans stay the final attempt's.
func (s *Scheduler) finishBatch(live []*Job, out *hpfexec.BatchResult, warm bool) {
	model, attempts, failures := out.Run.ModelTime, 0, 0
	if rec := out.Recovery; rec != nil {
		model, attempts, failures = rec.TotalModelTime, rec.Attempts, len(rec.Failures)
	}
	s.met.addModel(model, out.Run.CommTime(), out.SetupModelTime)
	for k, j := range live {
		r := out.Results[k]
		if r.Err != nil {
			s.finishJob(j, nil, r.Err)
			continue
		}
		// A cg job reports the factor its recurrence ran at, 1 for
		// plain; the other methods have no s-step form and report none.
		sstep := 0
		if j.Spec.Method == "cg" {
			sstep = r.Strategy.Variant.Factor()
		}
		res := &JobResult{
			X:              r.X,
			Converged:      r.Stats.Converged,
			Iterations:     r.Stats.Iterations,
			Residual:       r.Stats.Residual,
			Strategy:       r.Strategy.String(),
			SStep:          sstep,
			Replacements:   r.Stats.Replacements,
			Pipelined:      r.Strategy.Variant == hpfexec.Pipelined(),
			Reductions:     r.Stats.Reductions,
			ModelTime:      model,
			SolveModelTime: out.SolveModelTime[k],
			SetupModelTime: out.SetupModelTime,
			CommTime:       out.Run.CommTime(),
			BatchSize:      len(live),
			PlanCacheHit:   warm,
			Attempts:       attempts,
			Failures:       failures,
			Levels:         r.Strategy.Levels,
		}
		if res.Levels > 0 {
			res.ModelGFlops = report.GFlopRate(out.Run.TotalFlops, out.Run.ModelTime)
		}
		s.finishJob(j, res, nil)
	}
}

// failAll finishes every job in the batch with the same error.
func (s *Scheduler) failAll(batch []*Job, err error) {
	for _, j := range batch {
		s.finishJob(j, nil, err)
	}
}

// finishJob moves a job to its terminal state and updates metrics.
func (s *Scheduler) finishJob(j *Job, res *JobResult, err error) {
	now := time.Now()
	// Count the job before releasing its waiters: whoever sees it
	// finished must also find it in the metrics.
	s.met.finish(j.Spec.Method, err == nil, now.Sub(j.started).Seconds())
	s.mu.Lock()
	j.finished = now
	// Nothing reads the inputs of a finished job, and the job table keeps
	// it for as long as the scheduler lives: let go of the upload text
	// (the spec's and its problem's) and the explicit right-hand side.
	j.Spec.MatrixMarket, j.Spec.RHS, j.Spec.prob = "", nil, hpfexec.Problem{}
	if err != nil {
		j.state = StateFailed
		j.err = err.Error()
	} else {
		j.state = StateDone
		j.result = res
	}
	s.inflight--
	s.met.setGauges(len(s.queue), s.inflight)
	close(j.done)
	s.mu.Unlock()
}
