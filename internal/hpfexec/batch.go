// Batch execution: the solver-as-a-service entry points. A service
// that fields many solve requests against the same matrix should not
// re-run the directive binding, the partitioner, the CSC conversion,
// and the inspector's ghost-schedule exchange for every right-hand
// side — the paper's §2 framing (one partitioned/inspected matrix,
// many solves) and the enlarged-CG line both amortize exactly that
// setup. Prepare captures everything RHS-independent once; SolveBatch
// then solves a whole slice of right-hand sides in a single SPMD run,
// building the operator (and exchanging the inspector schedule) once
// and reusing one pooled core.Workspace per processor, so every solve
// after the first is allocation-free on the hot path.
//
// Bit-identity: each RHS's solution is bit-identical to what a batch
// of one with the same spec would produce — the workspace hands back
// zeroed vectors exactly like fresh allocation, the operator's pooled
// gather buffers are PR 2's bit-stable reuse, and the solver sequence
// per RHS is unchanged. TestSolvePathConformance holds this for every
// backend and variant.
//
// There is one loop. Every backend (assembled matrix, multigrid
// hierarchy, matrix-free stencil) and every variant (plain, s-step,
// pipelined, resilient, the §2.1 methods) runs through Prepared.run; they differ in the
// per-rank cold build and in the recurrence the resolved variant runs,
// both fixed before the SPMD region starts. A resilient variant calls
// it once per attempt.
package hpfexec

import (
	"context"
	"errors"
	"fmt"

	"hpfcg/internal/comm"
	"hpfcg/internal/core"
	"hpfcg/internal/darray"
	"hpfcg/internal/dist"
	"hpfcg/internal/hpf"
	"hpfcg/internal/sparse"
	"hpfcg/internal/spmv"
)

// Layout names the canonical directive programs a service request can
// select without shipping directive text. They mirror cmd/hpfrun's
// -demo listings: the paper's Scenario 1 (row-block CSR), Scenario 2
// in its HPF-1 serialized and PRIVATE/MERGE(+) parallel executions,
// and the §5.2.2 balanced-partitioner redistribution. csc-merge's ON
// PROCESSOR map is the exact inverse of BLOCK's Lo(r) = ⌊r·n/np⌋, so
// column j runs on its BLOCK owner at every n and np (⌊j·np/n⌋ is not,
// when np does not divide n).
var layoutPrograms = map[string]string{
	"csr": `
!HPF$ PROCESSORS :: PROCS(NP)
!HPF$ ALIGN (:) WITH p(:) :: q, r, x, b
!HPF$ DISTRIBUTE p(BLOCK)
!HPF$ SPARSE_MATRIX (CSR) :: smA(row, col, a)
`,
	"csc-serial": `
!HPF$ PROCESSORS :: PROCS(NP)
!HPF$ DISTRIBUTE p(BLOCK)
!HPF$ SPARSE_MATRIX (CSC) :: smA(colptr, rowidx, a)
`,
	"csc-merge": `
!HPF$ PROCESSORS :: PROCS(NP)
!HPF$ DISTRIBUTE p(BLOCK)
!HPF$ SPARSE_MATRIX (CSC) :: smA(colptr, rowidx, a)
!EXT$ ITERATION j ON PROCESSOR(((j+1)*np+n-1)/n-1), PRIVATE(q(n)) WITH MERGE(+)
`,
	"balanced": `
!HPF$ PROCESSORS :: PROCS(NP)
!HPF$ DISTRIBUTE p(BLOCK)
!HPF$ SPARSE_MATRIX (CSR) :: smA(row, col, a)
!EXT$ INDIVISABLE a(ATOM:i) :: row(i:i+1)
!EXT$ REDISTRIBUTE smA USING CG_BALANCED_PARTITIONER_1
`,
}

// Layouts lists the canonical layout names PlanForLayout accepts.
func Layouts() []string { return []string{"csr", "csc-serial", "csc-merge", "balanced"} }

// PlanForLayout parses and binds the canonical directive program for
// the named layout against an n×n matrix with nz stored entries on np
// processors.
func PlanForLayout(layout string, np, n, nz int) (*hpf.Plan, error) {
	src, ok := layoutPrograms[layout]
	if !ok {
		return nil, fmt.Errorf("hpfexec: unknown layout %q (have %v)", layout, Layouts())
	}
	return BindProgram(src, np, n, nz)
}

// BindProgram parses directive source and binds it against an n×n
// matrix with nz stored entries on np processors, sizing the arrays of
// the paper's Figure 2: the vectors p, q, r, x, b and the CSR or CSC
// trio the program declares.
func BindProgram(src string, np, n, nz int) (*hpf.Plan, error) {
	prog, err := hpf.Parse(src)
	if err != nil {
		return nil, err
	}
	sizes := map[string]int{
		"p": n, "q": n, "r": n, "x": n, "b": n,
		"row": n + 1, "col": nz, "a": nz,
		"colptr": n + 1, "rowidx": nz,
	}
	for _, sm := range hpf.Find[hpf.SparseMatrix](prog) {
		if sm.Format == "csc" {
			sizes["row"] = nz // the CSC trio's row-index array
		}
	}
	return hpf.Bind(prog, np, sizes, map[string]int{"n": n, "nz": nz})
}

// backend is the operator family behind a Prepared handle: the
// directive-planned assembled matrix, the multigrid hierarchy, or the
// matrix-free stencil. Everything else about a solve — validation,
// workspace, the per-RHS loop, clock marks — is shared (Prepared.run).
type backend interface {
	// kind names the backend's row in the legality table (CheckVariant).
	kind() string
	n() int
	memoryBytes() int64
	// build constructs rank p's operator state inside the SPMD region.
	// It is collective: every rank calls it at the same point, and an
	// error is deterministic in (spec, np), so all ranks fail alike and
	// control flow stays aligned. v is the handle's resolved variant
	// (only the assembled matrix's executor and preconditioner depend
	// on it).
	build(p *comm.Proc, v Variant) (rankOps, error)
	// frontier prices the variants the backend runs on m (Frontier).
	frontier(m *comm.Machine) []FrontierRow
}

// rankOps is one rank's solver inputs, cached in the handle after the
// cold build and rebound into each later run.
type rankOps struct {
	op spmv.Rebindable
	M  core.Preconditioner // nil = unpreconditioned
	d  dist.Dist
	// mode, when set, is the executor choice the cold build made
	// collectively (CSR: ghost halo vs broadcast); it replaces
	// Strategy.Mode once the first run has decided it.
	mode string
}

// Prepared is a reusable prepared-problem handle: the RHS-independent
// part of a solve (plan validation, execution strategy, partitioner
// redistribution, CSC conversion — or just a validated stencil spec),
// bound to one machine. One Prepared serves any number of SolveBatch
// calls; after the first, the per-rank operators (including the ghost
// executor's inspector schedule or the multigrid hierarchy) are cached
// and rebound into each new run, so a warm SolveBatch pays zero
// modeled setup — the property the plan registry (Registry) exposes to
// the serving tier.
//
// A Prepared is not safe for concurrent SolveBatch calls: it owns its
// machine and its cached operators. Registry entries serialize access.
type Prepared struct {
	m  *comm.Machine
	be backend
	// strategy.Variant is the resolved recurrence every right-hand side
	// runs; its factor is the blocking depth the cold build sees.
	strategy Strategy

	// ranks[r] is rank r's operator state, cached by the first run;
	// warm gates the reuse. Each rank writes only its own slot inside
	// the SPMD region, and warm flips only between runs.
	ranks []rankOps
	warm  bool
}

func newPrepared(m *comm.Machine, be backend, strategy Strategy) *Prepared {
	return &Prepared{m: m, be: be, strategy: strategy, ranks: make([]rankOps, m.NP())}
}

// Prepare validates the plan against the matrix and fixes the
// execution strategy, returning the handle batch solves run from.
func Prepare(m *comm.Machine, plan *hpf.Plan, A *sparse.CSR) (*Prepared, error) {
	mb, strategy, err := analyzeCG(m, plan, A)
	if err != nil {
		return nil, err
	}
	return newPrepared(m, mb, strategy), nil
}

// Warm reports whether the handle has run at least one batch and so
// holds cached per-rank operators (the next run skips setup).
func (pr *Prepared) Warm() bool { return pr.warm }

// MemoryBytes estimates the resident size of the cached plan, the
// unit the registry's byte budget accounts in. It is a cache-pressure
// signal, not an allocator: matrix handles count their CSR/CSC arrays
// twice over (operator-side copies), spec-only handles are analytic.
func (pr *Prepared) MemoryBytes() int64 { return pr.be.memoryBytes() }

// Strategy returns the execution strategy the directives selected.
// For the CSR layout the executor choice (ghost vs broadcast) is made
// collectively inside the first run; until then Mode reads "local".
func (pr *Prepared) Strategy() Strategy { return pr.strategy }

// N returns the system size.
func (pr *Prepared) N() int { return pr.be.n() }

// BatchResult is a completed multi-RHS batch solve.
type BatchResult struct {
	// Results holds one Result per right-hand side, in input order.
	// Each Result.Run is the shared batch run's statistics (the run is
	// one SPMD program; per-RHS modeled spans are in SolveModelTime).
	// A right-hand side whose solver broke down carries Result.Err and
	// no X; its neighbours are unaffected.
	Results []*Result
	// Run is the whole batch's machine statistics.
	Run comm.RunStats
	// SetupModelTime is the modeled time (max over ranks) spent before
	// the first solve: operator construction, the inspector's ghost
	// schedule exchange, and the executor-selection collective. This is
	// the cost batching amortizes across len(Results) solves.
	SetupModelTime float64
	// SolveModelTime[k] is the modeled span of solve k alone (max rank
	// clock after solve k minus max rank clock before it). Because each
	// end is a maximum over ranks, the span includes the rank skew the
	// previous solve left behind: the same right-hand side measures
	// about 4e-6 (relative) differently by batch position, while X and
	// the iteration count are bit-equal. That is the definition, not
	// drift — compare Run.ModelTime across runs, not spans across
	// positions.
	SolveModelTime []float64
	// Recovery is a resilient variant's checkpoint/restart report; nil
	// for every other variant. With it, Results, Run and the two spans
	// above are the successful last attempt's alone.
	Recovery *Recovery
}

// Recovery reports what surviving failures cost a resilient solve.
type Recovery struct {
	// Attempts counts runs including the successful one (1 = no failure).
	Attempts int
	// Failures lists the typed failures the restarts absorbed.
	Failures []comm.PeerFailure
	// TotalModelTime sums the modeled makespan over all attempts — the
	// mission time, failed work and recovery included.
	TotalModelTime float64
	// TotalIterations counts CG iterations computed across attempts;
	// LostIterations is the share rolled back by failures (computed
	// past the last checkpoint and redone). Their difference is the
	// result's Stats.Iterations, the useful work.
	TotalIterations int
	LostIterations  int
}

// SolveBatch solves the prepared system for every right-hand side in
// rhs in a single SPMD run: the operator is built (and its inspector
// schedule exchanged) once, then each RHS is solved in order reusing
// one pooled core.Workspace per processor. opts[k] configures solve k;
// a single-element opts slice applies to every RHS.
func (pr *Prepared) SolveBatch(rhs [][]float64, opts []core.Options) (*BatchResult, error) {
	return pr.SolveBatchContext(context.Background(), rhs, opts)
}

// SolveBatchContext is SolveBatch bounded by ctx: a run still going
// when ctx ends is aborted and the machine's deadlock (or cancellation)
// diagnostic is returned instead of hanging. The handle stays usable
// afterwards. A processor killed by the fault layer surfaces as a typed
// comm.PeerFailure error — unless the variant is resilient: then the
// one right-hand side is solved by core.CGResilient over an in-memory
// checkpoint store, every comm.PeerFailure restarts the run from the
// newest complete checkpoint, and the failure comes back only once the
// restart budget is exhausted (see Restart). ctx bounds the whole
// mission, every attempt included.
func (pr *Prepared) SolveBatchContext(ctx context.Context, rhs [][]float64, opts []core.Options) (*BatchResult, error) {
	v := pr.strategy.Variant
	if v.Kind() != "resilient" {
		out, _, err := pr.run(ctx, rhs, opts, core.Resilience{})
		return out, err
	}
	if len(rhs) != 1 {
		return nil, fmt.Errorf("hpfexec: a resilient solve takes one right-hand side, got %d", len(rhs))
	}
	store := core.NewCheckpointStore(pr.m.NP())
	res := core.Resilience{Store: store, Interval: v.ckpt}
	var out *BatchResult
	rec, err := Restart(pr.m, store, v.restarts, func() (run comm.RunStats, st core.Stats, err error) {
		if out, run, err = pr.run(ctx, rhs, opts, res); err == nil {
			st = out.Results[0].Stats
		}
		return run, st, err
	})
	if err != nil {
		return nil, err
	}
	out.Recovery = rec
	return out, nil
}

// Restart drives one checkpointed solve across processor failures: it
// calls attempt — one run on m of core.CGResilient over store,
// returning the run's statistics and, on success, the solver's — until
// an attempt succeeds. Every comm.PeerFailure is absorbed (restarting
// from the newest complete checkpoint is CGResilient's own prologue)
// and booked in the returned Recovery; it comes back as an error only
// once maxRestarts failed attempts have been retried, and any other
// error — an ended context's diagnostic among them — comes back at
// once, so a caller's deadline bounds every attempt together. When m's
// fault injector carries a mission
// clock (an Advance(float64) method, as fault.Injector does), it is
// advanced by each failed attempt's modeled time so the remaining
// fault schedule stays aligned.
func Restart(m *comm.Machine, store *core.CheckpointStore, maxRestarts int, attempt func() (comm.RunStats, core.Stats, error)) (*Recovery, error) {
	rec := &Recovery{}
	for {
		rec.Attempts++
		// The iteration this attempt starts from: the newest complete
		// checkpoint, or 0 on a scratch start.
		startIter := 0
		if _, k := store.Latest(); k > 0 {
			startIter = k
		}
		run, st, err := attempt()
		var pf comm.PeerFailure
		if err != nil && !errors.As(err, &pf) {
			return nil, err
		}
		rec.TotalModelTime += run.ModelTime
		if err == nil {
			rec.TotalIterations += st.Iterations - st.StartIteration
			rec.LostIterations = rec.TotalIterations - st.Iterations
			return rec, nil
		}
		rec.Failures = append(rec.Failures, pf)
		if got := store.Reached(pf.Rank); got > startIter {
			rec.TotalIterations += got - startIter
		}
		if rec.Attempts > maxRestarts {
			return nil, fmt.Errorf("hpfexec: solve failed after %d attempts: %w", rec.Attempts, pf)
		}
		if adv, ok := m.Injector().(interface{ Advance(float64) }); ok {
			adv.Advance(run.ModelTime)
		}
	}
}

// run is the one solve loop. On any error the BatchResult is nil; the
// RunStats are then what a machine-level failure (fault layer, ended
// context) cost — the failed attempt a resilient solve books as lost
// work — and zero when the run never started.
func (pr *Prepared) run(ctx context.Context, rhs [][]float64, opts []core.Options, res core.Resilience) (*BatchResult, comm.RunStats, error) {
	var run comm.RunStats
	if len(rhs) == 0 {
		return nil, run, fmt.Errorf("hpfexec: empty batch")
	}
	n := pr.N()
	for k, b := range rhs {
		if len(b) != n {
			return nil, run, fmt.Errorf("hpfexec: rhs %d length %d != %d", k, len(b), n)
		}
	}
	if len(opts) != 1 && len(opts) != len(rhs) {
		return nil, run, fmt.Errorf("hpfexec: got %d option sets for %d right-hand sides", len(opts), len(rhs))
	}
	for k, o := range opts {
		if o.Tol < 0 {
			return nil, run, fmt.Errorf("hpfexec: option set %d: negative tolerance %g", k, o.Tol)
		}
		if o.MaxIter < 0 {
			return nil, run, fmt.Errorf("hpfexec: option set %d: negative iteration cap %d", k, o.MaxIter)
		}
	}

	np, nrhs := pr.m.NP(), len(rhs)
	results := make([]Result, nrhs)
	// marks[r*(nrhs+1)] is rank r's clock after setup, the next nrhs
	// entries its clock after each solve. Each rank writes only its own
	// stretch, so no locking.
	marks := make([]float64, np*(nrhs+1))
	var buildErr error
	var mode string

	warm := pr.warm
	body := func(p *comm.Proc) {
		r := p.Rank()
		ro := &pr.ranks[r]
		if warm {
			// Warm start: reuse the rank's cached operator, rebound to
			// this run's Proc. No partitioning, no inspector exchange,
			// no executor-selection collective — modeled setup is zero.
			ro.op.Rebind(p)
		} else {
			built, err := pr.be.build(p, pr.strategy.Variant)
			if err != nil {
				if r == 0 {
					buildErr = err
				}
				return
			}
			*ro = built
			if r == 0 {
				mode = built.mode
			}
		}
		bv := darray.New(p, ro.d)
		xv := darray.New(p, ro.d)
		work := core.NewWorkspace()
		mk := marks[r*(nrhs+1) : (r+1)*(nrhs+1)]
		mk[0] = p.Clock()
		for k, b := range rhs {
			bv.SetGlobal(func(g int) float64 { return b[g] })
			xv.Fill(0)
			opt := opts[0]
			if len(opts) > 1 {
				opt = opts[k]
			}
			opt.Work = work
			st, err := pr.strategy.Variant.solve(p, ro, bv, xv, opt, res)
			if err != nil {
				// Solver errors are collective — every rank sees the
				// same merged scalar — so all ranks skip the gather
				// together and move on: one right-hand side that breaks
				// down must not void its neighbours.
				if r == 0 {
					results[k].Err = fmt.Errorf("hpfexec: batch rhs %d: %w", k, err)
				}
			} else if full := xv.Gather(); r == 0 {
				results[k].X = full
			}
			if r == 0 {
				results[k].Stats = st
			}
			mk[k+1] = p.Clock()
		}
	}
	run, err := pr.m.RunContext(ctx, body)
	if err != nil {
		return nil, run, err
	}
	if buildErr != nil {
		return nil, run, buildErr
	}
	if !warm {
		if mode != "" {
			pr.strategy.Mode = mode
		}
		pr.warm = true
	}

	// Fold the per-rank clock marks into per-stage modeled spans.
	maxAt := func(j int) float64 {
		m := 0.0
		for r := 0; r < np; r++ {
			if t := marks[r*(nrhs+1)+j]; t > m {
				m = t
			}
		}
		return m
	}
	out := &BatchResult{
		Results:        make([]*Result, nrhs),
		Run:            run,
		SetupModelTime: maxAt(0),
		SolveModelTime: make([]float64, nrhs),
	}
	prev := out.SetupModelTime
	for k := range results {
		end := maxAt(k + 1)
		out.SolveModelTime[k] = end - prev
		prev = end
		results[k].Run, results[k].Strategy = run, pr.strategy
		out.Results[k] = &results[k]
	}
	return out, run, nil
}
