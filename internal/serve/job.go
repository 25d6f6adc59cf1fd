// The job model of the solver service: what a client may ask for, how
// a request is validated and normalized, and the batch key under which
// same-matrix jobs coalesce.
package serve

import (
	"cmp"
	"fmt"
	"strconv"
	"strings"
	"time"

	"hpfcg/internal/fault"
	"hpfcg/internal/hpfexec"
	"hpfcg/internal/mfree"
	"hpfcg/internal/mg"
	"hpfcg/internal/sparse"
	"hpfcg/internal/topology"
)

// MGSpec sizes an hpcg job's stencil problem: each rank owns an
// nx × ny × nz brick of the 27-point operator, solved by V-cycle
// multigrid-preconditioned CG (zero levels/smooths select the package
// defaults). It is mg.Spec field for field, so a job converts to it
// exactly, and the two cannot drift apart and still compile.
type MGSpec struct {
	Nx      int `json:"nx"`
	Ny      int `json:"ny"`
	Nz      int `json:"nz"`
	Levels  int `json:"levels,omitempty"`
	Smooths int `json:"smooths,omitempty"`
}

// StencilSpec sizes a stencil job's matrix-free problem: the global
// grid dimensions and the stencil coefficients. Unlike MGSpec the
// dimensions are global — the service splits the grid into z-slabs
// over NP ranks. Zero center and off select the canonical Laplacian
// pair for the stencil kind. It is mfree.Spec field for field, as
// MGSpec is mg.Spec.
type StencilSpec struct {
	// Stencil is "5pt" (2-D, nx × ny) or "27pt" (3-D, nx × ny × nz).
	Stencil string  `json:"stencil"`
	Nx      int     `json:"nx"`
	Ny      int     `json:"ny"`
	Nz      int     `json:"nz,omitempty"`
	Center  float64 `json:"center,omitempty"`
	Off     float64 `json:"off,omitempty"`
}

// JobSpec is one solve request. The matrix comes either from a
// built-in generator spec (Matrix, e.g. "laplace2d:32:32") or from an
// inline Matrix Market upload (MatrixMarket, which wins when both are
// set). The right-hand side is either explicit (RHS) or the
// deterministic sparse.RandomVector of Seed, so a request is fully
// reproducible from its JSON.
type JobSpec struct {
	// Matrix is a generator spec (see sparse.GeneratorByName).
	Matrix string `json:"matrix,omitempty"`
	// MatrixMarket is an inline Matrix Market coordinate document.
	MatrixMarket string `json:"matrix_market,omitempty"`
	// Layout selects the execution: "csr" (default), "csc-serial",
	// "csc-merge" or "balanced" (see hpfexec.Layouts).
	Layout string `json:"layout,omitempty"`
	// Method is the solver: "cg" (the default) solves the job's matrix;
	// "hpcg" runs V-cycle multigrid-preconditioned CG on the 27-point
	// stencil sized by MG; "stencil" runs matrix-free CG on the
	// geometric stencil sized by Stencil (no matrix field applies to
	// either generated problem).
	Method string `json:"method,omitempty"`
	// MG sizes the stencil problem of an hpcg job.
	MG *MGSpec `json:"mg,omitempty"`
	// Stencil sizes the matrix-free problem of a stencil job.
	Stencil *StencilSpec `json:"stencil,omitempty"`
	// SStep is the communication-avoiding blocking factor of a cg job:
	// 0 (or absent) lets the cost model choose the variant per machine
	// shape (hpfexec.Auto: plain, s-step or pipelined), 1 forces plain
	// CG, 2..hpfexec.MaxSStep fixes the factor. A stencil job reads 0
	// the same way (auto: plain or pipelined) and 1 as plain, and takes
	// no factor; an hpcg job takes no sstep at all. Resilient jobs
	// always run plain CG — the checkpoint machinery is per-iteration —
	// and do not read it. SStep, Pipelined and Resilient become the
	// job's one hpfexec.Variant at admission.
	SStep int `json:"sstep,omitempty"`
	// Pipelined runs the overlap-based pipelined CG solver: one
	// nonblocking two-word allreduce per iteration, hidden behind the
	// mat-vec on the modeled clock.
	Pipelined bool `json:"pipelined,omitempty"`
	// NP is the virtual processor count (default 4).
	NP int `json:"np,omitempty"`
	// Topology is "hypercube" (default), "ring", "mesh2d" or "full".
	Topology string `json:"topology,omitempty"`
	// Tol is the relative residual tolerance (0 -> 1e-10).
	Tol float64 `json:"tol,omitempty"`
	// MaxIter caps iterations (0 -> 2n).
	MaxIter int `json:"maxiter,omitempty"`
	// Seed generates the right-hand side when RHS is empty (0 -> 42).
	Seed int64 `json:"seed,omitempty"`
	// RHS is an explicit right-hand side (length n).
	RHS []float64 `json:"rhs,omitempty"`
	// Fault is a fault-injection spec (fault.Parse syntax), for any
	// method; it forces the job onto a dedicated machine and an
	// uncached plan. Without Resilient a crash fails the job with a
	// typed "processor N failed" error.
	Fault string `json:"fault,omitempty"`
	// Resilient runs a cg job under checkpoint/restart (the
	// hpfexec.Resilient variant) so injected crashes are survived.
	Resilient bool `json:"resilient,omitempty"`
	// CkptInterval checkpoints every N iterations (with Resilient).
	CkptInterval int `json:"ckpt_interval,omitempty"`
	// MaxRestarts bounds restart attempts (with Resilient).
	MaxRestarts int `json:"max_restarts,omitempty"`
	// TimeoutMS aborts a solve of any method that has not finished
	// after this much wall time, with the machine's deadlock
	// diagnostic (the context hpfexec's SolveBatchContext runs under).
	// The bound covers the dispatch the job runs in, so a deadline job
	// coalesces only with jobs asking for the same bound.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// Trace captures a Perfetto/Chrome trace of the solve (any
	// method), downloadable from /jobs/{id}/trace.
	Trace bool `json:"trace,omitempty"`

	// prob is what the job solves, built once by normalize from the
	// problem fields above, and variant the recurrence it runs, read
	// once by validate from the variant fields; the batch key, the plan
	// key and the prepared handle are all expressions over the two.
	prob    hpfexec.Problem
	variant hpfexec.Variant
}

// problem turns the job's three JSON shapes into its one problem
// description. A spec that names hpcg or stencil without the block
// describes its matrix fields instead; validation then rejects it by
// field.
func (sp *JobSpec) problem() hpfexec.Problem {
	switch {
	case sp.Method == "hpcg" && sp.MG != nil:
		return hpfexec.MG(mg.Spec(*sp.MG))
	case sp.Method == "stencil" && sp.Stencil != nil:
		return hpfexec.Stencil(mfree.Spec(*sp.Stencil))
	case sp.MatrixMarket != "":
		return hpfexec.Upload(sp.MatrixMarket)
	}
	return hpfexec.Generated(sp.Matrix)
}

// normalize fills defaults in place and builds the job's problem. Only
// a matrix job has a layout to default: the stencil backends take none.
func (sp *JobSpec) normalize() {
	sp.Method = cmp.Or(sp.Method, "cg")
	if sp.Method == "cg" {
		sp.Layout = cmp.Or(sp.Layout, "csr")
	}
	sp.NP, sp.Topology, sp.Seed = cmp.Or(sp.NP, 4), cmp.Or(sp.Topology, "hypercube"), cmp.Or(sp.Seed, 42)
	sp.Matrix = strings.TrimSpace(sp.Matrix)
	sp.prob = sp.problem()
}

// fieldErr names the offending request field, so the HTTP 400 a
// *ValidationError maps to tells the client exactly what to fix.
func fieldErr(field, format string, args ...any) error {
	return fmt.Errorf("serve: field %s: %s", field, fmt.Sprintf(format, args...))
}

// validate rejects requests the service cannot run, centrally and
// with field-named errors — numeric bounds (sstep, np, dims, levels,
// tolerances) and generator specs fail here at admission time with a
// 400 instead of deep in a worker — and reads the job's variant. The
// problem and the variant are the library's own checks, so admission
// and execution cannot disagree; what stays here is the JSON's: which
// problem block goes with which method, and which variant knobs go
// together. A malformed Matrix Market upload still surfaces when the
// job runs; validate only checks what is knowable for free.
func (sp *JobSpec) validate(maxNP int) error {
	matrix := sp.Matrix != "" || sp.MatrixMarket != ""
	switch {
	case sp.Method != "cg" && sp.Method != "hpcg" && sp.Method != "stencil":
		return fieldErr("method", "unsupported %q (cg, hpcg and stencil are served)", sp.Method)
	case sp.MG != nil && sp.Method != "hpcg":
		return fieldErr("mg", "only applies to hpcg jobs")
	case sp.Stencil != nil && sp.Method != "stencil":
		return fieldErr("stencil", "only applies to stencil jobs")
	case sp.Method == "hpcg" && sp.MG == nil:
		return fieldErr("mg", "hpcg jobs need the mg block ({nx,ny,nz,...})")
	case sp.Method == "stencil" && sp.Stencil == nil:
		return fieldErr("stencil", "stencil jobs need the stencil block ({stencil,nx,ny,...})")
	case sp.Method != "cg" && matrix:
		return fieldErr("matrix", "does not apply to %s jobs (the operator is generated)", sp.Method)
	case sp.Method == "cg" && !matrix:
		return fieldErr("matrix", "job needs matrix or matrix_market")
	}
	if sp.NP < 1 || sp.NP > maxNP {
		return fieldErr("np", "%d outside [1,%d]", sp.NP, maxNP)
	}
	if err := sp.prob.Validate(sp.NP); err != nil {
		return err
	}
	backend, err := sp.prob.Backend(sp.Layout)
	if err != nil {
		return err
	}
	if sp.variant, err = sp.readVariant(backend); err != nil {
		return err
	}
	if _, err := topology.ByName(sp.Topology); err != nil {
		return err
	}
	if sp.Tol < 0 {
		return fieldErr("tol", "negative tolerance %g", sp.Tol)
	}
	if sp.MaxIter < 0 {
		return fieldErr("maxiter", "negative bound %d", sp.MaxIter)
	}
	if sp.TimeoutMS < 0 {
		return fieldErr("timeout_ms", "negative bound %d", sp.TimeoutMS)
	}
	if sp.CkptInterval < 0 {
		return fieldErr("ckpt_interval", "negative bound %d", sp.CkptInterval)
	}
	if sp.MaxRestarts < 0 {
		return fieldErr("max_restarts", "negative bound %d", sp.MaxRestarts)
	}
	if sp.Fault != "" {
		if _, err := fault.Parse(sp.Fault); err != nil {
			return err
		}
	}
	return nil
}

// readVariant turns the job's three variant knobs into its one
// variant, checked against backend. A cg or stencil job that names
// neither sstep nor pipelined gets auto, the served default: the
// cheapest row of the §4 frontier, pipelined included. sstep 1 is
// plain, and an hpcg job always is; a resilient cg job runs the plain
// recurrence and does not read sstep. The combinations only the JSON
// can spell — a factor out of range, sstep on hpcg, a factor or plain
// beside another knob on a stencil job, pipelined with blocking or
// with resilient — are refused here, each naming its field; a fixed
// factor the layout does not run is the library's refusal even beside
// pipelined. On a library refusal the variant it refused is returned
// with the error.
func (sp *JobSpec) readVariant(backend string) (hpfexec.Variant, error) {
	s, cg, stencil := sp.SStep, sp.Method == "cg", sp.Method == "stencil"
	if sp.Resilient && cg {
		s = 1
	}
	v := hpfexec.SStep(max(s, 1))
	switch {
	case s < 0 || s > hpfexec.MaxSStep:
		return v, fieldErr("sstep", "%d outside [0,%d]", s, hpfexec.MaxSStep)
	case s != 0 && !cg && (s != 1 || !stencil):
		return v, fieldErr("sstep", "does not apply to %s jobs (the matrix-powers kernel needs an assembled matrix)", sp.Method)
	case s == 1 && stencil && (sp.Pipelined || sp.Resilient):
		return v, fieldErr("sstep", "1 is plain CG, which a stencil job cannot combine with pipelined or resilient")
	case sp.Pipelined && s >= 2:
		return v, cmp.Or(hpfexec.CheckVariant(backend, v), fieldErr("pipelined", "cannot combine with s-step blocking (sstep=%d)", s))
	case sp.Pipelined && sp.Resilient:
		return v, fieldErr("pipelined", "resilient mode checkpoints the plain recurrence only")
	case sp.Pipelined:
		v = hpfexec.Pipelined()
	case sp.Resilient:
		v = hpfexec.Resilient(sp.CkptInterval, sp.MaxRestarts)
	case s == 0 && (cg || stencil):
		v = hpfexec.Auto()
	}
	return v, hpfexec.CheckVariant(backend, v)
}

// batchable reports whether the job may coalesce with same-matrix
// jobs and run from a cached plan. Fault injection and tracing are
// attachments of a machine, which a cached plan must never carry, and
// a resilient solve takes one right-hand side, so each needs a run of
// its own.
func (sp *JobSpec) batchable() bool {
	return sp.Fault == "" && !sp.Resilient && !sp.Trace
}

// batchKey identifies the shared setup two jobs can amortize: the same
// matrix, assembled the same way, on the same machine shape. Tolerance,
// iteration caps, seeds and explicit right-hand sides stay per-job.
type batchKey struct {
	matrix   string
	layout   string
	np       int
	topology string
	// variant is the requested recurrence: jobs asking for different
	// ones run different solvers and must not share a dispatch.
	variant hpfexec.Variant
	// timeoutMS bounds the whole dispatch, so only jobs asking for the
	// same bound share one.
	timeoutMS int
}

func (sp *JobSpec) key() batchKey {
	return batchKey{matrix: sp.prob.String(), layout: sp.Layout, np: sp.NP, topology: sp.Topology, variant: sp.variant, timeoutMS: sp.TimeoutMS}
}

// ContentHash returns the canonical content digest of the job's
// problem (hpfexec.Problem.Hash): generated problems are hashed by
// their parameters (the matrix need not be generated), Matrix Market
// uploads by the canonical CSR digest, so two uploads of the same
// matrix — reordered entries, different whitespace — digest
// identically. The plan registry keys on this hash; computing it parses
// an upload, so only the process that solves the job does (the cluster
// router places by PlacementKey).
func (sp *JobSpec) ContentHash() (string, error) {
	p := sp.problem()
	return p.Hash()
}

// PlacementKey returns the string the cluster router consistent-hashes
// to pick the job's shard, computed without parsing anything: for
// generated problems the content hash itself, for an upload a digest of
// its text. Byte-identical uploads therefore share a shard and, there,
// a cached plan; a re-encoded upload of the same matrix may land on
// another shard, where it costs a plan-cache miss and returns the same
// answer, because the plan registry inside a shard keys on ContentHash.
func (sp *JobSpec) PlacementKey() string {
	p := sp.problem()
	if p.Kind() == "mm" {
		return sparse.HashUploadText(sp.MatrixMarket)
	}
	h, _ := p.Hash()
	return h
}

// planKey is the registry key: the matrix content plus everything that
// shapes the prepared plan — layout, machine size, topology, and the
// requested variant's canonical form (a widened powers schedule or an
// overlap solver is a different cached artifact than the single-level
// ghost schedule under plain CG). A generated problem's shape is
// already in its hash.
func (sp *JobSpec) planKey(hash string) string {
	return hash + "|" + sp.Layout + "|" + strconv.Itoa(sp.NP) + "|" + sp.Topology + "|" + sp.variant.String()
}

// State is a job's lifecycle position.
type State string

// Job lifecycle: Queued -> Running -> Done | Failed. Jobs rejected at
// admission are never stored.
const (
	StateQueued  State = "queued"
	StateRunning State = "running"
	StateDone    State = "done"
	StateFailed  State = "failed"
)

// Job is one admitted request. Mutable fields are guarded by the
// scheduler's lock; read them through Scheduler.View or after Done.
type Job struct {
	ID   string
	Spec JobSpec

	state     State
	err       string
	result    *JobResult
	traceJSON []byte

	submitted time.Time
	started   time.Time
	finished  time.Time

	done chan struct{}

	key       batchKey
	batchable bool
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// JobResult is the solver outcome the service reports.
type JobResult struct {
	X          []float64 `json:"x,omitempty"`
	Converged  bool      `json:"converged"`
	Iterations int       `json:"iterations"`
	Residual   float64   `json:"residual"`
	Strategy   string    `json:"strategy"`
	// ModelTime is the batch run's modeled makespan;
	// SolveModelTime this job's own modeled span within it, and
	// SetupModelTime the shared setup the batch paid once.
	ModelTime      float64 `json:"model_time"`
	SolveModelTime float64 `json:"solve_model_time"`
	SetupModelTime float64 `json:"setup_model_time"`
	// CommTime is the batch run's modeled communication time.
	CommTime float64 `json:"comm_time"`
	// BatchSize is how many jobs shared the run (1 = solo).
	BatchSize int `json:"batch_size"`
	// PlanCacheHit reports that the solve ran from a warm registry
	// plan: no partitioning, no inspector exchange, SetupModelTime 0.
	PlanCacheHit bool `json:"plan_cache_hit,omitempty"`
	// SStep is the blocking factor the solve actually ran with (the
	// cost model's choice when the request left it at 0); 1 is plain
	// CG. Replacements counts explicit residual replacements: for
	// s-step runs a nonzero value means the stability guard tripped
	// and the tail of the solve fell back to plain CG; resilient runs
	// count their restore-time replacements here.
	SStep        int `json:"sstep,omitempty"`
	Replacements int `json:"replacements,omitempty"`
	// Pipelined reports the solve ran the overlap-based pipelined
	// solver; Reductions is its allreduce round count (setup plus one
	// hidden round per iteration plus confirmation), the number a
	// latency-bound client wants to compare against 2x iterations for
	// plain CG.
	Pipelined  bool `json:"pipelined,omitempty"`
	Reductions int  `json:"reductions,omitempty"`
	// Attempts/Failures report resilient-mode recovery (0 otherwise).
	Attempts int `json:"attempts,omitempty"`
	Failures int `json:"failures,omitempty"`
	// Levels is the clamped multigrid hierarchy depth an hpcg job ran
	// with (0 for cg jobs).
	Levels int `json:"levels,omitempty"`
	// ModelGFlops is the HPCG-style figure of merit: the batch run's
	// charged floating-point operations over its modeled makespan, in
	// GFLOP/s of the modeled machine.
	ModelGFlops float64 `json:"model_gflops,omitempty"`
}

// JobView is the externally visible snapshot of a job.
type JobView struct {
	ID        string     `json:"id"`
	State     State      `json:"state"`
	Error     string     `json:"error,omitempty"`
	Result    *JobResult `json:"result,omitempty"`
	HasTrace  bool       `json:"has_trace,omitempty"`
	Submitted time.Time  `json:"submitted"`
	Started   time.Time  `json:"started,omitempty"`
	Finished  time.Time  `json:"finished,omitempty"`
	// QueueSeconds and RunSeconds are wall-clock stage latencies.
	QueueSeconds float64 `json:"queue_seconds,omitempty"`
	RunSeconds   float64 `json:"run_seconds,omitempty"`
}

// view snapshots the job; the caller holds the scheduler lock.
func (j *Job) view() JobView {
	v := JobView{
		ID:        j.ID,
		State:     j.state,
		Error:     j.err,
		Result:    j.result,
		HasTrace:  len(j.traceJSON) > 0,
		Submitted: j.submitted,
		Started:   j.started,
		Finished:  j.finished,
	}
	if !j.started.IsZero() {
		v.QueueSeconds = j.started.Sub(j.submitted).Seconds()
	}
	if !j.finished.IsZero() {
		v.RunSeconds = j.finished.Sub(j.started).Seconds()
	}
	return v
}
