package serve

import (
	"errors"
	"strings"
	"testing"

	"hpfcg/internal/comm"
	"hpfcg/internal/hpfexec"
	"hpfcg/internal/sparse"
	"hpfcg/internal/topology"
)

// A pipelined job must answer bit-identically to the direct
// a direct hpfexec pipelined solve, report the pipelined strategy, and count
// one (hidden) allreduce round per iteration plus the bookkeeping
// rounds — the number the JSON surfaces as "reductions".
func TestPipelinedJobBitIdenticalToDirect(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Drain(testCtx(t))
	spec := JobSpec{Matrix: "banded:128:4", NP: 4, Seed: 11, Pipelined: true}
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	v, err := s.Wait(testCtx(t), j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if v.State != StateDone || !v.Result.Converged {
		t.Fatalf("job %+v", v)
	}
	if !v.Result.Pipelined {
		t.Fatal("result does not report pipelined")
	}
	if !strings.Contains(v.Result.Strategy, "pipelined") {
		t.Fatalf("strategy %q lacks the pipelined marker", v.Result.Strategy)
	}
	if v.Result.Replacements != 0 {
		t.Fatalf("drift guard tripped (%d replacements) on a band", v.Result.Replacements)
	}
	if want := v.Result.Iterations + 3; v.Result.Reductions != want {
		t.Fatalf("%d reductions for %d iterations, want %d", v.Result.Reductions, v.Result.Iterations, want)
	}

	A, err := sparse.GeneratorByName(spec.Matrix)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := hpfexec.PlanForLayout("csr", spec.NP, A.NRows, A.NNZ())
	if err != nil {
		t.Fatal(err)
	}
	m := comm.NewMachine(spec.NP, topology.Hypercube{}, topology.DefaultCostParams())
	b := sparse.RandomVector(A.NRows, spec.Seed)
	want := directVariant(t, m, plan, A, b, hpfexec.Pipelined())
	for i := range want.X {
		if v.Result.X[i] != want.X[i] {
			t.Fatalf("x[%d] = %v, direct %v", i, v.Result.X[i], want.X[i])
		}
	}
	if v.Result.Iterations != want.Stats.Iterations {
		t.Fatalf("iterations %d, direct %d", v.Result.Iterations, want.Stats.Iterations)
	}
}

// Repeat pipelined traffic against the same matrix content must land
// on the cached overlap plan (plan_cache_hit, setup exactly 0) while a
// blocking job over the same matrix keeps its own plan — the pipe
// suffix in the registry key separates the two solvers.
func TestPipelinedPlanCacheSeparatesSolvers(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Drain(testCtx(t))
	run := func(spec JobSpec) *JobResult {
		t.Helper()
		j, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		v, err := s.Wait(testCtx(t), j.ID)
		if err != nil {
			t.Fatal(err)
		}
		if v.State != StateDone || !v.Result.Converged {
			t.Fatalf("job %+v", v)
		}
		return v.Result
	}

	pipe := JobSpec{Matrix: "laplace2d:12:12", NP: 4, Seed: 3, Pipelined: true}
	cold := run(pipe)
	if cold.PlanCacheHit || cold.SetupModelTime <= 0 {
		t.Fatalf("cold pipelined job: hit=%v setup=%g", cold.PlanCacheHit, cold.SetupModelTime)
	}
	warm := run(pipe)
	if !warm.PlanCacheHit || warm.SetupModelTime != 0 {
		t.Fatalf("warm pipelined job: hit=%v setup=%g, want hit with setup exactly 0", warm.PlanCacheHit, warm.SetupModelTime)
	}
	if !warm.Pipelined {
		t.Fatal("warm result does not report pipelined")
	}
	for i := range cold.X {
		if cold.X[i] != warm.X[i] {
			t.Fatalf("warm x[%d] differs: %v vs %v", i, warm.X[i], cold.X[i])
		}
	}

	// Same matrix, blocking solver: must NOT hit the pipelined plan. A
	// default job may resolve to pipelined, so this one asks for plain.
	block := run(JobSpec{Matrix: "laplace2d:12:12", NP: 4, Seed: 3, SStep: 1})
	if block.PlanCacheHit {
		t.Fatal("blocking job hit the pipelined plan cache entry")
	}
	if block.Pipelined {
		t.Fatal("blocking job reports pipelined")
	}
}

// A pipelined stencil job runs the overlap solver on the matrix-free
// handle: zero modeled setup and the pipelined round count.
func TestPipelinedStencilJob(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Drain(testCtx(t))
	spec := JobSpec{
		Method:    "stencil",
		Stencil:   &StencilSpec{Stencil: "5pt", Nx: 10, Ny: 6},
		NP:        4,
		Seed:      7,
		Pipelined: true,
	}
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	v, err := s.Wait(testCtx(t), j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if v.State != StateDone || !v.Result.Converged {
		t.Fatalf("job %+v", v)
	}
	if !v.Result.Pipelined {
		t.Fatal("stencil result does not report pipelined")
	}
	if v.Result.SetupModelTime != 0 {
		t.Fatalf("stencil setup %g, want exactly 0", v.Result.SetupModelTime)
	}
	if want := v.Result.Iterations + 3; v.Result.Reductions != want {
		t.Fatalf("%d reductions for %d iterations, want %d", v.Result.Reductions, v.Result.Iterations, want)
	}
}

// Admission must reject every combination the pipelined solver has no
// form for, each with a field-named 400.
func TestPipelinedValidation(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Drain(testCtx(t))
	for i, tc := range []struct {
		spec JobSpec
		frag string
	}{
		{JobSpec{Matrix: "laplace2d:8:8", Layout: "csc-merge", Pipelined: true}, "CSR layout"},
		{JobSpec{Matrix: "laplace2d:8:8", SStep: 4, Pipelined: true}, "s-step"},
		{JobSpec{Matrix: "laplace2d:8:8", Resilient: true, Pipelined: true}, "resilient"},
		{JobSpec{Method: "hpcg", MG: &MGSpec{Nx: 4, Ny: 4, Nz: 4}, Pipelined: true}, "hpcg"},
	} {
		_, err := s.Submit(tc.spec)
		var verr *ValidationError
		if !errors.As(err, &verr) {
			t.Fatalf("spec %d: err = %v, want ValidationError", i, err)
		}
		if !strings.Contains(err.Error(), "pipelined") || !strings.Contains(err.Error(), tc.frag) {
			t.Fatalf("spec %d: error %q does not name the pipelined conflict (%q)", i, err, tc.frag)
		}
	}
}
