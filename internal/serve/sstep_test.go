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

// A default job (sstep absent) runs the variant of the cost model's
// cheapest Frontier row, pipelined included: on a 4-processor machine
// the pipelined row hides the latency term, and the service must report
// it — the pipelined flag, sstep 0 and the strategy's pipelined marker.
func TestAutoSelection(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Drain(testCtx(t))
	j, err := s.Submit(JobSpec{Matrix: "laplace2d:12:12", NP: 4, Seed: 3})
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
	pr, err := hpfexec.Open(comm.NewMachine(4, topology.Hypercube{}, topology.DefaultCostParams()), hpfexec.Generated("laplace2d:12:12"), "")
	if err != nil {
		t.Fatal(err)
	}
	want := hpfexec.Cheapest(pr.Frontier()).Variant
	if want != hpfexec.Pipelined() {
		t.Fatalf("cost model chose %v at np=4, want pipelined", want)
	}
	if !v.Result.Pipelined || v.Result.SStep != want.Factor() || !strings.HasSuffix(v.Result.Strategy, "/ pipelined") {
		t.Fatalf("service ran pipelined=%v sstep=%d strategy %q, cost model says %v", v.Result.Pipelined, v.Result.SStep, v.Result.Strategy, want)
	}
}

// A fixed sstep job must answer bit-identically to the direct
// a direct hpfexec s-step solve at the same factor.
func TestSStepFixedBitIdenticalToDirect(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Drain(testCtx(t))
	spec := JobSpec{Matrix: "banded:128:4", NP: 4, Seed: 11, SStep: 4}
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
	if v.Result.SStep != 4 || v.Result.Replacements != 0 {
		t.Fatalf("result s=%d replacements=%d, want 4/0", v.Result.SStep, v.Result.Replacements)
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
	want := directVariant(t, m, plan, A, b, hpfexec.SStep(4))
	for i := range want.X {
		if v.Result.X[i] != want.X[i] {
			t.Fatalf("x[%d] service %v != direct %v", i, v.Result.X[i], want.X[i])
		}
	}
	if v.Result.Strategy != want.Strategy.String() {
		t.Fatalf("strategy %q != %q", v.Result.Strategy, want.Strategy)
	}
}

// Validation: out-of-range factors and CSC layouts are rejected at
// admission; resilient jobs silently run plain CG.
func TestSStepValidationAndResilientForce(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Drain(testCtx(t))
	var verr *ValidationError
	if _, err := s.Submit(JobSpec{Matrix: "laplace1d:32", NP: 2, SStep: -1}); !errors.As(err, &verr) {
		t.Fatalf("sstep=-1 admitted: %v", err)
	}
	if _, err := s.Submit(JobSpec{Matrix: "laplace1d:32", NP: 2, SStep: hpfexec.MaxSStep + 1}); !errors.As(err, &verr) {
		t.Fatalf("oversized sstep admitted: %v", err)
	}
	if _, err := s.Submit(JobSpec{Matrix: "laplace1d:32", NP: 2, Layout: "csc-merge", SStep: 2}); !errors.As(err, &verr) {
		t.Fatalf("sstep on CSC admitted: %v", err)
	}

	j, err := s.Submit(JobSpec{Matrix: "laplace1d:48", NP: 2, Resilient: true, SStep: 8})
	if err != nil {
		t.Fatal(err)
	}
	v, err := s.Wait(testCtx(t), j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if v.State != StateDone || !v.Result.Converged {
		t.Fatalf("resilient job %+v", v)
	}
	if v.Result.SStep != 1 {
		t.Fatalf("resilient job ran s=%d, want forced 1", v.Result.SStep)
	}
}

// Jobs asking for different blocking factors run different solvers and
// must not coalesce into one batch.
func TestSStepBatchKeySeparates(t *testing.T) {
	s := New(Options{Workers: 1, MaxBatch: 8, StartPaused: true})
	defer s.Drain(testCtx(t))
	j1, err := s.Submit(JobSpec{Matrix: "laplace1d:64", NP: 2, SStep: 1})
	if err != nil {
		t.Fatal(err)
	}
	j2, err := s.Submit(JobSpec{Matrix: "laplace1d:64", NP: 2, SStep: 4})
	if err != nil {
		t.Fatal(err)
	}
	s.resume()
	for _, id := range []string{j1.ID, j2.ID} {
		v, err := s.Wait(testCtx(t), id)
		if err != nil {
			t.Fatal(err)
		}
		if v.State != StateDone || v.Result.BatchSize != 1 {
			t.Fatalf("%s: state %s batch %d, want done/1", id, v.State, v.Result.BatchSize)
		}
	}
	if hits := s.PlanCacheStats().Hits; hits != 0 {
		t.Fatalf("plan cache hits %d across distinct sstep keys, want 0", hits)
	}
}
