// Tests for the stencil job type: matrix-free CG end to end through
// the scheduler, zero modeled setup cold AND warm, batching and
// plan-cache warmth, field-named admission errors, and the stencil
// job_type metric series.
package serve

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func stencilJob() JobSpec {
	return JobSpec{Method: "stencil", Stencil: &StencilSpec{Stencil: "5pt", Nx: 10, Ny: 6}, NP: 2}
}

// TestStencilJobEndToEnd: a stencil job converges through the service,
// reports the matrix-free strategy, and — the subsystem's headline —
// pays zero modeled setup on its very first (cold) dispatch.
func TestStencilJobEndToEnd(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Drain(testCtx(t))
	j, err := s.Submit(stencilJob())
	if err != nil {
		t.Fatal(err)
	}
	v, err := s.Wait(testCtx(t), j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if v.State != StateDone {
		t.Fatalf("state %s (err %q)", v.State, v.Error)
	}
	r := v.Result
	if !r.Converged {
		t.Fatalf("did not converge: %+v", r)
	}
	if !strings.Contains(r.Strategy, "mfree") {
		t.Errorf("strategy %q, want a matrix-free mode", r.Strategy)
	}
	if r.SetupModelTime != 0 {
		t.Errorf("cold setup_model_time = %g, want exactly 0", r.SetupModelTime)
	}
	if want := 10 * 6; len(r.X) != want {
		t.Errorf("len(x) = %d, want %d", len(r.X), want)
	}
}

// TestStencilBatchingAndWarmPlan: same-spec stencil jobs coalesce, and
// a follow-up request runs from the cached handle (plan_cache_hit) with
// setup still exactly zero and bit-identical answers.
func TestStencilBatchingAndWarmPlan(t *testing.T) {
	s := New(Options{Workers: 1, MaxBatch: 8, StartPaused: true})
	defer s.Drain(testCtx(t))
	const njobs = 3
	ids := make([]string, njobs)
	for k := 0; k < njobs; k++ {
		sp := stencilJob()
		sp.Seed = 7
		j, err := s.Submit(sp)
		if err != nil {
			t.Fatal(err)
		}
		ids[k] = j.ID
	}
	s.resume()
	var x0 []float64
	for k, id := range ids {
		v, err := s.Wait(testCtx(t), id)
		if err != nil {
			t.Fatal(err)
		}
		if v.State != StateDone {
			t.Fatalf("job %d: state %s (err %q)", k, v.State, v.Error)
		}
		if v.Result.BatchSize != njobs {
			t.Fatalf("job %d: batch size %d, want %d", k, v.Result.BatchSize, njobs)
		}
		if v.Result.SetupModelTime != 0 {
			t.Fatalf("job %d: setup_model_time = %g, want exactly 0", k, v.Result.SetupModelTime)
		}
		if k == 0 {
			x0 = v.Result.X
			continue
		}
		for i := range x0 {
			if v.Result.X[i] != x0[i] {
				t.Fatalf("job %d: x[%d] = %v, job 0 %v", k, i, v.Result.X[i], x0[i])
			}
		}
	}

	// Second window against the same stencil: the cached handle is warm.
	sp := stencilJob()
	sp.Seed = 7
	j, err := s.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	v, err := s.Wait(testCtx(t), j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if v.State != StateDone {
		t.Fatalf("warm job: state %s (err %q)", v.State, v.Error)
	}
	if !v.Result.PlanCacheHit {
		t.Error("warm job: plan_cache_hit = false")
	}
	if v.Result.SetupModelTime != 0 {
		t.Errorf("warm job: setup_model_time = %g, want exactly 0", v.Result.SetupModelTime)
	}
	for i := range x0 {
		if v.Result.X[i] != x0[i] {
			t.Fatalf("warm job: x[%d] = %v, cold %v (warmth broke bit-identity)", i, v.Result.X[i], x0[i])
		}
	}
	if st := s.PlanCacheStats(); st.Hits == 0 {
		t.Errorf("plan cache recorded no hits: %+v", st)
	}
}

// TestStencilValidationFieldNames: malformed stencil specs are rejected
// at admission with a ValidationError naming the offending field — the
// geometry check (slab thinner than the machine) included.
func TestStencilValidationFieldNames(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Drain(testCtx(t))
	cases := []struct {
		spec  JobSpec
		field string
	}{
		{JobSpec{Method: "stencil"}, "stencil"},
		{JobSpec{Method: "stencil", Stencil: &StencilSpec{Stencil: "9pt", Nx: 4, Ny: 4}}, "stencil"},
		{JobSpec{Method: "stencil", Stencil: &StencilSpec{Stencil: "5pt", Nx: 4, Ny: 0}}, "stencil"},
		{JobSpec{Method: "stencil", Stencil: &StencilSpec{Stencil: "5pt", Nx: 2, Ny: 8}, NP: 4}, "stencil"},
		{JobSpec{Method: "stencil", Stencil: &StencilSpec{Stencil: "5pt", Nx: 8, Ny: 8}, Matrix: "laplace1d:8"}, "matrix"},
		{JobSpec{Method: "stencil", Stencil: &StencilSpec{Stencil: "5pt", Nx: 8, Ny: 8}, SStep: 2}, "sstep"},
		{JobSpec{Method: "stencil", Stencil: &StencilSpec{Stencil: "5pt", Nx: 8, Ny: 8}, MG: &MGSpec{Nx: 4, Ny: 4, Nz: 4}}, "mg"},
		{JobSpec{Method: "stencil", Stencil: &StencilSpec{Stencil: "5pt", Nx: 8, Ny: 8}, Resilient: true}, "resilient"},
		{JobSpec{Method: "hpcg", MG: &MGSpec{Nx: 4, Ny: 4, Nz: 4}, Resilient: true}, "resilient"},
		{JobSpec{Matrix: "laplace1d:8", Stencil: &StencilSpec{Stencil: "5pt", Nx: 8, Ny: 8}}, "stencil"},
		{JobSpec{Method: "hpcg", MG: &MGSpec{Nx: 4, Ny: 4, Nz: 4}, Stencil: &StencilSpec{Stencil: "5pt", Nx: 8, Ny: 8}}, "stencil"},
		// A layout applies to an assembled matrix only: the stencil
		// backends never read it, so naming one is refused, not keyed.
		{JobSpec{Method: "stencil", Stencil: &StencilSpec{Stencil: "5pt", Nx: 8, Ny: 8}, Layout: "csc-merge"}, "layout"},
		{JobSpec{Method: "stencil", Stencil: &StencilSpec{Stencil: "5pt", Nx: 8, Ny: 8}, Layout: "balanced"}, "layout"},
		{JobSpec{Method: "stencil", Stencil: &StencilSpec{Stencil: "5pt", Nx: 8, Ny: 8}, Layout: "csr"}, "layout"},
		{JobSpec{Method: "hpcg", MG: &MGSpec{Nx: 4, Ny: 4, Nz: 4}, Layout: "csc-serial"}, "layout"},
	}
	for i, c := range cases {
		_, err := s.Submit(c.spec)
		var verr *ValidationError
		if !errors.As(err, &verr) {
			t.Errorf("case %d: err = %v, want ValidationError", i, err)
			continue
		}
		if !strings.Contains(err.Error(), "field "+c.field) {
			t.Errorf("case %d: error %q does not name field %q", i, err, c.field)
		}
	}
	// The mg block has no coarse-solve knob: the decoder refuses one as
	// it refuses any unknown field.
	body := `{"method":"hpcg","mg":{"nx":4,"ny":4,"nz":4,"coarse":"direct"}}`
	if _, err := DecodeJobSpec([]byte(body)); err == nil || !strings.Contains(err.Error(), `unknown field "coarse"`) {
		t.Errorf("DecodeJobSpec(%s) = %v, want the unknown-field refusal", body, err)
	}
}

// TestStencilMetricsJobType: stencil traffic lands in its own job_type
// series, and the series is exported (zero) before first traffic.
func TestStencilMetricsJobType(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Drain(testCtx(t))

	var buf bytes.Buffer
	s.Metrics().WriteProm(&buf)
	if !strings.Contains(buf.String(), `hpfserve_jobs_submitted_total{job_type="stencil"} 0`) {
		t.Errorf("stencil series not seeded before traffic:\n%s", buf.String())
	}

	j, err := s.Submit(stencilJob())
	if err != nil {
		t.Fatal(err)
	}
	if v, err := s.Wait(testCtx(t), j.ID); err != nil || v.State != StateDone {
		t.Fatalf("job failed: %v %+v", err, v)
	}
	buf.Reset()
	s.Metrics().WriteProm(&buf)
	out := buf.String()
	for _, want := range []string{
		`hpfserve_jobs_submitted_total{job_type="stencil"} 1`,
		`hpfserve_jobs_completed_total{job_type="stencil"} 1`,
		`hpfserve_stage_seconds_bucket{stage="solve",job_type="stencil",le="+Inf"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q\n%s", want, out)
		}
	}
}

// TestStencilRegistryDisabled: with the plan cache off the stencil path
// still runs per dispatch — and setup is still exactly zero, because
// there is no inspector to skip in the first place.
func TestStencilRegistryDisabled(t *testing.T) {
	s := New(Options{Workers: 1, PlanCacheBytes: -1})
	defer s.Drain(testCtx(t))
	j, err := s.Submit(stencilJob())
	if err != nil {
		t.Fatal(err)
	}
	v, err := s.Wait(testCtx(t), j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if v.State != StateDone || !v.Result.Converged {
		t.Fatalf("state %s (err %q)", v.State, v.Error)
	}
	if v.Result.PlanCacheHit {
		t.Error("plan_cache_hit with the registry disabled")
	}
	if v.Result.SetupModelTime != 0 {
		t.Errorf("setup_model_time = %g, want exactly 0", v.Result.SetupModelTime)
	}
}
