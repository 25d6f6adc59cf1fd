// Tests for the hpcg job type: the stencil problem end to end through
// the scheduler, batching and plan-cache warmth, the figure of merit,
// field-named admission errors, and job_type-labeled metrics.
package serve

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func hpcgSpec() JobSpec {
	return JobSpec{Method: "hpcg", MG: &MGSpec{Nx: 4, Ny: 4, Nz: 4, Levels: 3}, NP: 2}
}

// TestHPCGJobEndToEnd: an hpcg job converges through the service and
// reports the V-cycle strategy, hierarchy depth and figure of merit.
func TestHPCGJobEndToEnd(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Drain(testCtx(t))
	j, err := s.Submit(hpcgSpec())
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
	if !strings.Contains(r.Strategy, "mg-vcycle") {
		t.Errorf("strategy %q, want an mg-vcycle mode", r.Strategy)
	}
	if r.Levels != 3 {
		t.Errorf("levels = %d, want 3", r.Levels)
	}
	if r.ModelGFlops <= 0 {
		t.Errorf("model_gflops = %g, want > 0 (FoM missing)", r.ModelGFlops)
	}
	if want := 4 * 4 * 4 * 2; len(r.X) != want {
		t.Errorf("len(x) = %d, want %d", len(r.X), want)
	}
}

// TestHPCGBatchingAndWarmPlan: same-spec hpcg jobs coalesce into one
// dispatch, and a follow-up batch runs from the warm cached hierarchy
// (plan_cache_hit, setup_model_time exactly 0) with bit-identical
// answers for an identical request.
func TestHPCGBatchingAndWarmPlan(t *testing.T) {
	s := New(Options{Workers: 1, MaxBatch: 8, StartPaused: true})
	defer s.Drain(testCtx(t))
	const njobs = 3
	ids := make([]string, njobs)
	for k := 0; k < njobs; k++ {
		sp := hpcgSpec()
		sp.Seed = 7 // identical jobs: answers must agree bit-for-bit
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

	// Second window against the same stencil: the cached plan is warm.
	sp := hpcgSpec()
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

// TestHPCGValidationFieldNames: malformed hpcg specs are rejected at
// admission with a ValidationError naming the offending field.
func TestHPCGValidationFieldNames(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Drain(testCtx(t))
	cases := []struct {
		spec  JobSpec
		field string
	}{
		{JobSpec{Method: "hpcg"}, "mg"},
		{JobSpec{Method: "hpcg", MG: &MGSpec{Nx: 0, Ny: 4, Nz: 4}}, "mg.nx"},
		{JobSpec{Method: "hpcg", MG: &MGSpec{Nx: 4, Ny: 4, Nz: 4, Levels: 99}}, "mg.levels"},
		{JobSpec{Method: "hpcg", MG: &MGSpec{Nx: 4, Ny: 4, Nz: 4, Smooths: 99}}, "mg.smooths"},
		{JobSpec{Method: "hpcg", MG: &MGSpec{Nx: 4, Ny: 4, Nz: 4}, Matrix: "laplace1d:8"}, "matrix"},
		{JobSpec{Method: "hpcg", MG: &MGSpec{Nx: 4, Ny: 4, Nz: 4}, SStep: 2}, "sstep"},
		{JobSpec{Method: "hpcg", MG: &MGSpec{Nx: 4, Ny: 4, Nz: 4}, Tol: -1}, "tol"},
		{JobSpec{Matrix: "laplace1d:8", MG: &MGSpec{Nx: 4, Ny: 4, Nz: 4}}, "mg"},
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
}

// TestMetricsJobTypeLabels: cg and hpcg traffic land in separate
// job_type series under shared HELP/TYPE headers.
func TestMetricsJobTypeLabels(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Drain(testCtx(t))
	for _, spec := range []JobSpec{{Matrix: "laplace1d:32", NP: 2}, hpcgSpec()} {
		j, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if v, err := s.Wait(testCtx(t), j.ID); err != nil || v.State != StateDone {
			t.Fatalf("job failed: %v %+v", err, v)
		}
	}
	var buf bytes.Buffer
	s.Metrics().WriteProm(&buf)
	out := buf.String()
	for _, want := range []string{
		`hpfserve_jobs_submitted_total{job_type="cg"} 1`,
		`hpfserve_jobs_submitted_total{job_type="hpcg"} 1`,
		`hpfserve_jobs_completed_total{job_type="cg"} 1`,
		`hpfserve_jobs_completed_total{job_type="hpcg"} 1`,
		`hpfserve_stage_seconds_bucket{stage="queue",job_type="hpcg",le="+Inf"} 1`,
		`hpfserve_stage_seconds_bucket{stage="solve",job_type="hpcg",le="+Inf"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q\n%s", want, out)
		}
	}
	for _, family := range []string{
		"hpfserve_jobs_submitted_total",
		"hpfserve_jobs_completed_total",
		"hpfserve_stage_seconds",
	} {
		if n := strings.Count(out, "# TYPE "+family+" "); n != 1 {
			t.Errorf("family %s has %d TYPE lines, want 1", family, n)
		}
	}
}

// TestHPCGRegistryDisabled: with the plan cache off the hpcg path
// still runs (per-dispatch prepare on the worker's machine).
func TestHPCGRegistryDisabled(t *testing.T) {
	s := New(Options{Workers: 1, PlanCacheBytes: -1})
	defer s.Drain(testCtx(t))
	j, err := s.Submit(hpcgSpec())
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
	if v.Result.ModelGFlops <= 0 {
		t.Errorf("model_gflops = %g, want > 0", v.Result.ModelGFlops)
	}
}
