// Tests of the one dispatch (Scheduler.run): what used to be separate
// run paths — batched, registry-less, solo — must now differ only in
// where the handle comes from.
package serve

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"hpfcg/internal/hpfexec"
	"hpfcg/internal/sparse"
)

// TestBatchBreakdownFailsOnlyItsJob: three strangers' jobs coalesce
// over one uploaded matrix and the middle one's right-hand side breaks
// CG down. It fails alone; the other two finish with the bits they get
// solved solo.
func TestBatchBreakdownFailsOnlyItsJob(t *testing.T) {
	// Block-diagonal [[1,1],[1,1]]: b = (1,1,…) converges, b = (1,-1,…)
	// gives p·Ap = 0 at iteration 1.
	const n = 16
	coo := sparse.NewCOO(n, n)
	good, bad := make([]float64, n), make([]float64, n)
	for i := 0; i < n; i += 2 {
		coo.Add(i, i, 1)
		coo.Add(i, i+1, 1)
		coo.Add(i+1, i, 1)
		coo.Add(i+1, i+1, 1)
		good[i], good[i+1] = 1, 1
		bad[i], bad[i+1] = 1, -1
	}
	var mm bytes.Buffer
	if err := sparse.WriteMatrixMarket(&mm, coo.ToCSR()); err != nil {
		t.Fatal(err)
	}
	job := func(rhs []float64) JobSpec { return JobSpec{MatrixMarket: mm.String(), NP: 2, RHS: rhs} }

	solo := New(Options{Workers: 1})
	defer solo.Drain(testCtx(t))
	j, err := solo.Submit(job(good))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := solo.Wait(testCtx(t), j.ID)
	if err != nil || ref.State != StateDone || !ref.Result.Converged {
		t.Fatalf("the good right-hand side alone: %v %+v", err, ref)
	}

	s := New(Options{Workers: 1, MaxBatch: 8, StartPaused: true})
	defer s.Drain(testCtx(t))
	var ids []string
	for _, rhs := range [][]float64{good, bad, good} {
		j, err := s.Submit(job(rhs))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	s.resume()
	for k, id := range ids {
		v, err := s.Wait(testCtx(t), id)
		if err != nil {
			t.Fatal(err)
		}
		if k == 1 {
			if v.State != StateFailed || !strings.Contains(v.Error, "breakdown") {
				t.Fatalf("bad job: state %s err %q, want failed with the breakdown", v.State, v.Error)
			}
			continue
		}
		if v.State != StateDone || !v.Result.Converged {
			t.Fatalf("good job %d: state %s err %q — a stranger's breakdown voided it", k, v.State, v.Error)
		}
		if v.Result.BatchSize != 3 {
			t.Fatalf("good job %d: batch size %d, want the forced batch of 3", k, v.Result.BatchSize)
		}
		for i := range ref.Result.X {
			if v.Result.X[i] != ref.Result.X[i] {
				t.Fatalf("good job %d: x[%d] = %v, solo %v", k, i, v.Result.X[i], ref.Result.X[i])
			}
		}
	}
	var buf bytes.Buffer
	s.Metrics().WriteProm(&buf)
	for _, want := range []string{
		"hpfserve_jobs_completed_total{job_type=\"cg\"} 2\n",
		"hpfserve_jobs_failed_total{job_type=\"cg\"} 1\n",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("metrics lack %q", strings.TrimSpace(want))
		}
	}
}

// TestAttachedJobAccounting: a job with an attachment reports its
// modeled time from the same clock marks as a batched job — setup is
// not folded into the solve span, and the setup counter sees it.
func TestAttachedJobAccounting(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Drain(testCtx(t))
	j, err := s.Submit(JobSpec{Matrix: "laplace2d:12:12", NP: 4, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	v, err := s.Wait(testCtx(t), j.ID)
	if err != nil || v.State != StateDone {
		t.Fatalf("traced job: %v %+v", err, v)
	}
	r := v.Result
	if r.SetupModelTime <= 0 {
		t.Errorf("setup_model_time = %g, want > 0 (cold inspector exchange)", r.SetupModelTime)
	}
	if r.SetupModelTime+r.SolveModelTime != r.ModelTime {
		t.Errorf("setup %g + solve %g != model_time %g", r.SetupModelTime, r.SolveModelTime, r.ModelTime)
	}
	if r.PlanCacheHit {
		t.Error("attached job reports a plan-cache hit")
	}
	if st := s.PlanCacheStats(); st.Hits+st.Misses+uint64(st.Entries) != 0 {
		t.Errorf("attached job touched the plan registry: %+v", st)
	}
	var buf bytes.Buffer
	s.Metrics().WriteProm(&buf)
	want := fmt.Sprintf("hpfserve_model_seconds_total{kind=%q} %g\n", "setup", r.SetupModelTime)
	if !strings.Contains(buf.String(), want) {
		t.Errorf("metrics lack %q", strings.TrimSpace(want))
	}
}

// runJob submits one job and waits for its terminal view.
func runJob(t *testing.T, s *Scheduler, spec JobSpec) JobView {
	t.Helper()
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("%s job refused: %v", spec.Method, err)
	}
	v, err := s.Wait(testCtx(t), j.ID)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestAttachmentsOnEveryMethod: trace, timeout_ms and fault are
// accepted on hpcg and stencil jobs and do what they do on cg jobs — a
// downloadable trace, a deadline error, a typed peer failure.
func TestAttachmentsOnEveryMethod(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Drain(testCtx(t))
	methods := map[string]JobSpec{
		"hpcg":    {Method: "hpcg", MG: &MGSpec{Nx: 8, Ny: 8, Nz: 8}, NP: 4},
		"stencil": {Method: "stencil", Stencil: &StencilSpec{Stencil: "27pt", Nx: 12, Ny: 12, Nz: 16}, NP: 4},
	}
	run := func(spec JobSpec) JobView { return runJob(t, s, spec) }
	for name, base := range methods {
		plain := run(base)
		if plain.State != StateDone {
			t.Fatalf("%s: plain job %+v", name, plain)
		}

		traced := base
		traced.Trace = true
		v := run(traced)
		if v.State != StateDone || !v.HasTrace {
			t.Fatalf("%s: traced job state %s err %q has_trace %v", name, v.State, v.Error, v.HasTrace)
		}
		if tr, ok := s.TraceJSON(v.ID); !ok || !bytes.Contains(tr, []byte("traceEvents")) {
			t.Errorf("%s: trace JSON missing or malformed (%d bytes)", name, len(tr))
		}
		for i := range plain.Result.X {
			if v.Result.X[i] != plain.Result.X[i] {
				t.Fatalf("%s: traced x[%d] = %v, plain %v", name, i, v.Result.X[i], plain.Result.X[i])
			}
		}

		// A deadline is not an attachment: the job runs from the plain
		// job's cached plan. (Its solve span may differ in the last
		// digits by batch position, so only the answer is compared.)
		roomy := base
		roomy.TimeoutMS = 30000
		if v := run(roomy); v.State != StateDone || !v.Result.PlanCacheHit || v.Result.Iterations != plain.Result.Iterations {
			t.Errorf("%s: timeout_ms=30000 job state %s err %q, want done from the plain job's cached plan in %d iterations",
				name, v.State, v.Error, plain.Result.Iterations)
		} else {
			for i := range plain.Result.X {
				if v.Result.X[i] != plain.Result.X[i] {
					t.Fatalf("%s: timeout_ms=30000 x[%d] = %v, plain %v", name, i, v.Result.X[i], plain.Result.X[i])
				}
			}
		}

		// A 1 ms deadline on a solve that takes longer. Like any race
		// against a timer it may legitimately finish first; try again.
		tight := base
		tight.TimeoutMS = 1
		tight.Tol = 1e-300
		tight.MaxIter = 2000
		tripped := false
		for try := 0; try < 20 && !tripped; try++ {
			v := run(tight)
			tripped = v.State == StateFailed && strings.Contains(v.Error, "deadlocked")
			if !tripped && v.State != StateDone {
				t.Fatalf("%s: timeout job state %s err %q, want done or the deadline error", name, v.State, v.Error)
			}
		}
		if !tripped {
			t.Errorf("%s: timeout_ms=1 never produced a deadline error", name)
		}

		crashed := base
		crashed.Fault = "crash:rank=1@t=0.05ms"
		if v := run(crashed); v.State != StateFailed || !strings.Contains(v.Error, "processor 1") {
			t.Errorf("%s: fault job state %s err %q, want failure naming processor 1", name, v.State, v.Error)
		}
	}
}

// TestDeadlineJobsBatchByBound: a deadline covers the dispatch a job
// runs in, so same-matrix jobs coalesce only with jobs asking for the
// same bound.
func TestDeadlineJobsBatchByBound(t *testing.T) {
	s := New(Options{Workers: 1, MaxBatch: 8, StartPaused: true})
	defer s.Drain(testCtx(t))
	var ids []string
	for k, ms := range []int{30000, 30000, 0} {
		j, err := s.Submit(JobSpec{Matrix: "laplace2d:12:12", NP: 4, Seed: int64(k + 1), TimeoutMS: ms})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	s.resume()
	for k, want := range []int{2, 2, 1} {
		v, err := s.Wait(testCtx(t), ids[k])
		if err != nil {
			t.Fatal(err)
		}
		if v.State != StateDone || v.Result.BatchSize != want {
			t.Errorf("job %d: state %s err %q batch %+v, want done in a batch of %d", k, v.State, v.Error, v.Result, want)
		}
	}
}

// TestDroppedMessageJobFails: a fault spec that drops a message fails
// its job with a typed failure naming the sender — it used to panic the
// worker, taking the whole service down — and the scheduler serves the
// next job as usual.
func TestDroppedMessageJobFails(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Drain(testCtx(t))
	v := runJob(t, s, JobSpec{Matrix: "laplace2d:32:32", NP: 4, Fault: "drop:rank=1,n=1,dst=0"})
	if v.State != StateFailed || !strings.Contains(v.Error, "processor 1 failed") {
		t.Fatalf("drop job state %s err %q, want failure naming processor 1", v.State, v.Error)
	}
	if v := runJob(t, s, JobSpec{Matrix: "laplace2d:32:32", NP: 4}); v.State != StateDone || !v.Result.Converged {
		t.Fatalf("plain job after the drop: state %s err %q", v.State, v.Error)
	}
}

// TestResilientJobUnderDeadline: resilient is a variant of the one
// solve call, so a resilient job's timeout_ms bounds its whole mission
// (the separate resilient driver used to drop it), and without a
// deadline the job reports its recovery as before.
func TestResilientJobUnderDeadline(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Drain(testCtx(t))
	run := func(spec JobSpec) JobView { return runJob(t, s, spec) }

	// A 1 ms deadline on a solve that takes longer. Like any race
	// against a timer it may legitimately finish first; try again.
	tight := JobSpec{Matrix: "laplace2d:48:48", NP: 4, Resilient: true, TimeoutMS: 1, Tol: 1e-300, MaxIter: 2000}
	tripped := false
	for try := 0; try < 20 && !tripped; try++ {
		v := run(tight)
		tripped = v.State == StateFailed && strings.Contains(v.Error, "deadlocked")
		if !tripped && v.State != StateDone {
			t.Fatalf("resilient timeout job state %s err %q, want done or the deadline error", v.State, v.Error)
		}
	}
	if !tripped {
		t.Error("resilient job with timeout_ms=1 never produced a deadline error")
	}

	v := run(JobSpec{Matrix: "banded:192:4", NP: 4, Resilient: true, Fault: "crash:rank=1@t=0.2ms"})
	if v.State != StateDone || !v.Result.Converged {
		t.Fatalf("resilient job state %s err %q", v.State, v.Error)
	}
	r := v.Result
	if r.Attempts != 2 || r.Failures != 1 || r.SStep != 1 {
		t.Errorf("attempts %d failures %d sstep %d, want 2, 1 and the plain recurrence's 1", r.Attempts, r.Failures, r.SStep)
	}
	if r.ModelTime <= r.SetupModelTime+r.SolveModelTime {
		t.Errorf("model_time %g is not the mission time: the final attempt alone spans %g", r.ModelTime, r.SetupModelTime+r.SolveModelTime)
	}
}

// TestAdmissionAgreesWithLibrary enumerates every backend × variant ×
// mode × attachment cell. A cell the JSON alone can spell (a factor out
// of range, sstep on hpcg or stencil, pipelined with blocking or with
// resilient) is refused by admission itself, naming its field; for
// every other cell admission (validate) and the library (prepare's
// WithVariant on the variant admission read) give the same verdict, and
// for an illegal cell the same message: the table lives once, in
// hpfexec.CheckVariant.
func TestAdmissionAgreesWithLibrary(t *testing.T) {
	backends := map[string]JobSpec{
		"csr":        {Matrix: "laplace2d:8:8"},
		"balanced":   {Matrix: "laplace2d:8:8", Layout: "balanced"},
		"csc-serial": {Matrix: "laplace2d:8:8", Layout: "csc-serial"},
		"csc-merge":  {Matrix: "laplace2d:8:8", Layout: "csc-merge"},
		"hpcg":       {Method: "hpcg", MG: &MGSpec{Nx: 4, Ny: 4, Nz: 4}},
		"stencil":    {Method: "stencil", Stencil: &StencilSpec{Stencil: "5pt", Nx: 8, Ny: 8}},
	}
	attachments := map[string]func(*JobSpec){
		"none":    func(*JobSpec) {},
		"fault":   func(sp *JobSpec) { sp.Fault = "straggle:rank=1,x=2" },
		"trace":   func(sp *JobSpec) { sp.Trace = true },
		"timeout": func(sp *JobSpec) { sp.TimeoutMS = 30000 },
	}
	legal, illegal, jsonOnly := 0, 0, 0
	for bname, base := range backends {
		for _, sstep := range []int{0, 1, 4, hpfexec.MaxSStep + 1} {
			for _, pipelined := range []bool{false, true} {
				for _, resilient := range []bool{false, true} {
					for aname, attach := range attachments {
						spec := base
						spec.NP, spec.SStep, spec.Pipelined, spec.Resilient = 2, sstep, pipelined, resilient
						attach(&spec)
						name := fmt.Sprintf("%s/sstep=%d/pipelined=%v/resilient=%v/%s", bname, sstep, pipelined, resilient, aname)
						spec.normalize()
						admit := spec.validate(8)
						if msg := fmt.Sprint(admit); strings.HasPrefix(msg, "serve: field sstep:") || strings.HasPrefix(msg, "serve: field pipelined:") {
							jsonOnly++
							continue
						}

						m, _, err := spec.newMachine()
						if err != nil {
							t.Fatal(err)
						}
						_, lib := spec.prepare(m)
						switch {
						case admit == nil && lib == nil:
							legal++
						case admit == nil || lib == nil:
							t.Errorf("%s: admission says %v, library says %v", name, admit, lib)
						case admit.Error() != lib.Error():
							t.Errorf("%s: admission %q, library %q", name, admit, lib)
						default:
							illegal++
							if !strings.Contains(admit.Error(), "field ") {
								t.Errorf("%s: error %q names no field", name, admit)
							}
						}
					}
				}
			}
		}
	}
	if legal == 0 || illegal == 0 || jsonOnly == 0 {
		t.Fatalf("table degenerate: %d legal, %d illegal, %d JSON-only cells", legal, illegal, jsonOnly)
	}
}
