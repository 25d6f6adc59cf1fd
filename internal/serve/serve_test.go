package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hpfcg/internal/comm"
	"hpfcg/internal/core"
	"hpfcg/internal/hpf"
	"hpfcg/internal/hpfexec"
	"hpfcg/internal/sparse"
	"hpfcg/internal/topology"
)

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// directSolve runs the same spec straight through hpfexec, bypassing
// the service — the bit-identity reference.
func directSolve(t *testing.T, spec JobSpec) *hpfexec.Result {
	t.Helper()
	spec.normalize()
	A, err := spec.prob.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := hpfexec.PlanForLayout(spec.Layout, spec.NP, A.NRows, A.NNZ())
	if err != nil {
		t.Fatal(err)
	}
	b := spec.RHS
	if len(b) == 0 {
		b = sparse.RandomVector(A.NRows, spec.Seed)
	}
	topo, err := topology.ByName(spec.Topology)
	if err != nil {
		t.Fatal(err)
	}
	m := comm.NewMachine(spec.NP, topo, topology.DefaultCostParams())
	pr, err := hpfexec.Prepare(m, plan, A)
	if err != nil {
		t.Fatal(err)
	}
	out, err := pr.SolveBatch([][]float64{b}, []core.Options{{Tol: spec.Tol, MaxIter: spec.MaxIter}})
	if err != nil {
		t.Fatal(err)
	}
	if r := out.Results[0]; r.Err != nil {
		t.Fatal(r.Err)
	}
	return out.Results[0]
}

// directVariant solves one right-hand side straight through hpfexec
// with the given solver variant.
func directVariant(t *testing.T, m *comm.Machine, plan *hpf.Plan, A *sparse.CSR, b []float64, v hpfexec.Variant) *hpfexec.Result {
	t.Helper()
	pr, err := hpfexec.Prepare(m, plan, A)
	if err != nil {
		t.Fatal(err)
	}
	if err := pr.WithVariant(v); err != nil {
		t.Fatal(err)
	}
	out, err := pr.SolveBatch([][]float64{b}, []core.Options{{}})
	if err != nil {
		t.Fatal(err)
	}
	if out.Results[0].Err != nil {
		t.Fatal(out.Results[0].Err)
	}
	return out.Results[0]
}

// TestJobBitIdenticalToDirect is the acceptance check: a job through
// the scheduler returns exactly the bits hpfexec.SolveCG produces for
// the same spec and seed.
func TestJobBitIdenticalToDirect(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Drain(testCtx(t))
	// SStep pinned to 1: the reference is the plain-CG SolveCG, and the
	// service default (0) would auto-select an s-step factor.
	spec := JobSpec{Matrix: "banded:128:4", NP: 4, Seed: 11, SStep: 1}
	j, err := s.Submit(spec)
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
	if !v.Result.Converged {
		t.Fatalf("did not converge: %+v", v.Result)
	}
	want := directSolve(t, spec)
	if len(v.Result.X) != len(want.X) {
		t.Fatalf("x length %d != %d", len(v.Result.X), len(want.X))
	}
	for i := range want.X {
		if v.Result.X[i] != want.X[i] {
			t.Fatalf("x[%d] service %v != direct %v (bit-identity broken)", i, v.Result.X[i], want.X[i])
		}
	}
	if v.Result.Iterations != want.Stats.Iterations || v.Result.Strategy != want.Strategy.String() {
		t.Errorf("stats drifted: %+v vs %v/%v", v.Result, want.Stats, want.Strategy)
	}
}

// TestBatchCoalescingBitIdentical: same-matrix jobs submitted together
// coalesce into one batch, and every RHS's answer still matches its
// solo solve bit-for-bit.
func TestBatchCoalescingBitIdentical(t *testing.T) {
	s := New(Options{Workers: 1, MaxBatch: 8, StartPaused: true})
	defer s.Drain(testCtx(t))
	const njobs = 6
	ids := make([]string, njobs)
	specs := make([]JobSpec, njobs)
	for k := 0; k < njobs; k++ {
		specs[k] = JobSpec{Matrix: "laplace2d:12:12", NP: 4, Seed: int64(k + 1), SStep: 1}
		j, err := s.Submit(specs[k])
		if err != nil {
			t.Fatal(err)
		}
		ids[k] = j.ID
	}
	s.resume()
	for k, id := range ids {
		v, err := s.Wait(testCtx(t), id)
		if err != nil {
			t.Fatal(err)
		}
		if v.State != StateDone {
			t.Fatalf("job %d state %s (err %q)", k, v.State, v.Error)
		}
		if v.Result.BatchSize != njobs {
			t.Fatalf("job %d batch size %d, want %d (coalescing failed)", k, v.Result.BatchSize, njobs)
		}
		want := directSolve(t, specs[k])
		for i := range want.X {
			if v.Result.X[i] != want.X[i] {
				t.Fatalf("job %d: x[%d] batched %v != solo %v", k, i, v.Result.X[i], want.X[i])
			}
		}
	}
	// The batch paid one setup; per-job share is reported.
	v, _ := s.View(ids[0])
	if v.Result.SetupModelTime <= 0 || v.Result.SolveModelTime <= 0 {
		t.Errorf("missing stage model times: %+v", v.Result)
	}
}

// TestBatchSetupPaidOnce: at forced occupancy (one worker, a paused
// and preloaded queue, the registry off so every batch pays setup),
// every job of a batch of B reports the same SetupModelTime as a solo
// job, so each job's share is exactly setup/B. SolveModelTime stays
// within 5 % of the same right-hand side solved solo; it cannot be
// exact, because a solve's modeled span drifts with its position in
// the batch.
func TestBatchSetupPaidOnce(t *testing.T) {
	const njobs = 8
	run := func(maxBatch int) []*JobResult {
		s := New(Options{Workers: 1, QueueCap: njobs, MaxBatch: maxBatch, StartPaused: true, PlanCacheBytes: -1})
		defer s.Drain(testCtx(t))
		ids := make([]string, njobs)
		for k := range ids {
			j, err := s.Submit(JobSpec{Matrix: "laplace2d:12:12", NP: 4, Seed: int64(k + 1)})
			if err != nil {
				t.Fatal(err)
			}
			ids[k] = j.ID
		}
		s.resume()
		out := make([]*JobResult, njobs)
		for k, id := range ids {
			v, err := s.Wait(testCtx(t), id)
			if err != nil {
				t.Fatal(err)
			}
			if v.State != StateDone || !v.Result.Converged {
				t.Fatalf("batch %d job %d: state %s (err %q)", maxBatch, k, v.State, v.Error)
			}
			if v.Result.BatchSize != maxBatch {
				t.Fatalf("batch %d job %d: occupancy %d", maxBatch, k, v.Result.BatchSize)
			}
			out[k] = v.Result
		}
		return out
	}
	solo := run(1)
	setup := solo[0].SetupModelTime
	if setup <= 0 {
		t.Fatalf("solo setup %g, want > 0", setup)
	}
	for _, b := range []int{1, 2, 4, 8} {
		got := solo
		if b > 1 {
			got = run(b)
		}
		for k, r := range got {
			if math.Float64bits(r.SetupModelTime) != math.Float64bits(setup) {
				t.Errorf("batch %d job %d: setup %v, want the solo %v paid once per batch", b, k, r.SetupModelTime, setup)
			}
			if rel := math.Abs(r.SolveModelTime-solo[k].SolveModelTime) / solo[k].SolveModelTime; rel > 0.05 {
				t.Errorf("batch %d job %d: solve model time %g drifted %.1f %% from solo %g",
					b, k, r.SolveModelTime, 100*rel, solo[k].SolveModelTime)
			}
		}
	}
}

// TestBatchKeySeparates: different matrices never coalesce.
func TestBatchKeySeparates(t *testing.T) {
	s := New(Options{Workers: 1, MaxBatch: 8, StartPaused: true})
	defer s.Drain(testCtx(t))
	j1, err := s.Submit(JobSpec{Matrix: "laplace1d:64", NP: 2})
	if err != nil {
		t.Fatal(err)
	}
	j2, err := s.Submit(JobSpec{Matrix: "laplace1d:96", NP: 2})
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
}

// TestBackpressure: the bounded queue rejects the overflow submission
// with ErrQueueFull while earlier jobs stay admitted.
func TestBackpressure(t *testing.T) {
	s := New(Options{Workers: 1, QueueCap: 2, StartPaused: true})
	defer s.Drain(testCtx(t))
	spec := JobSpec{Matrix: "laplace1d:32", NP: 2}
	if _, err := s.Submit(spec); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(spec); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(spec); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow err = %v, want ErrQueueFull", err)
	}
	var buf bytes.Buffer
	s.Metrics().WriteProm(&buf)
	if want := "hpfserve_jobs_rejected_total{reason=\"queue_full\"} 1\n"; !strings.Contains(buf.String(), want) {
		t.Errorf("metrics lack %q", strings.TrimSpace(want))
	}
}

func TestValidation(t *testing.T) {
	s := New(Options{Workers: 1, MaxNP: 8})
	defer s.Drain(testCtx(t))
	bad := []JobSpec{
		{},                               // no matrix
		{Matrix: "laplace1d:32", NP: 99}, // np too big
		{Matrix: "laplace1d:32", Layout: "weird"}, // unknown layout
		{Matrix: "laplace1d:32", Method: "gmres"}, // unsupported method
		{Matrix: "laplace1d:32", Topology: "x"},   // unknown topology
		{Matrix: "laplace1d:32", Tol: -1},
		{Matrix: "laplace1d:32", Fault: "crash:rank=nope"},
	}
	for i, spec := range bad {
		_, err := s.Submit(spec)
		var verr *ValidationError
		if !errors.As(err, &verr) {
			t.Errorf("spec %d: err = %v, want ValidationError", i, err)
		}
	}
	// A malformed generator spec — one that used to panic a worker, and
	// the spellings Sscanf used to let through — is a 400 naming the
	// field, at admission.
	for _, m := range []string{
		"laplace2d:-3:4", "laplace2d:32:32junk", "banded:512:4:99", "laplace2d:32:32:7",
		"laplace2d: 4:4", "banded:8:-1", "laplace2d:0:0", "laplace1d:0", "nosuchgen:12",
	} {
		_, err := s.Submit(JobSpec{Matrix: m})
		var verr *ValidationError
		if !errors.As(err, &verr) || !strings.Contains(err.Error(), "field matrix") {
			t.Errorf("matrix %q: err = %v, want a ValidationError naming field matrix", m, err)
		}
	}
	// A malformed upload is only knowable by parsing it: admitted, then
	// failed at run time — and the scheduler keeps serving.
	j, err := s.Submit(JobSpec{MatrixMarket: "not a matrix market document"})
	if err != nil {
		t.Fatal(err)
	}
	v, err := s.Wait(testCtx(t), j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if v.State != StateFailed || v.Error == "" {
		t.Fatalf("bad upload: state %s err %q, want failed", v.State, v.Error)
	}
	j, err = s.Submit(JobSpec{Matrix: "laplace1d:32", NP: 2})
	if err != nil {
		t.Fatal(err)
	}
	if v, err = s.Wait(testCtx(t), j.ID); err != nil || v.State != StateDone {
		t.Fatalf("job after the rejected ones: state %s err %v, want done", v.State, err)
	}
}

// TestSoloTraceJob: trace capture forces a solo run and the Perfetto
// JSON is downloadable.
func TestSoloTraceJob(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Drain(testCtx(t))
	j, err := s.Submit(JobSpec{Matrix: "laplace1d:48", NP: 2, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	v, err := s.Wait(testCtx(t), j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if v.State != StateDone || v.Result.BatchSize != 1 {
		t.Fatalf("state %s batch %d, want done/1", v.State, v.Result.BatchSize)
	}
	if !v.HasTrace {
		t.Fatal("no trace captured")
	}
	tr, ok := s.TraceJSON(j.ID)
	if !ok || !bytes.Contains(tr, []byte("traceEvents")) {
		t.Fatalf("trace JSON missing or malformed (%d bytes)", len(tr))
	}
}

// TestSoloResilientFaultJob: an injected crash is survived via
// checkpoint/restart and the recovery is reported.
func TestSoloResilientFaultJob(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Drain(testCtx(t))
	spec := JobSpec{
		Matrix: "banded:192:4", NP: 4,
		Fault: "crash:rank=1@t=0.2ms", Resilient: true,
	}
	j, err := s.Submit(spec)
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
	if !v.Result.Converged || v.Result.Attempts < 2 || v.Result.Failures < 1 {
		t.Fatalf("recovery not reported: %+v", v.Result)
	}
	// The recovered answer matches the fault-free direct solve.
	clean := directSolve(t, JobSpec{Matrix: spec.Matrix, NP: spec.NP})
	for i := range clean.X {
		if v.Result.X[i] != clean.X[i] {
			t.Fatalf("x[%d] resilient %v != fault-free %v", i, v.Result.X[i], clean.X[i])
		}
	}
}

// TestSoloFaultJobFails: the same crash without resilient mode fails
// the job with a typed peer-failure message rather than hanging.
func TestSoloFaultJobFails(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Drain(testCtx(t))
	j, err := s.Submit(JobSpec{Matrix: "banded:192:4", NP: 4, Fault: "crash:rank=1@t=0.2ms"})
	if err != nil {
		t.Fatal(err)
	}
	v, err := s.Wait(testCtx(t), j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if v.State != StateFailed || !strings.Contains(v.Error, "processor 1") {
		t.Fatalf("state %s err %q, want failure naming processor 1", v.State, v.Error)
	}
}

// TestTimeoutJob: a job under a deadline solves fine when nothing
// hangs.
func TestTimeoutJob(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Drain(testCtx(t))
	j, err := s.Submit(JobSpec{Matrix: "laplace1d:64", NP: 2, TimeoutMS: 30000})
	if err != nil {
		t.Fatal(err)
	}
	v, err := s.Wait(testCtx(t), j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if v.State != StateDone || !v.Result.Converged {
		t.Fatalf("state %s result %+v", v.State, v.Result)
	}
}

// TestMatrixMarketUpload: an uploaded matrix solves and batches under
// its content hash.
func TestMatrixMarketUpload(t *testing.T) {
	var mm bytes.Buffer
	if err := sparse.WriteMatrixMarket(&mm, sparse.Laplace1D(40)); err != nil {
		t.Fatal(err)
	}
	s := New(Options{Workers: 1, StartPaused: true})
	defer s.Drain(testCtx(t))
	var ids []string
	for k := 0; k < 3; k++ {
		j, err := s.Submit(JobSpec{MatrixMarket: mm.String(), NP: 2, Seed: int64(k + 1)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	s.resume()
	for _, id := range ids {
		v, err := s.Wait(testCtx(t), id)
		if err != nil {
			t.Fatal(err)
		}
		if v.State != StateDone || !v.Result.Converged || v.Result.BatchSize != 3 {
			t.Fatalf("%s: state %s result %+v", id, v.State, v.Result)
		}
	}
}

// TestFinishedJobReleasesInputs: the job table keeps finished jobs for
// the scheduler's lifetime, so a terminal job — done or failed — must
// not keep its upload text or explicit right-hand side alive.
func TestFinishedJobReleasesInputs(t *testing.T) {
	var mm bytes.Buffer
	if err := sparse.WriteMatrixMarket(&mm, sparse.Laplace1D(12)); err != nil {
		t.Fatal(err)
	}
	s := New(Options{Workers: 1})
	defer s.Drain(testCtx(t))
	rhs := sparse.RandomVector(12, 3)
	for _, c := range []struct {
		name    string
		spec    JobSpec
		want    State
		wantErr string
	}{
		{"done", JobSpec{MatrixMarket: mm.String(), NP: 2, RHS: rhs}, StateDone, ""},
		{"failed in parse", JobSpec{MatrixMarket: "%%MatrixMarket matrix coordinate real general\n3000000000 1 0\n", RHS: rhs}, StateFailed, "line 2"},
		{"failed on length", JobSpec{MatrixMarket: mm.String(), NP: 2, RHS: rhs[:5]}, StateFailed, "rhs length 5"},
	} {
		j, err := s.Submit(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		<-j.Done()
		if v, _ := s.View(j.ID); v.State != c.want || !strings.Contains(v.Error, c.wantErr) {
			t.Errorf("%s: state %s, error %q; want %s, error containing %q", c.name, v.State, v.Error, c.want, c.wantErr)
		}
		if j.Spec.MatrixMarket != "" || j.Spec.RHS != nil {
			t.Errorf("%s: finished job still holds %d bytes of upload and %d right-hand-side values",
				c.name, len(j.Spec.MatrixMarket), len(j.Spec.RHS))
		}
	}
}

// --- HTTP surface ---

func postJob(t *testing.T, ts *httptest.Server, spec any) (*http.Response, submitResponse) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sr submitResponse
	_ = json.NewDecoder(resp.Body).Decode(&sr)
	resp.Body.Close()
	return resp, sr
}

func TestHTTPEndToEnd(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Drain(testCtx(t))
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()

	spec := JobSpec{Matrix: "banded:96:3", NP: 4, Seed: 5, SStep: 1}
	resp, sr := postJob(t, ts, spec)
	if resp.StatusCode != http.StatusAccepted || sr.ID == "" {
		t.Fatalf("submit: %d %+v", resp.StatusCode, sr)
	}

	get, err := http.Get(ts.URL + "/jobs/" + sr.ID + "?wait=1&timeout=30s")
	if err != nil {
		t.Fatal(err)
	}
	defer get.Body.Close()
	var v JobView
	if err := json.NewDecoder(get.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	if v.State != StateDone || !v.Result.Converged {
		t.Fatalf("job %+v", v)
	}
	want := directSolve(t, spec)
	for i := range want.X {
		if v.Result.X[i] != want.X[i] {
			t.Fatalf("x[%d] over HTTP %v != direct %v", i, v.Result.X[i], want.X[i])
		}
	}

	// Health and metrics.
	for _, path := range []string{"/healthz", "/metrics"} {
		r, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Errorf("%s: %d", path, r.StatusCode)
		}
	}

	// Unknown job and bad spec.
	r404, _ := http.Get(ts.URL + "/jobs/job-999")
	r404.Body.Close()
	if r404.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: %d, want 404", r404.StatusCode)
	}
	respBad, _ := postJob(t, ts, map[string]any{"matrix": "laplace1d:32", "np": 9999})
	if respBad.StatusCode != http.StatusBadRequest {
		t.Errorf("bad spec: %d, want 400", respBad.StatusCode)
	}
	// The request that used to panic a worker and take the process down.
	respNeg, _ := postJob(t, ts, map[string]any{"matrix": "laplace2d:-3:4"})
	if respNeg.StatusCode != http.StatusBadRequest {
		t.Errorf("negative dimension: %d, want 400", respNeg.StatusCode)
	}
}

func TestHTTPBackpressure429(t *testing.T) {
	s := New(Options{Workers: 1, QueueCap: 1, StartPaused: true})
	defer s.Drain(testCtx(t))
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()

	spec := JobSpec{Matrix: "laplace1d:32", NP: 2}
	resp1, _ := postJob(t, ts, spec)
	if resp1.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d", resp1.StatusCode)
	}
	resp2, _ := postJob(t, ts, spec)
	if resp2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow: %d, want 429", resp2.StatusCode)
	}
	if resp2.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	s.resume()
}

func TestHTTPTraceDownload(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Drain(testCtx(t))
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()

	_, sr := postJob(t, ts, JobSpec{Matrix: "laplace1d:48", NP: 2, Trace: true})
	r, err := http.Get(ts.URL + "/jobs/" + sr.ID + "?wait=1")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()

	tr, err := http.Get(ts.URL + "/jobs/" + sr.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Body.Close()
	if tr.StatusCode != http.StatusOK {
		t.Fatalf("trace download: %d", tr.StatusCode)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(tr.Body); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("traceEvents")) {
		t.Fatalf("trace body not Perfetto JSON (%d bytes)", buf.Len())
	}

	// A traceless job 404s on /trace.
	_, sr2 := postJob(t, ts, JobSpec{Matrix: "laplace1d:48", NP: 2})
	r2, err := http.Get(ts.URL + "/jobs/" + sr2.ID + "?wait=1")
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	tr2, _ := http.Get(ts.URL + "/jobs/" + sr2.ID + "/trace")
	tr2.Body.Close()
	if tr2.StatusCode != http.StatusNotFound {
		t.Errorf("traceless /trace: %d, want 404", tr2.StatusCode)
	}
}

func TestMetricsExposition(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Drain(testCtx(t))
	j, err := s.Submit(JobSpec{Matrix: "laplace1d:32", NP: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(testCtx(t), j.ID); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	s.Metrics().WriteProm(&buf)
	out := buf.String()
	for _, want := range []string{
		`hpfserve_jobs_submitted_total{job_type="cg"} 1`,
		`hpfserve_jobs_completed_total{job_type="cg"} 1`,
		"hpfserve_queue_depth 0",
		"hpfserve_inflight_jobs 0",
		"hpfserve_batches_total 1",
		`hpfserve_stage_seconds_bucket{stage="queue",job_type="cg",le="+Inf"} 1`,
		`hpfserve_stage_seconds_bucket{stage="solve",job_type="cg",le="+Inf"} 1`,
		`hpfserve_batch_occupancy_bucket{le="1"} 1`,
		`hpfserve_model_seconds_total{kind="makespan"}`,
		`hpfserve_model_seconds_total{kind="comm"}`,
		`hpfserve_model_seconds_total{kind="setup"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q\n%s", want, out)
		}
	}
}

func TestWaitUnknownJob(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Drain(testCtx(t))
	if _, err := s.Wait(testCtx(t), "job-404"); err == nil {
		t.Fatal("unknown job waited successfully")
	}
	if fmt.Sprint(ErrQueueFull) == "" || fmt.Sprint(ErrDraining) == "" {
		t.Fatal("sentinel errors unprintable")
	}
}
