// The -smoke self-check and the HTTP helpers both self-checks share.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"strings"
	"time"

	"hpfcg/internal/serve"
)

// smokeJob is one line of the -smoke table: a job spec as a client
// writes it, the state it must finish in, and what its view must show
// beyond the checks every job gets (ID, timestamps, and for a finished
// solve the result fields every job reports).
type smokeJob struct {
	spec  string
	state serve.State
	check func(v serve.JobView) error
}

// smokeJobs sets every JobSpec field a client can send except
// matrix_market (benchmark/'s serve_cold uploads) and reads every
// JobResult and JobView field back. The jobs run one at a time, so
// each is its own batch and the repeat of the first is a plan-cache
// hit.
var smokeJobs = []smokeJob{
	{`{"matrix":"laplace2d:16:16","np":4,"seed":7}`, serve.StateDone, func(v serve.JobView) error {
		return want(!v.Result.PlanCacheHit && v.Result.SetupModelTime > 0, "a cold job reported a plan-cache hit or no setup")
	}},
	{`{"matrix":"laplace2d:16:16","np":4,"seed":7}`, serve.StateDone, func(v serve.JobView) error {
		return want(v.Result.PlanCacheHit && v.Result.SetupModelTime == 0, "the repeat job missed the plan cache or paid setup")
	}},
	{`{"method":"hpcg","mg":{"nx":4,"ny":4,"nz":4,"levels":2,"smooths":2,"coarse":"direct"},"np":2}`, serve.StateDone, func(v serve.JobView) error {
		return want(v.Result.Levels == 2 && v.Result.ModelGFlops > 0, "the hpcg job did not report 2 levels and a GFLOP rate")
	}},
	{`{"method":"stencil","stencil":{"stencil":"27pt","nx":6,"ny":6,"nz":8,"center":30,"off":-1},"np":2}`, serve.StateDone, func(v serve.JobView) error {
		return want(v.Result.SetupModelTime == 0, "the matrix-free job paid setup")
	}},
	{`{"matrix":"banded:256:4","layout":"csr","sstep":2,"topology":"ring","tol":1e-8,"maxiter":400,"np":2}`, serve.StateDone, func(v serve.JobView) error {
		return want(v.Result.SStep == 2 && v.Result.Replacements == 0, "the s-step job did not run s = 2 without guard trips")
	}},
	{`{"matrix":"laplace1d:4","rhs":[1,0,0,1],"np":2}`, serve.StateDone, func(v serve.JobView) error {
		ones := true // A·1 = (1,0,0,1) for the 1-D Laplacian
		for _, xi := range v.Result.X {
			ones = ones && math.Abs(xi-1) < 1e-12
		}
		return want(ones && len(v.Result.X) == 4, "the explicit right-hand side did not give x = 1")
	}},
	{`{"matrix":"laplace2d:16:16","np":4,"pipelined":true}`, serve.StateDone, func(v serve.JobView) error {
		return want(v.Result.Pipelined && v.Result.Reductions == v.Result.Iterations+3, "the pipelined job did not report iterations+3 reductions")
	}},
	{`{"matrix":"banded:512:4","np":4,"fault":"crash:rank=2@t=0.5ms","resilient":true,"ckpt_interval":5,"max_restarts":3,"timeout_ms":30000}`, serve.StateDone, func(v serve.JobView) error {
		return want(v.Result.Attempts == 2 && v.Result.Failures == 1, "the resilient job did not survive its crash in a second attempt")
	}},
	{`{"matrix":"banded:512:4","np":4,"fault":"crash:rank=1@t=0.1ms"}`, serve.StateFailed, func(v serve.JobView) error {
		return want(strings.Contains(v.Error, "processor 1 failed"), "the crashed job's error does not name processor 1")
	}},
	{`{"matrix":"laplace1d:32","np":2,"trace":true}`, serve.StateDone, func(v serve.JobView) error {
		return want(v.HasTrace, "the traced job has no trace")
	}},
}

// runSmoke is the shard self-check: probes, the smokeJobs table,
// every trace, the metrics, the MaxNP bound, then a drain after which
// the shard stays live but reports not ready.
func runSmoke(opts serve.Options) error {
	sched := serve.New(opts)
	base, srv, err := listen(serve.NewHandler(sched))
	if err != nil {
		return err
	}
	log.Printf("smoke: serving on %s", base)
	if err := probe(base, http.StatusOK, http.StatusOK); err != nil {
		return err
	}

	for _, job := range smokeJobs {
		id, _, err := submit(base, job.spec)
		if err != nil {
			return err
		}
		v, err := wait(base, id)
		if err != nil {
			return err
		}
		if err := checkView(v, id, job.state); err != nil {
			return fmt.Errorf("%s: %w", job.spec, err)
		}
		if err := job.check(v); err != nil {
			return fmt.Errorf("%s: %w (error %q, result %+v)", job.spec, err, v.Error, v.Result)
		}
		if v.HasTrace {
			if err := fetchTrace(base, id); err != nil {
				return err
			}
		}
		log.Printf("smoke: %s %s", id, v.State)
	}

	metrics, err := get(base+"/metrics", http.StatusOK)
	if err != nil {
		return err
	}
	for _, line := range []string{`hpfserve_jobs_completed_total{job_type="hpcg"} 1`, `hpfserve_jobs_completed_total{job_type="stencil"} 1`} {
		if !strings.Contains(metrics, line) {
			return fmt.Errorf("metrics lack %q", line)
		}
	}
	over := fmt.Sprintf(`{"matrix":"laplace1d:8","np":%d}`, opts.MaxNP+1)
	if _, err := post(base+"/jobs", over, http.StatusBadRequest); err != nil {
		return fmt.Errorf("np above -maxnp: %w", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := sched.Drain(ctx); err != nil {
		return err
	}
	if err := probe(base, http.StatusOK, http.StatusServiceUnavailable); err != nil {
		return fmt.Errorf("after drain: %w", err)
	}
	return srv.Shutdown(ctx)
}

// checkView holds what every job's view must show: its own ID, the
// wanted state, ordered timestamps, and for a finished solve a
// converged result within the loosest tolerance the table asks for,
// with every always-present field set.
func checkView(v serve.JobView, id string, state serve.State) error {
	if v.ID != id || v.State != state {
		return fmt.Errorf("job %s: view of %s in state %s (%s), want %s", id, v.ID, v.State, v.Error, state)
	}
	if v.Submitted.IsZero() || v.Started.Before(v.Submitted) || v.Finished.Before(v.Started) || v.QueueSeconds < 0 || v.RunSeconds <= 0 {
		return fmt.Errorf("job %s: timestamps %v / %v / %v, queue %gs, run %gs", id, v.Submitted, v.Started, v.Finished, v.QueueSeconds, v.RunSeconds)
	}
	if state != serve.StateDone {
		return nil
	}
	r := v.Result
	if r == nil || !r.Converged || r.Iterations == 0 || r.Residual > 1e-8 || len(r.X) == 0 || r.Strategy == "" ||
		r.ModelTime <= 0 || r.SolveModelTime <= 0 || r.SetupModelTime < 0 || r.CommTime <= 0 || r.BatchSize != 1 {
		return fmt.Errorf("job %s: result %+v", id, r)
	}
	return nil
}

// want is nil when ok holds and an error saying what failed otherwise.
func want(ok bool, failed string) error {
	if ok {
		return nil
	}
	return fmt.Errorf("%s", failed)
}

// listen serves h on a loopback port and returns its base URL.
func listen(h http.Handler) (string, *http.Server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	go func() { _ = srv.Serve(ln) }()
	return "http://" + ln.Addr().String(), srv, nil
}

// probe wants /healthz and /readyz to answer the given statuses.
func probe(base string, health, ready int) error {
	if _, err := get(base+"/healthz", health); err != nil {
		return err
	}
	_, err := get(base+"/readyz", ready)
	return err
}

// submit posts a job spec and returns the job ID and, through a
// cluster router, the owning shard.
func submit(base, spec string) (id, shard string, err error) {
	body, err := post(base+"/jobs", spec, http.StatusAccepted)
	if err != nil {
		return "", "", err
	}
	var ack struct {
		ID    string `json:"id"`
		Shard string `json:"shard"`
	}
	if err := json.Unmarshal([]byte(body), &ack); err != nil || ack.ID == "" {
		return "", "", fmt.Errorf("POST /jobs: acknowledgement %q (%v)", body, err)
	}
	return ack.ID, ack.Shard, nil
}

// wait long-polls a job to its final state.
func wait(base, id string) (serve.JobView, error) {
	var v serve.JobView
	body, err := get(base+"/jobs/"+id+"?wait=1&timeout=60s", http.StatusOK)
	if err == nil {
		err = json.Unmarshal([]byte(body), &v)
	}
	return v, err
}

// fetchTrace wants a finished job's trace download to be a Chrome
// trace with events.
func fetchTrace(base, id string) error {
	body, err := get(base+"/jobs/"+id+"/trace", http.StatusOK)
	if err != nil {
		return err
	}
	var tr struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &tr); err != nil || len(tr.TraceEvents) == 0 {
		return fmt.Errorf("job %s: trace with %d events (%v)", id, len(tr.TraceEvents), err)
	}
	return nil
}

// get and post make one request and want the given status.
func get(url string, status int) (string, error) {
	resp, err := http.Get(url)
	return read(resp, err, "GET "+url, status)
}

func post(url, body string, status int) (string, error) {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	return read(resp, err, "POST "+url, status)
}

func read(resp *http.Response, err error, what string, status int) (string, error) {
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != status {
		return "", fmt.Errorf("%s: status %d, want %d: %s", what, resp.StatusCode, status, bytes.TrimSpace(body))
	}
	return string(body), nil
}
