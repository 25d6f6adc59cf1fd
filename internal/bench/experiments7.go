package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"hpfcg/internal/cluster"
	"hpfcg/internal/report"
	"hpfcg/internal/serve"
)

// e22Cluster is an in-process cluster: a router HTTP server in front
// of S real hpfserve shards, registered through the membership API.
type e22Cluster struct {
	router *cluster.Router
	rts    *httptest.Server
	scheds []*serve.Scheduler
	shards []*httptest.Server
}

func newE22Cluster(nShards int, opts serve.Options) (*e22Cluster, error) {
	c := &e22Cluster{
		router: cluster.NewRouter(cluster.RouterOptions{
			SweepEvery: -1, // nothing fails in-process; no detector needed
			Logf:       func(string, ...any) {},
		}),
	}
	c.rts = httptest.NewServer(c.router.Handler())
	for i := 0; i < nShards; i++ {
		s := serve.New(opts)
		ts := httptest.NewServer(serve.NewHandler(s))
		c.scheds = append(c.scheds, s)
		c.shards = append(c.shards, ts)
		name := fmt.Sprintf("shard-%d", i+1)
		if err := c.router.Membership().Register(name, ts.URL); err != nil {
			c.close()
			return nil, err
		}
	}
	return c, nil
}

func (c *e22Cluster) close() error {
	var firstErr error
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, s := range c.scheds {
		if err := s.Drain(ctx); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for _, ts := range c.shards {
		ts.Close()
	}
	c.rts.Close()
	c.router.Close()
	return firstErr
}

// registryHits sums the plan-registry hit counter across shards.
func (c *e22Cluster) registryHits() (hits uint64) {
	for _, s := range c.scheds {
		hits += s.PlanCacheStats().Hits
	}
	return hits
}

// e22Result is the slice of the job view the experiment reads.
type e22Result struct {
	State  string `json:"state"`
	Error  string `json:"error"`
	Result *struct {
		Converged      bool    `json:"converged"`
		ModelTime      float64 `json:"model_time"`
		SolveModelTime float64 `json:"solve_model_time"`
		SetupModelTime float64 `json:"setup_model_time"`
		PlanCacheHit   bool    `json:"plan_cache_hit"`
	} `json:"result"`
}

// e22SubmitAndWait pushes one spec through the router and waits for
// the converged answer.
func e22SubmitAndWait(base string, spec serve.JobSpec) (e22Result, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return e22Result{}, err
	}
	resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return e22Result{}, err
	}
	var ack struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&ack)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		return e22Result{}, fmt.Errorf("submit: status %d (%v)", resp.StatusCode, err)
	}
	resp, err = http.Get(base + "/jobs/" + ack.ID + "?wait=1&timeout=60s")
	if err != nil {
		return e22Result{}, err
	}
	defer resp.Body.Close()
	var v e22Result
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return e22Result{}, err
	}
	if v.State != "done" || v.Result == nil || !v.Result.Converged {
		return e22Result{}, fmt.Errorf("job %s: state=%s err=%q", ack.ID, v.State, v.Error)
	}
	return v, nil
}

// e22Matrices is the matrix pool: distinct content hashes, so the ring
// spreads them across shards while repeat traffic per matrix stays
// shard-sticky.
func e22Matrices(n, side int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("laplace2d:%d:%d", side, side+i)
	}
	return out
}

// E22 — the plan registry behind the cluster router, warm against
// cold, isolated deterministically: a fixed matrix set submitted in
// passes through the real router tier over HTTP, each matrix landing on
// the shard that owns its content hash. Pass 0 pays the full modeled
// setup (partition + inspector ghost exchange + executor selection) on
// each owning shard; every later pass must run at hit rate 1 with
// exactly zero modeled setup. Cluster throughput and latency under
// load are wall numbers and come from benchmark/ (serve.jobs_per_s,
// cluster.proxy_hop_ms_p50).
func E22(cfg Config) ([]*report.Table, error) {
	const nShards = 2
	passes := cfg.pick(4, 3)
	side := cfg.pick(16, 10)
	matrices := e22Matrices(4, side)

	t := &report.Table{
		ID:     "E22",
		Title:  fmt.Sprintf("Warm vs cold plan cache (%d shards, %d matrices, sequential passes)", nShards, len(matrices)),
		Header: []string{"pass", "jobs", "hits", "hit_rate", "setup_model_s", "setup_share", "solve_model_s"},
		Notes: []string{
			"The matrix set is submitted pass after pass through the router (1 worker per",
			"shard, no batching, sequential — occupancy 1, so nothing amortizes except the",
			"registry). Pass 0 pays the full modeled setup on each matrix's owning shard;",
			"every later pass must be all registry hits with exactly zero modeled setup:",
			"hit rate -> 1 and setup share -> 0 beyond the first touch per shard.",
		},
	}

	c, err := newE22Cluster(nShards, serve.Options{Workers: 1, MaxBatch: 1})
	if err != nil {
		return nil, err
	}
	defer c.close()

	prevHits := uint64(0)
	for pass := 0; pass < passes; pass++ {
		var setupSum, solveSum, modelSum float64
		for k, m := range matrices {
			// Same seed per matrix on every pass: warm passes must then
			// reproduce the cold pass's solve model time exactly.
			v, err := e22SubmitAndWait(c.rts.URL, serve.JobSpec{
				Matrix: m, NP: 2, Seed: int64(k + 1),
			})
			if err != nil {
				return nil, err
			}
			wantHit := pass > 0
			if v.Result.PlanCacheHit != wantHit {
				return nil, fmt.Errorf("pass %d matrix %s: plan_cache_hit=%v, want %v",
					pass, m, v.Result.PlanCacheHit, wantHit)
			}
			setupSum += v.Result.SetupModelTime
			solveSum += v.Result.SolveModelTime
			modelSum += v.Result.ModelTime
		}
		hits := c.registryHits()
		passHits := hits - prevHits
		prevHits = hits
		setupShare := 0.0
		if modelSum > 0 {
			setupShare = setupSum / modelSum
		}
		t.AddRowf(pass, len(matrices), int(passHits),
			float64(passHits)/float64(len(matrices)),
			setupSum, setupShare, solveSum)
	}
	if err := c.close(); err != nil {
		return nil, err
	}
	return []*report.Table{t}, nil
}
