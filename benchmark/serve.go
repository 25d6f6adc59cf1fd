package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"hpfcg/internal/cluster"
	"hpfcg/internal/mfree"
	"hpfcg/internal/serve"
	"hpfcg/internal/sparse"
)

// Both serve workloads are closed loops: a caller sends its next job
// as soon as the previous one is answered. serve_hot has one caller, so
// a job's latency is its own service time and the process never idles
// (an idle vCPU halts, and how fast the host wakes it again is the
// host's business: an open loop at 35 % utilisation measured mostly
// that, see README "Why serve_hot is a closed loop"). serve_cold has
// two, one per shard.
const (
	hotCallers  = 1
	coldCallers = 2
)

// serveJob is one request the generator sends.
type serveJob struct {
	spec serve.JobSpec
	body []byte
	ref  bool // re-submitted at np = 1 for model_parallel_efficiency
	// verify, set on the first job of each class, returns the relative
	// residual of the answer against the sequential reference.
	verify func(x []float64) float64
}

// serveEnv is one round's service: the front URL jobs go to, and
// everything that has to be torn down after the round.
type serveEnv struct {
	front  string
	scheds []*serve.Scheduler
	srvs   []*httptest.Server
	router *cluster.Router
	client *http.Client
	proxy  *http.Client
	shards map[string]string // shard name -> URL (cluster only)
}

func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}}
}

// singleService is serve.New with the service defaults behind a real
// loopback listener. With one caller no two jobs are ever queued
// together, so no batch forms and every job's modeled time is that of
// the job run alone.
func singleService() *serveEnv {
	sched := serve.New(serve.Options{})
	srv := httptest.NewServer(serve.NewHandler(sched))
	return &serveEnv{front: srv.URL, scheds: []*serve.Scheduler{sched}, srvs: []*httptest.Server{srv}, client: newClient(hotCallers)}
}

// coldPlanCache is each shard's plan-cache budget on serve_cold: room
// for a few dozen of its plans, so every Put past the first evicts.
const coldPlanCache = 8 << 20

// clusterService is a router in front of two shards, each registered
// through the router's state API.
func clusterService() (*serveEnv, error) {
	e := &serveEnv{client: newClient(coldCallers), proxy: newClient(coldCallers), shards: map[string]string{}}
	// The failure detector is off: shards here never heartbeat, and a
	// round outlasts the 3 s suspicion window.
	e.router = cluster.NewRouter(cluster.RouterOptions{SweepEvery: -1, Client: e.proxy, Logf: func(string, ...any) {}})
	front := httptest.NewServer(e.router.Handler())
	e.front = front.URL
	e.srvs = append(e.srvs, front)
	for i := 0; i < 2; i++ {
		sched := serve.New(serve.Options{PlanCacheBytes: coldPlanCache})
		srv := httptest.NewServer(serve.NewHandler(sched))
		e.scheds = append(e.scheds, sched)
		e.srvs = append(e.srvs, srv)
		name := fmt.Sprintf("shard-%d", i)
		e.shards[name] = srv.URL
		reg, _ := json.Marshal(map[string]string{"name": name, "url": srv.URL})
		resp, err := e.client.Post(e.front+"/cluster/register", "application/json", bytes.NewReader(reg))
		if err != nil {
			e.close()
			return nil, err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			e.close()
			return nil, fmt.Errorf("register %s: status %d", name, resp.StatusCode)
		}
	}
	return e, nil
}

func (e *serveEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, s := range e.scheds {
		_ = s.Drain(ctx) // every job has been waited for; nothing is in flight
	}
	for _, s := range e.srvs {
		s.Close()
	}
	if e.router != nil {
		e.router.Close()
	}
	e.client.CloseIdleConnections()
	if e.proxy != nil {
		e.proxy.CloseIdleConnections()
	}
}

func (e *serveEnv) registry() (hits, miss uint64) {
	for _, s := range e.scheds {
		st := s.PlanCacheStats()
		hits, miss = hits+st.Hits, miss+st.Misses
	}
	return hits, miss
}

// do sends one job to base and waits for its result: POST /jobs, then
// the long-poll GET, then the JSON decode. Latency counts from the send
// to the decoded result.
func (e *serveEnv) do(tr *tracer, parent, idx int, base string, jb *serveJob) jobResult {
	sent := time.Now()
	var res jobResult
	root := tr.begin("bench", "job", parent, idx+1)
	defer tr.end(root)

	s := tr.begin("serve", "POST /jobs", root, idx+1)
	resp, err := e.client.Post(base+"/jobs", "application/json", bytes.NewReader(jb.body))
	if err != nil {
		tr.end(s)
		res.why = "POST /jobs: " + err.Error()
		return res
	}
	var ack struct {
		ID    string `json:"id"`
		Shard string `json:"shard"`
	}
	err = json.NewDecoder(resp.Body).Decode(&ack)
	resp.Body.Close()
	tr.end(s)
	if resp.StatusCode != http.StatusAccepted || err != nil {
		res.refuse = resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable
		res.why = fmt.Sprintf("POST /jobs: status %d, decode error %v", resp.StatusCode, err)
		return res
	}
	res.shard = ack.Shard

	s = tr.begin("serve", "GET /jobs/{id}?wait=1", root, idx+1)
	get, err := e.client.Get(base + "/jobs/" + ack.ID + "?wait=1")
	if err != nil {
		tr.end(s)
		res.why = "GET /jobs/{id}: " + err.Error()
		return res
	}
	raw, err := io.ReadAll(get.Body)
	get.Body.Close()
	tr.end(s)
	if err != nil {
		res.why = "GET /jobs/{id}: " + err.Error()
		return res
	}
	s = tr.begin("bench", "decode result", root, idx+1)
	var v serve.JobView
	err = json.Unmarshal(raw, &v)
	tr.end(s)
	res.ms, res.bytes = ms(time.Since(sent)), len(raw)
	if err != nil || v.State != serve.StateDone || v.Result == nil {
		res.why = fmt.Sprintf("job %s: state %q, error %q, decode error %v", ack.ID, v.State, v.Error, err)
		return res
	}
	tr.add("serve", "queued", v.Submitted, v.Started, root, idx+1)
	tr.add("serve", "running", v.Started, v.Finished, root, idx+1)

	r := v.Result
	res.queueMS, res.runMS = 1e3*v.QueueSeconds, 1e3*v.RunSeconds
	res.iterations, res.batch = r.Iterations, r.BatchSize
	res.solveS = r.SolveModelTime
	res.modelS = r.SolveModelTime + r.SetupModelTime/float64(max(r.BatchSize, 1))
	res.xhash = hashX(r.X)
	res.ok = r.Converged
	if !res.ok {
		res.why = fmt.Sprintf("job %s: not converged after %d iterations", ack.ID, r.Iterations)
	} else if jb.verify != nil {
		if rr := jb.verify(r.X); rr > 10*tol {
			res.ok, res.why = false, fmt.Sprintf("job %s: residual %g against the sequential reference", ack.ID, rr)
		}
	}
	return res
}

// runLoop runs the jobs, in the given order, on that many callers and
// returns their results by family member: a caller takes the next job
// as soon as its previous one is answered.
func (e *serveEnv) runLoop(tr *tracer, parent int, jobs []serveJob, order []int, callers int) []jobResult {
	results := make([]jobResult, len(jobs))
	next := make(chan int, len(order))
	for _, f := range order {
		next <- f
	}
	close(next)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for f := range next {
				results[f] = e.do(tr, parent, f, e.front, &jobs[f])
				results[f].ref = jobs[f].ref
			}
		}()
	}
	wg.Wait()
	return results
}

// serveWorkload drives the service over loopback HTTP.
type serveWorkload struct {
	d    workloadDef
	hot  bool       // serve_hot: one service, repeat keys; else the cluster and distinct uploads
	warm []serveJob // sent one by one during set-up, before the measured jobs
	jobs []serveJob // the family, by member
	// replayPB is family member 0's problem, for the staged replay.
	replayPB   problem
	replayN    int
	replaySeed int64
	// seed and roundNo give every round its own job order.
	seed    int64
	roundNo int
}

func (w *serveWorkload) def() workloadDef { return w.d }

func (w *serveWorkload) prepare(seed int64, seconds float64) error {
	w.seed = seed
	if w.hot {
		return w.prepareHot(seed, seconds)
	}
	return w.prepareCold(seed, seconds)
}

func (w *serveWorkload) bringUp() (*serveEnv, error) {
	if w.hot {
		return singleService(), nil
	}
	return clusterService()
}

func (w *serveWorkload) round(tr *tracer) (*roundResult, error) {
	root := tr.begin("bench", "round", -1, 0)
	defer tr.end(root)

	t0 := time.Now()
	su := tr.begin("bench", "setup", root, 0)
	env, err := w.bringUp()
	if err != nil {
		return nil, err
	}
	defer env.close()
	r := &roundResult{order: roundOrder(w.seed, w.roundNo, len(w.jobs))}
	for i := range w.warm {
		r.cold = append(r.cold, env.do(tr, su, -1-i, env.front, &w.warm[i]))
	}
	tr.end(su)
	r.setupS = time.Since(t0).Seconds()

	w.roundNo++
	callers := coldCallers
	if w.hot {
		callers = hotCallers
	}
	win := openWindow()
	r.jobs = env.runLoop(tr, root, w.jobs, r.order, callers)
	r.wallS, r.cpuS, r.mallocs = win.close()
	r.hits, r.miss = env.registry()
	r.heapMB = retainedHeapMB()
	return r, nil
}

// refModelNP1 submits the reference jobs' specs at np = 1 straight to a
// scheduler (no HTTP: only the modeled clock is read).
func (w *serveWorkload) refModelNP1() (float64, error) {
	sched := serve.New(serve.Options{})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = sched.Drain(ctx)
	}()
	total := 0.0
	for i := range w.jobs {
		if !w.jobs[i].ref {
			continue
		}
		spec := w.jobs[i].spec
		spec.NP = 1
		if spec.MG != nil {
			// An hpcg brick is per rank: one rank owns the whole grid.
			brick := *spec.MG
			brick.Nz *= np
			spec.MG = &brick
		}
		j, err := sched.Submit(spec)
		if err != nil {
			return 0, err
		}
		<-j.Done()
		v, _ := sched.View(j.ID)
		if v.Result == nil {
			return 0, fmt.Errorf("np=1 reference job %d: %s", i, v.Error)
		}
		total += v.Result.SolveModelTime
	}
	return total, nil
}

// hotKey is one cached problem of the hot mix with its sequential
// reference.
type hotKey struct {
	spec   serve.JobSpec
	n      int
	mulVec func(x, y []float64)
}

// hotKeys is the serve_hot mix: four job types over six plan-cache
// keys, all small enough that registry, batching, Machine.Run spin-up,
// JSON and HTTP outweigh the kernels.
func hotKeys() ([]hotKey, error) {
	var keys []hotKey
	for _, k := range []struct {
		matrix, layout string
		pipelined      bool
	}{
		{"laplace2d:32:32", "", false}, {"laplace2d:32:32", "", true}, {"laplace2d:32:32", "csc-merge", false},
		{"banded:512:4", "", false}, {"banded:768:2", "", false},
	} {
		A, err := sparse.GeneratorByName(k.matrix)
		if err != nil {
			return nil, err
		}
		keys = append(keys, hotKey{serve.JobSpec{Matrix: k.matrix, Layout: k.layout, Pipelined: k.pipelined}, A.NRows, A.MulVec})
	}
	st := mfree.Spec{Stencil: "5pt", Nx: 48, Ny: 48}.WithDefaults()
	keys = append(keys, hotKey{serve.JobSpec{Method: "stencil", Stencil: &serve.StencilSpec{Stencil: "5pt", Nx: 48, Ny: 48}}, st.N(), st.MulVec})
	g := problem{kind: "hpcg", brick: brick(8)}.global()
	keys = append(keys, hotKey{serve.JobSpec{Method: "hpcg", MG: &serve.MGSpec{Nx: 8, Ny: 8, Nz: 8}}, g.N(), g.MulVec})
	return keys, nil
}

// residualCheck returns the verifier of one job: the residual of the
// answer x for the right-hand side the service derives from rhsSeed.
func residualCheck(mulVec func(x, y []float64), n int, rhsSeed int64) func(x []float64) float64 {
	return func(x []float64) float64 {
		if len(x) != n {
			return 1
		}
		return relResidual(mulVec, sparse.RandomVector(n, rhsSeed), x)
	}
}

func marshalJob(spec serve.JobSpec) (serveJob, error) {
	spec.NP, spec.Tol = np, tol
	body, err := json.Marshal(spec)
	return serveJob{spec: spec, body: body}, err
}

// prepareHot builds the hot job family: member f asks for key f mod 6
// with right-hand-side seed f+1, so the mix is the same for every seed.
// The seed sets, round by round, the order the jobs are sent in (see
// roundOrder).
func (w *serveWorkload) prepareHot(seed int64, seconds float64) error {
	keys, err := hotKeys()
	if err != nil {
		return err
	}
	n := w.d.jobsPerRound(seconds)
	family := make([]serveJob, n+len(keys))
	for f := range family {
		k := keys[f%len(keys)]
		spec := k.spec
		spec.Seed = int64(f) + 1
		if family[f], err = marshalJob(spec); err != nil {
			return err
		}
		// The first job of each class is re-checked against the
		// sequential reference, and re-solved at np = 1.
		if family[f].ref = f < w.d.RefJobs; family[f].ref {
			family[f].verify = residualCheck(k.mulVec, k.n, spec.Seed)
		}
	}
	w.jobs, w.warm = family[:n], family[n:]
	w.replayPB, w.replayN, w.replaySeed = problem{kind: "csr", matrix: keys[0].spec.Matrix}, keys[0].n, 1
	return nil
}

// coldRows and coldNNZPerRow size a serve_cold upload: about 100 KB of
// Matrix Market text. hopJobs is the size of each of the two extra sets
// of uploads the traced pass's proxy-hop comparison sends.
const (
	coldRows      = 320
	coldNNZPerRow = 8
	hopJobs       = 24
)

// upload builds family member f: the randspd matrix of seed f+1 as an
// inline Matrix Market document, with right-hand-side seed f+1.
func upload(f int, verify, keepSpec bool) (serveJob, error) {
	A := sparse.RandomSPD(coldRows, coldNNZPerRow, int64(f)+1)
	var sb strings.Builder
	if err := sparse.WriteMatrixMarket(&sb, A); err != nil {
		return serveJob{}, err
	}
	jb, err := marshalJob(serve.JobSpec{MatrixMarket: sb.String(), Seed: int64(f) + 1})
	if verify {
		jb.verify = residualCheck(A.MulVec, A.NRows, jb.spec.Seed)
	}
	if jb.ref = keepSpec; !keepSpec {
		jb.spec = serve.JobSpec{} // only reference jobs are re-submitted; drop the second copy of the text
	}
	return jb, err
}

// prepareCold builds the upload family: every member its own matrix,
// so every plan lookup misses. The seed sets the order of the uploads
// in each round.
func (w *serveWorkload) prepareCold(seed int64, seconds float64) error {
	n := w.d.jobsPerRound(seconds)
	family := make([]serveJob, n+1)
	for f := range family {
		var err error
		if family[f], err = upload(f, f == 0, f < w.d.RefJobs); err != nil {
			return err
		}
	}
	w.jobs, w.warm = family[:n], family[n:]
	w.replayPB = problem{kind: "csr", matrix: fmt.Sprintf("randspd:%d:%d:1", coldRows, coldNNZPerRow)}
	w.replayN, w.replaySeed = coldRows, 1
	return nil
}
