// Router-tier integration tests: real hpfserve shards behind real HTTP
// servers, a router in front, and clients speaking only to the router.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hpfcg/internal/serve"
)

type testShard struct {
	name string
	s    *serve.Scheduler
	ts   *httptest.Server
}

func startShard(t *testing.T, name string, opts serve.Options) *testShard {
	t.Helper()
	s := serve.New(opts)
	ts := httptest.NewServer(serve.NewHandler(s))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	})
	return &testShard{name: name, s: s, ts: ts}
}

// startRouter builds a router (background sweeper off — tests drive
// Sweep directly) and registers the shards through the HTTP state API
// so that path is exercised too.
func startRouter(t *testing.T, shards ...*testShard) (*Router, *httptest.Server) {
	t.Helper()
	rt := NewRouter(RouterOptions{
		SweepEvery: -1,
		Logf:       t.Logf,
	})
	t.Cleanup(rt.Close)
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)
	for _, sh := range shards {
		body, _ := json.Marshal(registerRequest{Name: sh.name, URL: sh.ts.URL})
		resp, err := http.Post(ts.URL+"/cluster/register", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("register %s: %d", sh.name, resp.StatusCode)
		}
	}
	return rt, ts
}

type submitAck struct {
	ID        string `json:"id"`
	StatusURL string `json:"status_url"`
	Shard     string `json:"shard"`
}

func submitJob(t *testing.T, routerURL, specJSON string) (*http.Response, submitAck) {
	t.Helper()
	resp, err := http.Post(routerURL+"/jobs", "application/json", strings.NewReader(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ack submitAck
	_ = json.NewDecoder(resp.Body).Decode(&ack)
	return resp, ack
}

func waitJob(t *testing.T, routerURL, id string) serve.JobView {
	t.Helper()
	resp, err := http.Get(routerURL + "/jobs/" + id + "?wait=1&timeout=60s")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("wait %s: status %d", id, resp.StatusCode)
	}
	var v serve.JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// TestClusterRepeatTrafficSameShardRegistryHits is the acceptance
// test: repeated submissions of the same matrix route to the same
// shard, the shard's plan registry reports hits, the warm solves skip
// setup entirely, and every answer is bit-identical to a solo hpfserve
// solve of the same spec.
func TestClusterRepeatTrafficSameShardRegistryHits(t *testing.T) {
	sh1 := startShard(t, "shard-1", serve.Options{Workers: 1, MaxBatch: 1})
	sh2 := startShard(t, "shard-2", serve.Options{Workers: 1, MaxBatch: 1})
	_, rts := startRouter(t, sh1, sh2)

	const spec = `{"matrix":"laplace2d:12:12","np":4,"seed":7}`

	// Solo reference: the same spec through a standalone scheduler.
	solo := serve.New(serve.Options{Workers: 1})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = solo.Drain(ctx)
	}()
	var soloSpec serve.JobSpec
	if err := json.Unmarshal([]byte(spec), &soloSpec); err != nil {
		t.Fatal(err)
	}
	sj, err := solo.Submit(soloSpec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	ref, err := solo.Wait(ctx, sj.ID)
	if err != nil || ref.State != serve.StateDone {
		t.Fatalf("solo reference: %v %v", ref.State, err)
	}

	var owner string
	for round := 0; round < 3; round++ {
		resp, ack := submitJob(t, rts.URL, spec)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("round %d: status %d", round, resp.StatusCode)
		}
		if !strings.HasSuffix(ack.ID, "@"+ack.Shard) {
			t.Fatalf("round %d: job ID %q does not encode shard %q", round, ack.ID, ack.Shard)
		}
		if round == 0 {
			owner = ack.Shard
		} else if ack.Shard != owner {
			t.Fatalf("round %d landed on %s, round 0 on %s — repeat traffic split", round, ack.Shard, owner)
		}
		v := waitJob(t, rts.URL, ack.ID)
		if v.State != serve.StateDone {
			t.Fatalf("round %d: %s (%s)", round, v.State, v.Error)
		}
		if hit := v.Result.PlanCacheHit; hit != (round > 0) {
			t.Fatalf("round %d: plan_cache_hit=%v", round, hit)
		}
		if round > 0 && v.Result.SetupModelTime != 0 {
			t.Fatalf("round %d: warm setup %g, want exactly 0", round, v.Result.SetupModelTime)
		}
		// Bit-identical to the solo solve, warm or cold.
		if len(v.Result.X) != len(ref.Result.X) {
			t.Fatalf("round %d: solution length %d vs solo %d", round, len(v.Result.X), len(ref.Result.X))
		}
		for i := range v.Result.X {
			if v.Result.X[i] != ref.Result.X[i] {
				t.Fatalf("round %d: x[%d] = %v, solo %v — cluster answer not bit-identical",
					round, i, v.Result.X[i], ref.Result.X[i])
			}
		}
	}

	// The owning shard's registry saw the traffic; the other stayed cold.
	shardByName := map[string]*testShard{"shard-1": sh1, "shard-2": sh2}
	st := shardByName[owner].s.PlanCacheStats()
	if st.Hits < 2 || st.Misses < 1 {
		t.Fatalf("owner %s registry stats %+v, want >=2 hits and >=1 miss", owner, st)
	}
	for name, sh := range shardByName {
		if name == owner {
			continue
		}
		if st := sh.s.PlanCacheStats(); st.Hits != 0 || st.Misses != 0 {
			t.Fatalf("non-owner %s saw registry traffic: %+v", name, st)
		}
	}
}

// uploadSpec is a job body carrying doc as an inline upload.
func uploadSpec(t *testing.T, doc string) string {
	t.Helper()
	body, err := json.Marshal(serve.JobSpec{MatrixMarket: doc, NP: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// runJob submits a job body through the router and waits for it.
func runJob(t *testing.T, routerURL, specJSON string) (submitAck, serve.JobView) {
	t.Helper()
	resp, ack := submitJob(t, routerURL, specJSON)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	return ack, waitJob(t, routerURL, ack.ID)
}

// TestRouterPlacesUploadsByText: the router never parses an upload — it
// places it by a digest of its text. Byte-identical uploads share a
// shard and the second runs from the first's plan; the same matrix
// encoded differently may land anywhere and returns the same bits; a
// malformed upload is admitted and fails on its shard with the reader's
// line-numbered error, exactly as a direct submission does.
func TestRouterPlacesUploadsByText(t *testing.T) {
	shards := map[string]*testShard{}
	var list []*testShard
	for _, name := range []string{"u1", "u2", "u3"} {
		shards[name] = startShard(t, name, serve.Options{Workers: 1, MaxBatch: 1})
		list = append(list, shards[name])
	}
	_, rts := startRouter(t, list...)

	const doc = "%%MatrixMarket matrix coordinate real general\n3 3 7\n" +
		"1 1 4.0\n1 2 -1.0\n2 1 -1.0\n2 2 4.0\n2 3 -1.0\n3 2 -1.0\n3 3 4.0\n"
	first, v1 := runJob(t, rts.URL, uploadSpec(t, doc))
	second, v2 := runJob(t, rts.URL, uploadSpec(t, doc))
	if v1.State != serve.StateDone || v2.State != serve.StateDone {
		t.Fatalf("uploads: %s (%s), %s (%s)", v1.State, v1.Error, v2.State, v2.Error)
	}
	if first.Shard != second.Shard {
		t.Fatalf("byte-identical uploads landed on %s and %s", first.Shard, second.Shard)
	}
	if v1.Result.PlanCacheHit || !v2.Result.PlanCacheHit || v2.Result.SetupModelTime != 0 {
		t.Fatalf("plan_cache_hit %v then %v (setup %g), want a miss then a free hit",
			v1.Result.PlanCacheHit, v2.Result.PlanCacheHit, v2.Result.SetupModelTime)
	}

	// The same matrix in other clothes: entries reordered, a diagonal
	// entry split in two, tabs, CRLF, comments. Several encodings, so
	// that with three shards some land away from the first upload's.
	recoded := []string{
		"%%MatrixMarket matrix coordinate real general\n3 3 7\n" +
			"3 3 4.0\n3 2 -1.0\n2 3 -1.0\n2 2 4.0\n2 1 -1.0\n1 2 -1.0\n1 1 4.0\n",
		"%%MatrixMarket matrix coordinate real general\r\n% recoded\r\n3 3 8\r\n" +
			"1\t1\t1.5\r\n1\t1\t2.5\r\n1 2 -1\r\n2 1 -1\r\n2 2 4\r\n2 3 -1\r\n3 2 -1\r\n3 3 4\r\n",
		"%%MatrixMarket matrix coordinate real symmetric\n3 3 5\n1 1 4\n2 1 -1\n2 2 4\n3 2 -1\n3 3 4\n",
		"%%MatrixMarket matrix coordinate real general\n3 3 7\n" +
			"  1 1 4e0\n  1 2 -1e0\n  2 1 -1e0\n  2 2 4e0\n  2 3 -1e0\n  3 2 -1e0\n  3 3 4e0\n",
	}
	elsewhere := 0
	for i, enc := range recoded {
		ack, v := runJob(t, rts.URL, uploadSpec(t, enc))
		if v.State != serve.StateDone {
			t.Fatalf("encoding %d: %s (%s)", i, v.State, v.Error)
		}
		if ack.Shard != first.Shard {
			elsewhere++
		} else if !v.Result.PlanCacheHit {
			t.Errorf("encoding %d met the first upload's shard and missed its plan", i)
		}
		if len(v.Result.X) != len(v1.Result.X) {
			t.Fatalf("encoding %d: %d unknowns, want %d", i, len(v.Result.X), len(v1.Result.X))
		}
		for k := range v.Result.X {
			if v.Result.X[k] != v1.Result.X[k] {
				t.Fatalf("encoding %d on %s: x[%d] = %v, first upload %v", i, ack.Shard, k, v.Result.X[k], v1.Result.X[k])
			}
		}
	}
	if elsewhere == 0 {
		t.Error("every encoding landed on the first upload's shard: the test no longer covers a placement miss")
	}

	// Malformed: 202 from the router, then failed on the shard.
	ack, v := runJob(t, rts.URL, uploadSpec(t, "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 x 1.0\n"))
	if v.State != serve.StateFailed || !strings.Contains(v.Error, "line 3: bad entry") {
		t.Fatalf("malformed upload on %s: state %s error %q, want failed with the line 3 error", ack.Shard, v.State, v.Error)
	}
	ack, v = runJob(t, rts.URL, uploadSpec(t, "%%MatrixMarket matrix coordinate real general\n3000000000 1 0\n"))
	if v.State != serve.StateFailed || !strings.Contains(v.Error, "line 2") {
		t.Fatalf("oversized upload on %s: state %s error %q, want failed with a line 2 error", ack.Shard, v.State, v.Error)
	}
}

// TestRouterBackpressurePassThrough: shard-side 429 (queue full) and
// 503 (draining) must reach the client unmodified, Retry-After intact.
func TestRouterBackpressurePassThrough(t *testing.T) {
	sh := startShard(t, "lone", serve.Options{
		Workers: 1, QueueCap: 1, StartPaused: true, RetryAfter: 2 * time.Second,
	})
	_, rts := startRouter(t, sh)

	const spec = `{"matrix":"laplace1d:32","np":2}`
	if resp, _ := submitJob(t, rts.URL, spec); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d", resp.StatusCode)
	}
	resp, _ := submitJob(t, rts.URL, spec)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit through router: %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Fatalf("Retry-After %q through router, want %q", ra, "2")
	}

	// Drain the shard; a 503 must also pass through.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := sh.s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	resp, _ = submitJob(t, rts.URL, spec)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit to draining shard through router: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 lost its Retry-After crossing the router")
	}
}

// TestRouterRequestIDAcrossHops: the correlation ID survives the
// router->shard hop and is echoed back; absent one, the router mints
// an ID of its own.
func TestRouterRequestIDAcrossHops(t *testing.T) {
	var atShard atomic.Value
	sh := startShard(t, "obs", serve.Options{Workers: 1})
	// Wrap the shard handler to observe the header the router forwards.
	inner := sh.ts.Config.Handler
	sh.ts.Config.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if id := r.Header.Get(serve.RequestIDHeader); id != "" {
			atShard.Store(id)
		}
		inner.ServeHTTP(w, r)
	})
	_, rts := startRouter(t, sh)

	req, _ := http.NewRequest("POST", rts.URL+"/jobs",
		strings.NewReader(`{"matrix":"laplace1d:16","np":2}`))
	req.Header.Set(serve.RequestIDHeader, "corr-99")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(serve.RequestIDHeader); got != "corr-99" {
		t.Fatalf("router echoed %q, want corr-99", got)
	}
	if got, _ := atShard.Load().(string); got != "corr-99" {
		t.Fatalf("shard received request ID %q, want corr-99", got)
	}

	// No client ID: the router generates one and still forwards it.
	resp2, err := http.Post(rts.URL+"/jobs", "application/json",
		strings.NewReader(`{"matrix":"laplace1d:16","np":2}`))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	gen := resp2.Header.Get(serve.RequestIDHeader)
	if !strings.HasPrefix(gen, "req-") {
		t.Fatalf("generated ID %q, want req- prefix", gen)
	}
	if got, _ := atShard.Load().(string); got != gen {
		t.Fatalf("shard saw %q, router minted %q", got, gen)
	}
}

// TestRouterStatusRouting: IDs route by their encoded shard; malformed
// or unknown-shard IDs are clean 404s.
func TestRouterStatusRouting(t *testing.T) {
	sh := startShard(t, "only", serve.Options{Workers: 1})
	_, rts := startRouter(t, sh)

	resp, err := http.Get(rts.URL + "/jobs/job-1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("bare ID: %d, want 404", resp.StatusCode)
	}
	resp, err = http.Get(rts.URL + "/jobs/job-1@ghost")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown shard: %d, want 404", resp.StatusCode)
	}
}

// TestRouterReadyzAndEmptyRing: a router with zero live shards is not
// ready and 503s submissions (with a Retry-After so clients back off).
func TestRouterReadyzAndEmptyRing(t *testing.T) {
	_, rts := startRouter(t) // no shards

	resp, err := http.Get(rts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz with empty ring: %d, want 503", resp.StatusCode)
	}
	resp, err = http.Get(rts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d, want 200", resp.StatusCode)
	}

	sub, _ := submitJob(t, rts.URL, `{"matrix":"laplace1d:16","np":2}`)
	if sub.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit with empty ring: %d, want 503", sub.StatusCode)
	}
	if sub.Header.Get("Retry-After") == "" {
		t.Fatal("empty-ring 503 without Retry-After")
	}

	// A shard joins; the router becomes ready.
	sh := startShard(t, "late", serve.Options{Workers: 1})
	body, _ := json.Marshal(registerRequest{Name: sh.name, URL: sh.ts.URL})
	reg, err := http.Post(rts.URL+"/cluster/register", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	reg.Body.Close()
	resp, err = http.Get(rts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz after join: %d, want 200", resp.StatusCode)
	}
}

// TestRouterMetricsRollup: the cluster /metrics merges every shard's
// exposition under shard="name" labels with one HELP/TYPE block per
// family, alongside the router's own counters.
func TestRouterMetricsRollup(t *testing.T) {
	sh1 := startShard(t, "m1", serve.Options{Workers: 1})
	sh2 := startShard(t, "m2", serve.Options{Workers: 1})
	_, rts := startRouter(t, sh1, sh2)

	// Drive one job so per-shard counters are non-trivial.
	resp, ack := submitJob(t, rts.URL, `{"matrix":"laplace1d:32","np":2}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	waitJob(t, rts.URL, ack.ID)

	mresp, err := http.Get(rts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(mresp.Body); err != nil {
		t.Fatal(err)
	}
	text := buf.String()

	for _, want := range []string{
		"hpfrouter_jobs_routed_total{shard=",
		"hpfrouter_shards_live 2",
		`hpfserve_jobs_submitted_total{shard="m1",job_type="cg"}`,
		`hpfserve_jobs_submitted_total{shard="m2",job_type="cg"}`,
		`hpfserve_stage_seconds_bucket{shard=`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("rollup missing %q:\n%s", want, text)
		}
	}
	// One HELP/TYPE block per family even though two shards exported it
	// and job_type labels fan each family into several series.
	for _, family := range []string{
		"hpfserve_jobs_submitted_total",
		"hpfserve_jobs_completed_total",
		"hpfserve_stage_seconds",
		"hpfserve_plan_cache_hits_total",
	} {
		if n := strings.Count(text, "# TYPE "+family+" "); n != 1 {
			t.Fatalf("family %s has %d TYPE lines, want 1", family, n)
		}
	}
	// Histogram invariants must survive relabeling: every bucket series
	// now carries a shard label but stays cumulative.
	if !strings.Contains(text, `le="+Inf"`) {
		t.Fatal("rollup lost histogram buckets")
	}
	if strings.Contains(text, "{shard=\"m1\",shard=") {
		t.Fatal("double shard label after relabeling")
	}
}

// TestJoinerLifecycle: a shard joins through the Joiner, heartbeats,
// re-registers after the router forgets it, and deregisters on
// shutdown.
func TestJoinerLifecycle(t *testing.T) {
	rt := NewRouter(RouterOptions{SweepEvery: -1, Logf: t.Logf})
	defer rt.Close()
	rts := httptest.NewServer(rt.Handler())
	defer rts.Close()

	j, err := NewJoiner(JoinOptions{
		RouterURL:      rts.URL,
		Name:           "joiner-1",
		AdvertiseURL:   "http://shard:9",
		HeartbeatEvery: 20 * time.Millisecond,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- j.Run(ctx) }()

	waitFor := func(desc string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", desc)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	waitFor("join", func() bool { return rt.Membership().AliveCount() == 1 })
	if n, ok := rt.Membership().Lookup("joiner-1"); !ok || n.URL != "http://shard:9" {
		t.Fatalf("joined node: %+v, %v", n, ok)
	}

	// The router forgets the shard (as an eviction would); the next
	// heartbeat gets a 404 and the joiner must re-register on its own.
	rt.Membership().Deregister("joiner-1")
	waitFor("re-register after eviction", func() bool { return rt.Membership().AliveCount() == 1 })

	// Graceful shutdown deregisters.
	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
	if rt.Membership().AliveCount() != 0 {
		t.Fatal("shard still registered after graceful shutdown")
	}
}

// TestRouterViewNamesClusterID: a job view read through the router
// names the job by the ID the router handed out, polled or long-polled;
// a trace and a non-200 answer pass through byte for byte.
func TestRouterViewNamesClusterID(t *testing.T) {
	sh := startShard(t, "s1", serve.Options{Workers: 1})
	_, rts := startRouter(t, sh)
	ack, v := runJob(t, rts.URL, `{"matrix":"laplace1d:16","np":2,"trace":true}`)
	if ack.ID != "job-1@s1" || v.ID != ack.ID {
		t.Fatalf("submitted as %q, the long-polled view names %q", ack.ID, v.ID)
	}
	get := func(url string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}
	code, body := get(rts.URL + "/jobs/" + ack.ID)
	var polled serve.JobView
	if err := json.Unmarshal(body, &polled); err != nil || code != http.StatusOK || polled.ID != ack.ID || polled.Result == nil {
		t.Fatalf("polled view: %d %v, id %q", code, err, polled.ID)
	}
	for _, path := range []string{"/jobs/job-1/trace", "/jobs/job-9"} {
		wantCode, want := get(sh.ts.URL + path)
		bare, suffix, _ := strings.Cut(strings.TrimPrefix(path, "/jobs/"), "/")
		if suffix != "" {
			suffix = "/" + suffix
		}
		if code, got := get(rts.URL + "/jobs/" + bare + "@s1" + suffix); code != wantCode || !bytes.Equal(got, want) {
			t.Errorf("%s through the router: %d, %d bytes; the shard's own answer %d, %d bytes", path, code, len(got), wantCode, len(want))
		}
	}
}
