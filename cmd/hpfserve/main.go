// hpfserve runs the solver as a long-lived HTTP service: clients POST
// job specs to /jobs, poll (or long-poll) /jobs/{id}, and scrape
// /metrics. Same-matrix jobs coalesce into one SPMD run so the matrix
// is partitioned and inspector-exchanged once per batch.
//
//	hpfserve -addr :8080 -workers 2 -queue 64 -batch 8
//
// Submit a job and wait for the answer:
//
//	curl -s localhost:8080/jobs -d '{"matrix":"laplace2d:32:32","np":4}'
//	curl -s 'localhost:8080/jobs/job-1?wait=1'
//
// SIGINT/SIGTERM drain gracefully: admission closes, queued jobs are
// rejected, in-flight batches finish, then the listener closes.
//
// -smoke starts the server on a loopback port, submits a job to itself
// over real HTTP, asserts convergence and exits — a self-contained
// end-to-end check (used by `make smoke`).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hpfcg/internal/serve"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		workers  = flag.Int("workers", 2, "worker pool size")
		queueCap = flag.Int("queue", 64, "admission queue capacity (backpressure beyond it)")
		maxBatch = flag.Int("batch", 8, "max same-matrix jobs coalesced per dispatch")
		maxNP    = flag.Int("maxnp", 32, "max virtual processors per job")
		smoke    = flag.Bool("smoke", false, "self-test: serve on a loopback port, submit a job over HTTP, verify, exit")

		planCacheMB = flag.Int64("plan-cache-mb", 256, "prepared-plan registry budget in MiB (0 disables)")

		clusterRouter = flag.Bool("cluster-router", false, "run as the cluster router tier instead of a worker shard")
		joinURL       = flag.String("join", "", "router URL to join as a worker shard (e.g. http://router:8080)")
		shardName     = flag.String("name", "", "cluster-unique shard name (default: hostname + port)")
		advertiseURL  = flag.String("advertise", "", "base URL other tiers reach this shard at (default http://127.0.0.1<addr>)")
		clusterSmoke  = flag.Bool("cluster-smoke", false, "self-test: in-process router + 2 shards, repeat traffic, verify plan-registry hit, exit")
	)
	flag.Parse()

	// The flag speaks MiB with 0 = off; serve.Options speaks bytes with
	// 0 = default and negative = off.
	planCacheBytes := *planCacheMB << 20
	if *planCacheMB <= 0 {
		planCacheBytes = -1
	}
	opts := serve.Options{
		Workers:        *workers,
		QueueCap:       *queueCap,
		MaxBatch:       *maxBatch,
		MaxNP:          *maxNP,
		PlanCacheBytes: planCacheBytes,
	}

	if *smoke {
		if err := runSmoke(opts); err != nil {
			log.Fatalf("smoke: %v", err)
		}
		fmt.Println("smoke: ok")
		return
	}
	if *clusterSmoke {
		if err := runClusterSmoke(opts); err != nil {
			log.Fatalf("cluster-smoke: %v", err)
		}
		fmt.Println("cluster-smoke: ok")
		return
	}
	if *clusterRouter {
		runRouter(*addr)
		return
	}

	sched := serve.New(opts)
	srv := &http.Server{Addr: *addr, Handler: serve.NewHandler(sched)}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// When joining a cluster, membership runs beside the job server:
	// register + heartbeat now, deregister on shutdown so the ring
	// rebalances immediately.
	var leaveCluster func()
	if *joinURL != "" {
		var err error
		leaveCluster, err = startJoiner(*joinURL, *shardName, *advertiseURL, *addr)
		if err != nil {
			log.Fatalf("cluster join: %v", err)
		}
	}

	errc := make(chan error, 1)
	go func() {
		log.Printf("hpfserve listening on %s (workers=%d queue=%d batch=%d)", *addr, *workers, *queueCap, *maxBatch)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		log.Fatalf("serve: %v", err)
	case <-ctx.Done():
	}

	// Graceful drain: leave the ring first (stop new traffic at the
	// router), then close admission and fail the queue so clients get
	// immediate 503s, let in-flight batches finish, close the listener.
	if leaveCluster != nil {
		leaveCluster()
	}
	log.Print("hpfserve draining...")
	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := sched.Drain(drainCtx); err != nil {
		log.Printf("drain: %v", err)
	}
	if err := srv.Shutdown(drainCtx); err != nil {
		log.Printf("shutdown: %v", err)
	}
	log.Print("hpfserve stopped")
}

// runSmoke is the end-to-end self-test: real listener, real HTTP
// round-trips, real drain.
func runSmoke(opts serve.Options) error {
	sched := serve.New(opts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: serve.NewHandler(sched)}
	go func() { _ = srv.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	log.Printf("smoke: serving on %s", base)

	spec := map[string]any{"matrix": "laplace2d:16:16", "np": 4, "seed": 7}
	body, _ := json.Marshal(spec)
	resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	var sub struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted || sub.ID == "" {
		return fmt.Errorf("submit failed: status %d id %q err %v", resp.StatusCode, sub.ID, err)
	}
	log.Printf("smoke: submitted %s", sub.ID)

	get, err := http.Get(base + "/jobs/" + sub.ID + "?wait=1&timeout=60s")
	if err != nil {
		return err
	}
	var view struct {
		State  string `json:"state"`
		Error  string `json:"error"`
		Result *struct {
			Converged  bool    `json:"converged"`
			Iterations int     `json:"iterations"`
			Residual   float64 `json:"residual"`
			Strategy   string  `json:"strategy"`
		} `json:"result"`
	}
	err = json.NewDecoder(get.Body).Decode(&view)
	get.Body.Close()
	if err != nil {
		return err
	}
	if view.State != "done" || view.Result == nil || !view.Result.Converged {
		return fmt.Errorf("job did not converge: state=%s err=%q", view.State, view.Error)
	}
	log.Printf("smoke: %s converged in %d iterations (residual %.3e, %s)",
		sub.ID, view.Result.Iterations, view.Result.Residual, view.Result.Strategy)

	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		return err
	}
	var mbuf bytes.Buffer
	_, _ = mbuf.ReadFrom(mresp.Body)
	mresp.Body.Close()
	if !bytes.Contains(mbuf.Bytes(), []byte(`hpfserve_jobs_completed_total{job_type="cg"} 1`)) {
		return errors.New("metrics did not count the completed job")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := sched.Drain(ctx); err != nil {
		return err
	}
	return srv.Shutdown(ctx)
}
