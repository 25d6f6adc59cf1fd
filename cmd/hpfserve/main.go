// hpfserve runs the solver as a long-lived HTTP service: clients POST
// job specs to /jobs, poll (or long-poll) /jobs/{id}, and scrape
// /metrics. Same-matrix jobs coalesce into one SPMD run so the matrix
// is partitioned and inspector-exchanged once per batch.
//
//	hpfserve -addr :8080 -workers 2 -queue 64 -batch 8 -maxnp 32 -plan-cache-mb 256
//
// Submit a job and wait for the answer:
//
//	curl -s localhost:8080/jobs -d '{"matrix":"laplace2d:32:32","np":4}'
//	curl -s 'localhost:8080/jobs/job-1?wait=1'
//
// SIGINT/SIGTERM drain gracefully: admission closes, queued jobs are
// rejected, in-flight batches finish, then the listener closes.
//
// -smoke starts the server on a loopback port, submits a table of jobs
// to itself over real HTTP — together they set every job field and
// read every result field back — checks each answer, the probes, the
// traces and the metrics, drains and exits: a self-contained
// end-to-end check (used by `make smoke`).
//
// A pool flag below 1, or a negative or overflowing -plan-cache-mb,
// exits 1: serve.Options would take a zero for its default but run a
// negative size as a service that starts no worker or admits no job.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
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
		smoke    = flag.Bool("smoke", false, "self-test: serve on a loopback port, submit a table of jobs over HTTP, verify each, exit")

		planCacheMB = flag.Int64("plan-cache-mb", 256, "prepared-plan registry budget in MiB (0 disables)")

		clusterRouter = flag.Bool("cluster-router", false, "run as the cluster router tier instead of a worker shard")
		joinURL       = flag.String("join", "", "router URL to join as a worker shard (e.g. http://router:8080)")
		shardName     = flag.String("name", "", "cluster-unique shard name (default: hostname + port)")
		advertiseURL  = flag.String("advertise", "", "base URL other tiers reach this shard at (default http://127.0.0.1<addr>)")
		clusterSmoke  = flag.Bool("cluster-smoke", false, "self-test: in-process router + 2 shards, repeat traffic, verify plan-registry hit, exit")
	)
	flag.Parse()

	opts, err := options(*workers, *queueCap, *maxBatch, *maxNP, *planCacheMB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hpfserve:", err)
		os.Exit(1)
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

// options turns the pool flags into serve.Options, refusing a pool size
// below 1 and a plan-cache budget that is negative or overflows bytes.
func options(workers, queue, batch, maxNP int, planCacheMB int64) (serve.Options, error) {
	for _, f := range []struct {
		name string
		v    int
	}{{"workers", workers}, {"queue", queue}, {"batch", batch}, {"maxnp", maxNP}} {
		if f.v < 1 {
			return serve.Options{}, fmt.Errorf("-%s %d: must be at least 1", f.name, f.v)
		}
	}
	const maxMB = math.MaxInt64 >> 20
	if planCacheMB < 0 || planCacheMB > maxMB {
		return serve.Options{}, fmt.Errorf("-plan-cache-mb %d outside [0,%d]", planCacheMB, int64(maxMB))
	}
	// The flag speaks MiB with 0 = off; serve.Options speaks bytes with
	// 0 = default and negative = off.
	planCacheBytes := planCacheMB << 20
	if planCacheMB == 0 {
		planCacheBytes = -1
	}
	return serve.Options{Workers: workers, QueueCap: queue, MaxBatch: batch, MaxNP: maxNP, PlanCacheBytes: planCacheBytes}, nil
}
