// Cluster modes of the hpfserve binary.
//
// Router tier:
//
//	hpfserve -cluster-router -addr :8080
//
// Worker shards join it, each with a share of the placement-key ring:
//
//	hpfserve -addr :8081 -join http://router:8080 -name shard-a \
//	         -advertise http://10.0.0.5:8081
//
// -cluster-smoke runs the whole topology in one process on loopback
// ports — router + two shards — waits until GET /cluster/nodes lists
// both alive and heartbeating, submits the same matrix twice through
// the router and verifies both solves landed on the same shard with a
// plan-registry hit on the second, fetches a traced job's trace through
// the router, checks the router's probes and metrics rollup, and that
// the shards leave the member list when they deregister (used by `make
// smoke`).
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"hpfcg/internal/cluster"
	"hpfcg/internal/serve"
)

// runRouter serves the cluster front tier until SIGINT/SIGTERM.
func runRouter(addr string) {
	rt := cluster.NewRouter(cluster.RouterOptions{})
	defer rt.Close()
	srv := &http.Server{Addr: addr, Handler: rt.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("hpfserve router listening on %s", addr)
		errc <- srv.ListenAndServe()
	}()
	select {
	case err := <-errc:
		log.Fatalf("router: %v", err)
	case <-ctx.Done():
	}
	log.Print("router stopping...")
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = srv.Shutdown(sctx)
	log.Print("router stopped")
}

// startJoiner wires a worker shard into the cluster; the returned stop
// function deregisters it (blocking briefly) for graceful shutdown.
func startJoiner(routerURL, name, advertise, addr string) (stop func(), err error) {
	if name == "" {
		host, herr := os.Hostname()
		if herr != nil || host == "" {
			host = "shard"
		}
		name = host + strings.ReplaceAll(addr, ":", "-")
	}
	if advertise == "" {
		// Loopback default: right for single-host clusters, must be set
		// explicitly for anything multi-host.
		advertise = "http://127.0.0.1" + addr
	}
	j, err := cluster.NewJoiner(cluster.JoinOptions{
		RouterURL:    routerURL,
		Name:         name,
		AdvertiseURL: advertise,
	})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := j.Run(ctx); err != nil && err != context.Canceled {
			log.Printf("cluster join: %v", err)
		}
	}()
	return func() { cancel(); <-done }, nil
}

// runClusterSmoke is the end-to-end cluster self-test: a router and
// two shards on loopback ports, registered and heartbeating through the
// real state API as GET /cluster/nodes shows, repeat traffic through the
// router with the plan-registry hit verified, a traced job's trace
// fetched through the router, the /metrics rollup, and an empty member
// list once the shards deregister.
func runClusterSmoke(opts serve.Options) error {
	rt := cluster.NewRouter(cluster.RouterOptions{})
	defer rt.Close()
	routerURL, _, err := listen(rt.Handler())
	if err != nil {
		return err
	}
	log.Printf("cluster-smoke: router on %s", routerURL)
	if err := probe(routerURL, http.StatusOK, http.StatusServiceUnavailable); err != nil {
		return fmt.Errorf("empty ring: %w", err)
	}

	var scheds []*serve.Scheduler
	var stops []func()
	defer func() {
		for _, stop := range stops {
			stop()
		}
	}()
	for i := 0; i < 2; i++ {
		sched := serve.New(opts)
		scheds = append(scheds, sched)
		shardURL, _, err := listen(serve.NewHandler(sched))
		if err != nil {
			return err
		}
		stop, err := startJoiner(routerURL, fmt.Sprintf("shard-%d", i+1), shardURL, "")
		if err != nil {
			return err
		}
		stops = append(stops, stop)
		log.Printf("cluster-smoke: shard-%d on %s", i+1, shardURL)
	}
	// Registration is asynchronous, and the first heartbeat comes a
	// period later: wait until the router lists both shards alive with
	// a beat newer than the one it first listed.
	first := map[string]time.Time{}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		nodes, err := listNodes(routerURL)
		if err != nil {
			return err
		}
		beating := 0
		for _, n := range nodes {
			if t, ok := first[n.Name]; !ok {
				first[n.Name] = n.LastBeat
			} else if n.State == cluster.StateAlive && n.LastBeat.After(t) {
				beating++
			}
		}
		if beating == 2 {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("router lists %d of 2 shards alive and heartbeating", beating)
		}
	}
	if err := probe(routerURL, http.StatusOK, http.StatusOK); err != nil {
		return err
	}

	// The same matrix twice: must land on one shard, hit its registry.
	const spec = `{"matrix":"laplace2d:16:16","np":4,"seed":7}`
	var shard string
	var x0 []float64
	for round := 0; round < 2; round++ {
		id, owner, err := submit(routerURL, spec)
		if err != nil {
			return err
		}
		if round == 0 {
			shard = owner
		} else if owner != shard {
			return fmt.Errorf("repeat traffic split: %s then %s", shard, owner)
		}
		v, err := wait(routerURL, id)
		if err != nil {
			return err
		}
		// The view names the job by the ID the router handed out.
		if err := checkView(v, id, serve.StateDone); err != nil {
			return fmt.Errorf("round %d: %w", round, err)
		}
		if v.Result.PlanCacheHit != (round > 0) {
			return fmt.Errorf("round %d: plan_cache_hit=%v", round, v.Result.PlanCacheHit)
		}
		if round == 0 {
			x0 = v.Result.X
		} else {
			if v.Result.SetupModelTime != 0 {
				return fmt.Errorf("warm solve paid setup %g", v.Result.SetupModelTime)
			}
			if !slices.Equal(v.Result.X, x0) {
				return fmt.Errorf("warm answer differs from the cold one")
			}
		}
		log.Printf("cluster-smoke: round %d on %s, %d iterations, cache_hit=%v",
			round, owner, v.Result.Iterations, v.Result.PlanCacheHit)
	}

	// A traced job's trace comes back through the router.
	id, _, err := submit(routerURL, `{"matrix":"laplace1d:32","np":2,"trace":true}`)
	if err != nil {
		return err
	}
	if v, err := wait(routerURL, id); err != nil || !v.HasTrace {
		return fmt.Errorf("traced job %s: has_trace=%v (%v)", id, v.HasTrace, err)
	}
	if err := fetchTrace(routerURL, id); err != nil {
		return err
	}

	// The rollup must show the hit with the owning shard's label.
	metrics, err := get(routerURL+"/metrics", http.StatusOK)
	if err != nil {
		return err
	}
	if line := fmt.Sprintf("hpfserve_plan_cache_hits_total{shard=%q} 1", shard); !strings.Contains(metrics, line) {
		return fmt.Errorf("metrics rollup missing %q", line)
	}

	// Leaving deregisters: the router lists no shard afterwards.
	for _, stop := range stops {
		stop()
	}
	if nodes, err := listNodes(routerURL); err != nil || len(nodes) != 0 {
		return fmt.Errorf("after the shards left the router lists %v (%v)", nodes, err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, s := range scheds {
		if err := s.Drain(ctx); err != nil {
			return err
		}
	}
	return nil
}

// listNodes reads the router's member list.
func listNodes(routerURL string) ([]cluster.Node, error) {
	body, err := get(routerURL+"/cluster/nodes", http.StatusOK)
	if err != nil {
		return nil, err
	}
	var nodes []cluster.Node
	err = json.Unmarshal([]byte(body), &nodes)
	return nodes, err
}
