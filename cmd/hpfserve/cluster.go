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
// ports — router + two shards — submits the same matrix twice through
// the router and verifies both solves landed on the same shard with a
// plan-registry hit on the second (used by `make smoke`).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
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
// two shards on loopback ports, registered through the real state API,
// repeat traffic through the router, plan-registry hit verified.
func runClusterSmoke(opts serve.Options) error {
	// Router.
	rt := cluster.NewRouter(cluster.RouterOptions{})
	defer rt.Close()
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	rsrv := &http.Server{Handler: rt.Handler()}
	go func() { _ = rsrv.Serve(rln) }()
	routerURL := "http://" + rln.Addr().String()
	log.Printf("cluster-smoke: router on %s", routerURL)

	// Two worker shards.
	var scheds []*serve.Scheduler
	for i := 0; i < 2; i++ {
		sched := serve.New(opts)
		scheds = append(scheds, sched)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		srv := &http.Server{Handler: serve.NewHandler(sched)}
		go func() { _ = srv.Serve(ln) }()
		shardURL := "http://" + ln.Addr().String()
		stop, err := startJoiner(routerURL, fmt.Sprintf("shard-%d", i+1), shardURL, "")
		if err != nil {
			return err
		}
		defer stop()
		log.Printf("cluster-smoke: shard-%d on %s", i+1, shardURL)
	}
	// Registration is asynchronous; wait for readiness.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(routerURL + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && rt.Membership().AliveCount() == 2 {
				break
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("router never became ready with 2 shards")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The same matrix twice: must land on one shard, hit its registry.
	spec := `{"matrix":"laplace2d:16:16","np":4,"seed":7}`
	var shard string
	var x0 []float64
	for round := 0; round < 2; round++ {
		resp, err := http.Post(routerURL+"/jobs", "application/json", strings.NewReader(spec))
		if err != nil {
			return err
		}
		var ack struct {
			ID    string `json:"id"`
			Shard string `json:"shard"`
		}
		err = json.NewDecoder(resp.Body).Decode(&ack)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusAccepted {
			return fmt.Errorf("round %d: submit status %d (%v)", round, resp.StatusCode, err)
		}
		if round == 0 {
			shard = ack.Shard
		} else if ack.Shard != shard {
			return fmt.Errorf("repeat traffic split: %s then %s", shard, ack.Shard)
		}

		get, err := http.Get(routerURL + "/jobs/" + ack.ID + "?wait=1&timeout=60s")
		if err != nil {
			return err
		}
		var view struct {
			State  string `json:"state"`
			Error  string `json:"error"`
			Result *struct {
				X            []float64 `json:"x"`
				Converged    bool      `json:"converged"`
				Iterations   int       `json:"iterations"`
				PlanCacheHit bool      `json:"plan_cache_hit"`
				SetupModel   float64   `json:"setup_model_time"`
			} `json:"result"`
		}
		err = json.NewDecoder(get.Body).Decode(&view)
		get.Body.Close()
		if err != nil {
			return err
		}
		if view.State != "done" || view.Result == nil || !view.Result.Converged {
			return fmt.Errorf("round %d: state=%s err=%q", round, view.State, view.Error)
		}
		if view.Result.PlanCacheHit != (round > 0) {
			return fmt.Errorf("round %d: plan_cache_hit=%v", round, view.Result.PlanCacheHit)
		}
		if round == 0 {
			x0 = view.Result.X
		} else {
			if view.Result.SetupModel != 0 {
				return fmt.Errorf("warm solve paid setup %g", view.Result.SetupModel)
			}
			for i := range x0 {
				if view.Result.X[i] != x0[i] {
					return fmt.Errorf("warm answer differs at x[%d]", i)
				}
			}
		}
		log.Printf("cluster-smoke: round %d on %s, %d iterations, cache_hit=%v",
			round, ack.Shard, view.Result.Iterations, view.Result.PlanCacheHit)
	}

	// The rollup must show the hit with the owning shard's label.
	mresp, err := http.Get(routerURL + "/metrics")
	if err != nil {
		return err
	}
	var mbuf bytes.Buffer
	_, _ = mbuf.ReadFrom(mresp.Body)
	mresp.Body.Close()
	want := fmt.Sprintf("hpfserve_plan_cache_hits_total{shard=%q} 1", shard)
	if !bytes.Contains(mbuf.Bytes(), []byte(want)) {
		return fmt.Errorf("metrics rollup missing %q", want)
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
