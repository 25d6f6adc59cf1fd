// The router tier: an HTTP front that mirrors the hpfserve job API
// and consistent-hashes every job onto a shard by its placement key
// (serve.JobSpec.PlacementKey), without building or parsing its
// matrix. Job IDs returned to clients encode the shard
// ("job-3@shard-a"), so status polls route without any router state;
// backpressure (429/503 + Retry-After) passes through unmodified so
// closed-loop clients behave exactly as against a single shard.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"hpfcg/internal/serve"
)

// RouterOptions configures a Router.
type RouterOptions struct {
	// SweepEvery is the failure-detector period (default 1s; <0
	// disables the background sweeper — tests drive Sweep directly).
	SweepEvery time.Duration
	// Client performs proxy requests (default: 30s-timeout client).
	Client *http.Client
	// Logf logs membership transitions (default log.Printf).
	Logf func(format string, args ...any)
}

// Router is the cluster front tier.
type Router struct {
	mem  *Membership
	cli  *http.Client
	logf func(format string, args ...any)

	mu          sync.Mutex
	routed      map[string]uint64 // submissions proxied, by shard
	proxyErrors uint64
	noShard     uint64

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// NewRouter builds a router and, unless disabled, starts its
// failure-detector sweeper. Close releases it.
func NewRouter(opts RouterOptions) *Router {
	rt := &Router{
		mem:    NewMembership(MembershipOptions{}),
		cli:    opts.Client,
		logf:   opts.Logf,
		routed: map[string]uint64{},
		stop:   make(chan struct{}),
	}
	if rt.cli == nil {
		rt.cli = &http.Client{Timeout: 30 * time.Second}
	}
	if rt.logf == nil {
		rt.logf = log.Printf
	}
	every := opts.SweepEvery
	if every == 0 {
		every = time.Second
	}
	if every > 0 {
		rt.wg.Add(1)
		go rt.sweeper(every)
	}
	return rt
}

// Close stops the background sweeper. Idempotent.
func (rt *Router) Close() {
	rt.stopOnce.Do(func() { close(rt.stop) })
	rt.wg.Wait()
}

// Membership exposes the member table (state API handlers, tests,
// the cluster smoke check).
func (rt *Router) Membership() *Membership { return rt.mem }

func (rt *Router) sweeper(every time.Duration) {
	defer rt.wg.Done()
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-tick.C:
			suspected, evicted := rt.mem.Sweep()
			for _, n := range suspected {
				rt.logf("cluster: shard %s suspected (missed heartbeats)", n)
			}
			for _, n := range evicted {
				rt.logf("cluster: shard %s evicted", n)
			}
		}
	}
}

// Handler returns the router's HTTP surface.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", rt.handleSubmit)
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) { rt.proxyJobGet(w, r, "") })
	mux.HandleFunc("GET /jobs/{id}/trace", func(w http.ResponseWriter, r *http.Request) { rt.proxyJobGet(w, r, "/trace") })
	mux.HandleFunc("GET /metrics", rt.handleMetrics)
	mux.HandleFunc("POST /cluster/register", rt.handleRegister)
	mux.HandleFunc("POST /cluster/heartbeat", rt.handleHeartbeat)
	mux.HandleFunc("POST /cluster/deregister", rt.handleDeregister)
	mux.HandleFunc("GET /cluster/nodes", func(w http.ResponseWriter, r *http.Request) {
		serve.WriteJSON(w, http.StatusOK, rt.mem.Nodes())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	// The router is ready only when it can actually place a job: an
	// empty ring means every submission would 503, so balancers should
	// not send traffic yet.
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if rt.mem.AliveCount() == 0 {
			http.Error(w, "no live shards", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ready")
	})
	return mux
}

// --- state API -------------------------------------------------------

type registerRequest struct {
	Name string `json:"name"`
	URL  string `json:"url"`
}

func (rt *Router) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req registerRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		serve.WriteJSON(w, http.StatusBadRequest, serve.ErrorResponse{Error: err.Error()})
		return
	}
	if err := rt.mem.Register(req.Name, req.URL); err != nil {
		serve.WriteJSON(w, http.StatusBadRequest, serve.ErrorResponse{Error: err.Error()})
		return
	}
	rt.logf("cluster: shard %s registered at %s (%d live)", req.Name, req.URL, rt.mem.AliveCount())
	serve.WriteJSON(w, http.StatusOK, map[string]int{"live": rt.mem.AliveCount()})
}

func (rt *Router) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req registerRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		serve.WriteJSON(w, http.StatusBadRequest, serve.ErrorResponse{Error: err.Error()})
		return
	}
	if !rt.mem.Heartbeat(req.Name) {
		// Unknown: the shard was evicted (or never joined) — 404 tells
		// it to re-register.
		serve.WriteJSON(w, http.StatusNotFound, serve.ErrorResponse{Error: "unknown node " + req.Name})
		return
	}
	serve.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (rt *Router) handleDeregister(w http.ResponseWriter, r *http.Request) {
	var req registerRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		serve.WriteJSON(w, http.StatusBadRequest, serve.ErrorResponse{Error: err.Error()})
		return
	}
	rt.mem.Deregister(req.Name)
	rt.logf("cluster: shard %s deregistered (%d live)", req.Name, rt.mem.AliveCount())
	serve.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// --- job routing -----------------------------------------------------

// EncodeJobID tags a shard-local job ID with its owner; DecodeJobID
// splits it again. The router keeps no job table — the ID is the
// routing state.
func EncodeJobID(bare, node string) string { return bare + "@" + node }

// DecodeJobID splits a cluster job ID into the shard-local ID and the
// owning node name.
func DecodeJobID(id string) (bare, node string, ok bool) {
	i := strings.LastIndex(id, "@")
	if i <= 0 || i == len(id)-1 {
		return "", "", false
	}
	return id[:i], id[i+1:], true
}

// ownerFor places a job on the ring by its placement key — a digest of
// the generator spec or, for an upload, of the upload's text. The
// router builds no matrix and parses no upload; a malformed one is the
// owning shard's to report, as it is for a direct submission. The only
// failure is an empty ring.
func (rt *Router) ownerFor(spec *serve.JobSpec) (Node, error) {
	name, ok := rt.mem.Ring().Owner(spec.PlacementKey())
	if !ok {
		return Node{}, errNoShards
	}
	n, ok := rt.mem.Lookup(name)
	if !ok {
		return Node{}, errNoShards
	}
	return n, nil
}

var errNoShards = fmt.Errorf("cluster: no live shards in the ring")

// handleSubmit proxies POST /jobs to the owning shard. Status codes
// and backpressure headers pass through unmodified; on 202 the job ID
// is rewritten to encode the shard.
func (rt *Router) handleSubmit(w http.ResponseWriter, r *http.Request) {
	reqID := serve.EnsureRequestID(r)
	w.Header().Set(serve.RequestIDHeader, reqID)

	body, status, err := serve.ReadBody(w, r)
	if err != nil {
		serve.WriteJSON(w, status, serve.ErrorResponse{Error: "bad job spec: " + err.Error()})
		return
	}
	spec, err := serve.DecodeJobSpec(body)
	if err != nil {
		serve.WriteJSON(w, http.StatusBadRequest, serve.ErrorResponse{Error: "bad job spec: " + err.Error()})
		return
	}

	node, err := rt.ownerFor(&spec)
	if err != nil {
		rt.mu.Lock()
		rt.noShard++
		rt.mu.Unlock()
		w.Header().Set("Retry-After", "1")
		serve.WriteJSON(w, http.StatusServiceUnavailable, serve.ErrorResponse{Error: err.Error()})
		return
	}

	status, hdr, respBody, err := rt.proxy(r.Context(), "POST", node.URL+"/jobs", body, reqID)
	if err != nil {
		rt.countProxyError()
		serve.WriteJSON(w, http.StatusBadGateway, serve.ErrorResponse{Error: "shard " + node.Name + ": " + err.Error()})
		return
	}
	rt.mu.Lock()
	rt.routed[node.Name]++
	rt.mu.Unlock()

	copyHeader(w, hdr, "Retry-After")
	copyHeader(w, hdr, serve.RequestIDHeader)
	if status == http.StatusAccepted {
		var sub struct {
			ID        string `json:"id"`
			StatusURL string `json:"status_url"`
		}
		if json.Unmarshal(respBody, &sub) == nil && sub.ID != "" {
			cid := EncodeJobID(sub.ID, node.Name)
			serve.WriteJSON(w, http.StatusAccepted, map[string]string{
				"id":         cid,
				"status_url": "/jobs/" + cid,
				"shard":      node.Name,
			})
			return
		}
	}
	// Everything else — 400, 429, 503, 500 — passes through verbatim.
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(respBody)
}

// proxyJobGet routes GET /jobs/{id}[/trace] by the shard encoded in
// the ID, preserving the query string (?wait=1&timeout=...). A job view
// names the job as the client does, by its cluster ID.
func (rt *Router) proxyJobGet(w http.ResponseWriter, r *http.Request, suffix string) {
	id := r.PathValue("id")
	bare, nodeName, ok := DecodeJobID(id)
	if !ok {
		serve.WriteJSON(w, http.StatusNotFound, serve.ErrorResponse{Error: "job ID " + id + " does not encode a shard (want id@node)"})
		return
	}
	node, ok := rt.mem.Lookup(nodeName)
	if !ok {
		serve.WriteJSON(w, http.StatusNotFound, serve.ErrorResponse{Error: "unknown shard " + nodeName})
		return
	}
	url := node.URL + "/jobs/" + bare + suffix
	if q := r.URL.RawQuery; q != "" {
		url += "?" + q
	}
	req, err := http.NewRequestWithContext(r.Context(), "GET", url, nil)
	if err != nil {
		serve.WriteJSON(w, http.StatusInternalServerError, serve.ErrorResponse{Error: err.Error()})
		return
	}
	resp, err := rt.cli.Do(req)
	if err != nil {
		rt.countProxyError()
		serve.WriteJSON(w, http.StatusBadGateway, serve.ErrorResponse{Error: "shard " + nodeName + ": " + err.Error()})
		return
	}
	defer resp.Body.Close()
	for _, h := range []string{"Content-Type", "Content-Disposition", "Retry-After"} {
		copyHeader(w, resp.Header, h)
	}
	w.WriteHeader(resp.StatusCode)
	if suffix == "" && resp.StatusCode == http.StatusOK {
		writeViewHead(w, resp.Body, bare, id)
	}
	_, _ = io.Copy(w, resp.Body)
}

// writeViewHead copies the opening of a shard's job view, which names
// the shard-local ID ({"id":"job-1",...), as the same opening naming
// the cluster ID. It reads only that prefix: the rest of the view, the
// solution vector included, streams through undecoded. A body that
// does not open that way is copied as read.
func writeViewHead(w io.Writer, body io.Reader, bare, id string) {
	const open = `{"id":`
	head := make([]byte, len(open)+len(bare)+2)
	n, _ := io.ReadFull(body, head)
	head = head[:n]
	if string(head) == open+strconv.Quote(bare) {
		quoted, _ := json.Marshal(id)
		head = append(head[:len(open)], quoted...)
	}
	_, _ = w.Write(head)
}

// proxy performs one round-trip and slurps the response.
func (rt *Router) proxy(ctx context.Context, method, url string, body []byte, reqID string) (int, http.Header, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if reqID != "" {
		req.Header.Set(serve.RequestIDHeader, reqID)
	}
	resp, err := rt.cli.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, nil, err
	}
	return resp.StatusCode, resp.Header, respBody, nil
}

func copyHeader(w http.ResponseWriter, from http.Header, key string) {
	if v := from.Get(key); v != "" {
		w.Header().Set(key, v)
	}
}

func (rt *Router) countProxyError() {
	rt.mu.Lock()
	rt.proxyErrors++
	rt.mu.Unlock()
}

// --- metrics rollup --------------------------------------------------

// handleMetrics renders the router's own counters, then scrapes every
// live shard's /metrics concurrently and merges the expositions with a
// shard="name" label on every sample, grouped per metric family so the
// output stays valid Prometheus text format.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")

	rt.mu.Lock()
	shards := make([]string, 0, len(rt.routed))
	for s := range rt.routed {
		shards = append(shards, s)
	}
	sort.Strings(shards)
	fmt.Fprintln(w, "# HELP hpfrouter_jobs_routed_total Job submissions proxied, by shard.")
	fmt.Fprintln(w, "# TYPE hpfrouter_jobs_routed_total counter")
	for _, s := range shards {
		fmt.Fprintf(w, "hpfrouter_jobs_routed_total{shard=%q} %d\n", s, rt.routed[s])
	}
	fmt.Fprintln(w, "# HELP hpfrouter_proxy_errors_total Proxy round-trips that failed.")
	fmt.Fprintln(w, "# TYPE hpfrouter_proxy_errors_total counter")
	fmt.Fprintf(w, "hpfrouter_proxy_errors_total %d\n", rt.proxyErrors)
	fmt.Fprintln(w, "# HELP hpfrouter_no_shard_total Submissions rejected because the ring was empty.")
	fmt.Fprintln(w, "# TYPE hpfrouter_no_shard_total counter")
	fmt.Fprintf(w, "hpfrouter_no_shard_total %d\n", rt.noShard)
	rt.mu.Unlock()

	nodes := rt.mem.Nodes()
	fmt.Fprintln(w, "# HELP hpfrouter_shards_live Shards currently in the routing ring.")
	fmt.Fprintln(w, "# TYPE hpfrouter_shards_live gauge")
	fmt.Fprintf(w, "hpfrouter_shards_live %d\n", rt.mem.AliveCount())

	// Scatter the scrapes.
	type scrape struct {
		node Node
		body []byte
		err  error
	}
	scrapes := make([]scrape, len(nodes))
	var wg sync.WaitGroup
	for i, n := range nodes {
		if n.State != StateAlive {
			continue
		}
		wg.Add(1)
		go func(i int, n Node) {
			defer wg.Done()
			scrapes[i].node = n
			req, err := http.NewRequestWithContext(r.Context(), "GET", n.URL+"/metrics", nil)
			if err != nil {
				scrapes[i].err = err
				return
			}
			resp, err := rt.cli.Do(req)
			if err != nil {
				scrapes[i].err = err
				return
			}
			defer resp.Body.Close()
			scrapes[i].body, scrapes[i].err = io.ReadAll(resp.Body)
		}(i, n)
	}
	wg.Wait()

	merged := newFamilyMerger()
	for _, sc := range scrapes {
		if sc.node.Name == "" {
			continue
		}
		if sc.err != nil {
			rt.countProxyError()
			fmt.Fprintf(w, "# shard %s scrape failed: %v\n", sc.node.Name, sc.err)
			continue
		}
		merged.addExposition(sc.node.Name, sc.body)
	}
	merged.write(w)
}

// familyMerger regroups relabeled samples under one HELP/TYPE block
// per metric family, keeping the exposition valid after concatenating
// several shards' outputs.
type familyMerger struct {
	order    []string
	help     map[string]string
	typ      map[string]string
	samples  map[string][]string
	orphaned []string // samples seen before any family header (none in practice)
}

func newFamilyMerger() *familyMerger {
	return &familyMerger{
		help:    map[string]string{},
		typ:     map[string]string{},
		samples: map[string][]string{},
	}
}

// addExposition scans one shard's exposition; samples follow their
// family's # TYPE line in the text format, so a sequential scan can
// attribute every sample to the current family.
func (fm *familyMerger) addExposition(shard string, body []byte) {
	current := ""
	for _, line := range strings.Split(string(body), "\n") {
		line = strings.TrimRight(line, "\r")
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			rest := strings.TrimPrefix(line, "# HELP ")
			name, _, _ := strings.Cut(rest, " ")
			fm.ensure(name)
			if fm.help[name] == "" {
				fm.help[name] = line
			}
			current = name
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			rest := strings.TrimPrefix(line, "# TYPE ")
			name, _, _ := strings.Cut(rest, " ")
			fm.ensure(name)
			if fm.typ[name] == "" {
				fm.typ[name] = line
			}
			current = name
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		relabeled := relabel(line, shard)
		if current == "" {
			fm.orphaned = append(fm.orphaned, relabeled)
			continue
		}
		fm.samples[current] = append(fm.samples[current], relabeled)
	}
}

func (fm *familyMerger) ensure(name string) {
	if _, ok := fm.samples[name]; !ok {
		fm.samples[name] = nil
		fm.order = append(fm.order, name)
	}
}

func (fm *familyMerger) write(w io.Writer) {
	for _, name := range fm.order {
		if fm.help[name] != "" {
			fmt.Fprintln(w, fm.help[name])
		}
		if fm.typ[name] != "" {
			fmt.Fprintln(w, fm.typ[name])
		}
		for _, s := range fm.samples[name] {
			fmt.Fprintln(w, s)
		}
	}
	for _, s := range fm.orphaned {
		fmt.Fprintln(w, s)
	}
}

// relabel injects shard="name" as the first label of a sample line.
func relabel(sample, shard string) string {
	// "name{a="b"} v" -> name{shard="s",a="b"} v ; "name v" -> name{shard="s"} v
	if i := strings.Index(sample, "{"); i >= 0 {
		return sample[:i+1] + fmt.Sprintf("shard=%q,", shard) + sample[i+1:]
	}
	if i := strings.IndexAny(sample, " \t"); i >= 0 {
		return sample[:i] + fmt.Sprintf("{shard=%q}", shard) + sample[i:]
	}
	return sample
}
