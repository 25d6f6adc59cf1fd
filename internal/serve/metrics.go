// Live service metrics in Prometheus text exposition format,
// hand-rolled so the repo stays dependency-free. The scheduler owns
// one Metrics and updates it at admission, dispatch and completion;
// /metrics renders it.
package serve

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"hpfcg/internal/hpfexec"
)

// histogram is a fixed-bucket Prometheus histogram (cumulative counts
// rendered at exposition time).
type histogram struct {
	bounds []float64 // upper bounds, ascending; +Inf implicit
	counts []uint64  // len(bounds)+1, per-bucket (non-cumulative)
	sum    float64
	count  uint64
}

func newHistogram(bounds []float64) *histogram {
	return &histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
}

func (h *histogram) observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.count++
}

// write renders the histogram with an optional constant label prefix
// (e.g. `stage="queue",`).
func (h *histogram) write(w io.Writer, name, label string) {
	cum := uint64(0)
	for i, b := range h.bounds {
		cum += h.counts[i]
		fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", name, label, fmt.Sprintf("%g", b), cum)
	}
	cum += h.counts[len(h.bounds)]
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, label, cum)
	suffix := ""
	if label != "" {
		suffix = "{" + label[:len(label)-1] + "}"
	}
	fmt.Fprintf(w, "%s_sum%s %g\n", name, suffix, h.sum)
	fmt.Fprintf(w, "%s_count%s %d\n", name, suffix, h.count)
}

// secondsBuckets spans 10µs..100s in half-decade steps — wide enough
// for both queue waits and whole-batch solves.
func secondsBuckets() []float64 {
	return []float64{1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1, 3, 10, 30, 100}
}

// occupancyBuckets cover batch sizes 1..32.
func occupancyBuckets() []float64 {
	return []float64{1, 2, 4, 8, 16, 32}
}

// Metrics is the service's live counter set. Job-scoped families carry
// a job_type label ("cg" | "hpcg" | "stencil") so operators can tell
// generated-stencil traffic from general sparse traffic on one scrape.
type Metrics struct {
	mu sync.Mutex

	submitted map[string]uint64 // by job_type
	completed map[string]uint64 // by job_type
	failed    map[string]uint64 // by job_type
	rejected  map[string]uint64 // by reason: queue_full, draining

	queueDepth int
	inflight   int

	queueWait map[string]*histogram // submit -> dispatch, wall seconds, by job_type
	runWall   map[string]*histogram // dispatch -> finish, wall seconds, by job_type
	occupancy *histogram            // jobs per batch

	batches      uint64
	modelSeconds map[string]float64 // makespan, comm, setup

	// planStats, when non-nil, snapshots the Prepared-plan registry at
	// exposition time (set by the scheduler when the cache is enabled).
	planStats func() hpfexec.RegistryStats
}

func newMetrics() *Metrics {
	return &Metrics{
		submitted:    map[string]uint64{},
		completed:    map[string]uint64{},
		failed:       map[string]uint64{},
		rejected:     map[string]uint64{},
		queueWait:    map[string]*histogram{},
		runWall:      map[string]*histogram{},
		occupancy:    newHistogram(occupancyBuckets()),
		modelSeconds: map[string]float64{},
	}
}

// stageHist lazily creates the per-job_type stage histogram. Caller
// holds mt.mu.
func stageHist(m map[string]*histogram, jobType string) *histogram {
	h, ok := m[jobType]
	if !ok {
		h = newHistogram(secondsBuckets())
		m[jobType] = h
	}
	return h
}

func (mt *Metrics) submit(jobType string) {
	mt.mu.Lock()
	mt.submitted[jobType]++
	mt.mu.Unlock()
}
func (mt *Metrics) reject(why string) { mt.mu.Lock(); mt.rejected[why]++; mt.mu.Unlock() }

func (mt *Metrics) setGauges(queueDepth, inflight int) {
	mt.mu.Lock()
	mt.queueDepth, mt.inflight = queueDepth, inflight
	mt.mu.Unlock()
}

func (mt *Metrics) dispatch(jobType string, batchSize int, queueWaits []float64) {
	mt.mu.Lock()
	mt.batches++
	mt.occupancy.observe(float64(batchSize))
	qw := stageHist(mt.queueWait, jobType)
	for _, w := range queueWaits {
		qw.observe(w)
	}
	mt.mu.Unlock()
}

func (mt *Metrics) finish(jobType string, ok bool, runSeconds float64) {
	mt.mu.Lock()
	if ok {
		mt.completed[jobType]++
	} else {
		mt.failed[jobType]++
	}
	stageHist(mt.runWall, jobType).observe(runSeconds)
	mt.mu.Unlock()
}

func (mt *Metrics) addModel(makespan, comm, setup float64) {
	mt.mu.Lock()
	mt.modelSeconds["makespan"] += makespan
	mt.modelSeconds["comm"] += comm
	mt.modelSeconds["setup"] += setup
	mt.mu.Unlock()
}

// sortedKeys returns the map's keys in deterministic exposition order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// writeCounterByType renders one labeled counter family: a single
// HELP/TYPE header followed by one series per job_type. The known job
// types are always exported (zero before first traffic) so dashboards
// and rate() queries see stable series.
func writeCounterByType(w io.Writer, name, help string, m map[string]uint64) {
	fmt.Fprintf(w, "# HELP %s %s\n", name, help)
	fmt.Fprintf(w, "# TYPE %s counter\n", name)
	seeded := map[string]uint64{"cg": 0, "hpcg": 0, "stencil": 0}
	for jt, n := range m {
		seeded[jt] = n
	}
	for _, jt := range sortedKeys(seeded) {
		fmt.Fprintf(w, "%s{job_type=%q} %d\n", name, jt, seeded[jt])
	}
}

// WriteProm renders the metrics in Prometheus text format.
func (mt *Metrics) WriteProm(w io.Writer) {
	mt.mu.Lock()
	defer mt.mu.Unlock()

	writeCounterByType(w, "hpfserve_jobs_submitted_total",
		"Jobs admitted to the queue, by job type.", mt.submitted)

	fmt.Fprintln(w, "# HELP hpfserve_jobs_rejected_total Jobs rejected at admission, by reason.")
	fmt.Fprintln(w, "# TYPE hpfserve_jobs_rejected_total counter")
	for _, r := range sortedKeys(mt.rejected) {
		fmt.Fprintf(w, "hpfserve_jobs_rejected_total{reason=%q} %d\n", r, mt.rejected[r])
	}

	writeCounterByType(w, "hpfserve_jobs_completed_total",
		"Jobs finished successfully, by job type.", mt.completed)

	writeCounterByType(w, "hpfserve_jobs_failed_total",
		"Jobs that ended in error, by job type.", mt.failed)

	fmt.Fprintln(w, "# HELP hpfserve_queue_depth Jobs waiting for a worker.")
	fmt.Fprintln(w, "# TYPE hpfserve_queue_depth gauge")
	fmt.Fprintf(w, "hpfserve_queue_depth %d\n", mt.queueDepth)

	fmt.Fprintln(w, "# HELP hpfserve_inflight_jobs Jobs currently being solved.")
	fmt.Fprintln(w, "# TYPE hpfserve_inflight_jobs gauge")
	fmt.Fprintf(w, "hpfserve_inflight_jobs %d\n", mt.inflight)

	fmt.Fprintln(w, "# HELP hpfserve_batches_total Worker dispatches (a batch may carry several jobs).")
	fmt.Fprintln(w, "# TYPE hpfserve_batches_total counter")
	fmt.Fprintf(w, "hpfserve_batches_total %d\n", mt.batches)

	fmt.Fprintln(w, "# HELP hpfserve_stage_seconds Wall-clock latency per lifecycle stage, by job type.")
	fmt.Fprintln(w, "# TYPE hpfserve_stage_seconds histogram")
	for _, jt := range sortedKeys(mt.queueWait) {
		mt.queueWait[jt].write(w, "hpfserve_stage_seconds",
			fmt.Sprintf("stage=\"queue\",job_type=%q,", jt))
	}
	for _, jt := range sortedKeys(mt.runWall) {
		mt.runWall[jt].write(w, "hpfserve_stage_seconds",
			fmt.Sprintf("stage=\"solve\",job_type=%q,", jt))
	}

	fmt.Fprintln(w, "# HELP hpfserve_batch_occupancy Jobs coalesced per dispatched batch.")
	fmt.Fprintln(w, "# TYPE hpfserve_batch_occupancy histogram")
	mt.occupancy.write(w, "hpfserve_batch_occupancy", "")

	if mt.planStats != nil {
		st := mt.planStats()
		fmt.Fprintln(w, "# HELP hpfserve_plan_cache_hits_total Batch dispatches served from a cached prepared plan.")
		fmt.Fprintln(w, "# TYPE hpfserve_plan_cache_hits_total counter")
		fmt.Fprintf(w, "hpfserve_plan_cache_hits_total %d\n", st.Hits)
		fmt.Fprintln(w, "# HELP hpfserve_plan_cache_misses_total Batch dispatches that had to prepare a plan.")
		fmt.Fprintln(w, "# TYPE hpfserve_plan_cache_misses_total counter")
		fmt.Fprintf(w, "hpfserve_plan_cache_misses_total %d\n", st.Misses)
		fmt.Fprintln(w, "# HELP hpfserve_plan_cache_evictions_total Plans evicted under the byte budget.")
		fmt.Fprintln(w, "# TYPE hpfserve_plan_cache_evictions_total counter")
		fmt.Fprintf(w, "hpfserve_plan_cache_evictions_total %d\n", st.Evictions)
		fmt.Fprintln(w, "# HELP hpfserve_plan_cache_entries Plans currently cached.")
		fmt.Fprintln(w, "# TYPE hpfserve_plan_cache_entries gauge")
		fmt.Fprintf(w, "hpfserve_plan_cache_entries %d\n", st.Entries)
		fmt.Fprintln(w, "# HELP hpfserve_plan_cache_bytes Estimated resident bytes of cached plans.")
		fmt.Fprintln(w, "# TYPE hpfserve_plan_cache_bytes gauge")
		fmt.Fprintf(w, "hpfserve_plan_cache_bytes %d\n", st.Bytes)
	}

	fmt.Fprintln(w, "# HELP hpfserve_model_seconds_total Modeled machine time accumulated across runs.")
	fmt.Fprintln(w, "# TYPE hpfserve_model_seconds_total counter")
	kinds := make([]string, 0, len(mt.modelSeconds))
	for k := range mt.modelSeconds {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(w, "hpfserve_model_seconds_total{kind=%q} %g\n", k, mt.modelSeconds[k])
	}
}
