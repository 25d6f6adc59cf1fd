package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
)

// rounds is how many cold rounds one run measures; every wall metric
// is the best round's value (see bestRound).
const rounds = 9

// np is the processor count every job runs at: the service default, so
// the comm layer does real channel work.
const np = 4

// workloadDef is what the README and the run header say about a
// workload; the code that runs it is a workload value.
type workloadDef struct {
	Name, Why string
	// Loop is the loop kind with its caller count.
	Loop string
	// Sizes states the working set against the 4 MiB L2.
	Sizes string
	// RatePerSec is the frozen nominal job rate on the reference host:
	// the per-round job count is RatePerSec x seconds / rounds (with a
	// floor of MinJobs).
	RatePerSec float64
	MinJobs    int
	// LimitMS is the latency limit slo_met_share counts against.
	LimitMS float64
	// RefJobs is how many jobs (family members 0..RefJobs-1) are
	// re-solved at np = 1 for model_parallel_efficiency.
	RefJobs int
}

// jobsPerRound turns the run length into a fixed job count, so the
// modeled metrics are a function of the run length alone.
func (d workloadDef) jobsPerRound(seconds float64) int {
	n := int(math.Round(d.RatePerSec * seconds / rounds))
	return max(n, d.MinJobs)
}

// workload is one set of inputs the benchmark runs.
type workload interface {
	def() workloadDef
	// prepare builds every seed-derived input, outside any timed region.
	prepare(seed int64, seconds float64) error
	// round runs one cold round: bring-up, then the fixed job list.
	round(tr *tracer) (*roundResult, error)
	// refModelNP1 re-solves the RefJobs reference jobs at np = 1 and
	// returns their summed solve model time.
	refModelNP1() (float64, error)
	// layers runs this workload's part of the traced pass.
	layers(tr *tracer, rs []*roundResult, out values) error
}

// jobResult is one job of one round.
type jobResult struct {
	ms     float64 // latency: call time on solve_*, send -> result decoded on serve_*
	ok     bool    // answered, converged and verified
	why    string  // when not ok: what went wrong
	refuse bool    // the service refused it (429/503)
	ref    bool    // one of the RefJobs family members that are re-solved at np = 1

	iterations int
	modelS     float64 // solve model time + setup model time / batch size
	solveS     float64 // solve model time alone
	xhash      uint64

	queueMS, runMS float64
	batch, bytes   int
	shard          string
}

// roundResult is what one round measured.
type roundResult struct {
	setupS      float64
	wallS, cpuS float64
	mallocs     uint64
	cold        []jobResult // the bring-up's jobs: never timed, but their modeled cost counts
	jobs        []jobResult // the measured jobs, by family member
	order       []int       // the family members in the order this round ran them
	heapMB      float64
	hits, miss  uint64 // plan registry, summed over shards
}

// roundOrder is the order in which round k of a run with this seed
// runs its n family members. The job family itself is fixed (member f
// always has right-hand-side seed f+1), so the seed decides when each
// job runs and what it runs next to, never which jobs run: the modeled
// sums are the same for every seed, and a change in them is a change in
// the program.
func roundOrder(seed int64, k, n int) []int {
	return rand.New(rand.NewSource(seed + int64(k)<<32)).Perm(n)
}

func (r *roundResult) latencies() []float64 {
	out := make([]float64, len(r.jobs))
	for i, j := range r.jobs {
		out[i] = j.ms
	}
	return out
}

// hashX folds a solution vector's bits into one word, so "bit-identical
// across rounds" is one comparison per job.
func hashX(x []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range x {
		u := math.Float64bits(v)
		for k := range b {
			b[k] = byte(u >> (8 * k))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// relResidual is ||b - A·x|| / ||b|| with A applied by the sequential
// reference mulVec.
func relResidual(mulVec func(x, y []float64), b, x []float64) float64 {
	y := make([]float64, len(b))
	mulVec(x, y)
	var rn, bn float64
	for i := range b {
		d := b[i] - y[i]
		rn += d * d
		bn += b[i] * b[i]
	}
	if bn == 0 {
		return math.Sqrt(rn)
	}
	return math.Sqrt(rn / bn)
}

// crossCheck compares every round with the first: the same job must
// give the same iterations, model time and solution bits. A job that
// differs is marked not ok in the later round.
func crossCheck(rs []*roundResult) (mismatches int) {
	differ := func(a jobResult, b *jobResult) {
		if (a.iterations != b.iterations || a.modelS != b.modelS || a.xhash != b.xhash) && b.ok {
			b.ok = false
			b.why = fmt.Sprintf("differs from round 0: iterations %d/%d, model time %.17g/%.17g, same answer bits: %v",
				a.iterations, b.iterations, a.modelS, b.modelS, a.xhash == b.xhash)
			mismatches++
		}
	}
	for _, r := range rs[1:] {
		for i := range r.jobs {
			differ(rs[0].jobs[i], &r.jobs[i])
		}
		for i := range r.cold {
			differ(rs[0].cold[i], &r.cold[i])
		}
	}
	return mismatches
}

// endToEndValues folds the untraced rounds into the gated metrics. Each
// wall metric is computed per round and the best round is reported.
func endToEndValues(d workloadDef, rs []*roundResult, refNP1 float64) values {
	var setup, p90, cpuPerJob []float64
	var attempted, measured, ok, inLimit int
	var mallocs uint64
	for _, r := range rs {
		setup = append(setup, r.setupS)
		p90 = append(p90, percentile(r.latencies(), 90))
		cpuPerJob = append(cpuPerJob, 1e3*r.cpuS/float64(len(r.jobs)))
		mallocs += r.mallocs
		measured += len(r.jobs)
		for _, j := range r.jobs {
			attempted++
			if j.ok {
				ok++
				if j.ms <= d.LimitMS {
					inLimit++
				}
			}
		}
		for _, j := range r.cold {
			attempted++
			if j.ok {
				ok++
			}
		}
	}
	// The modeled metrics come from round 0, bring-up jobs included (the
	// cold path's modeled set-up is part of the paper's clock), summed in
	// the order they ran; crossCheck has already held the other rounds to
	// round 0 job by job.
	var model, refNP4 float64
	var iters int
	for _, j := range rs[0].cold {
		model += j.modelS
		iters += j.iterations
	}
	for _, f := range rs[0].order {
		j := rs[0].jobs[f]
		model += j.modelS
		iters += j.iterations
		if j.ref {
			refNP4 += j.solveS
		}
	}
	return values{
		"model_time_s":              model,
		"iterations":                float64(iters),
		"model_parallel_efficiency": refNP1 / (np * refNP4),
		"ok_share":                  float64(ok) / float64(attempted),
		"allocs_per_job":            float64(mallocs) / float64(measured),
		"retained_heap_mb":          rs[len(rs)-1].heapMB,
		"setup_s":                   bestRound(setup, "lower"),
		"job_ms_p50":                bestRound(medians(rs), "lower"),
		"job_ms_p90":                bestRound(p90, "lower"),
		"cpu_ms_per_job":            bestRound(cpuPerJob, "lower"),
		"slo_met_share":             float64(inLimit) / float64(measured),
	}
}

// medians is each round's median job latency.
func medians(rs []*roundResult) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = percentile(r.latencies(), 50)
	}
	return out
}

// roundSpread is max / min of the per-round median latency: near 1 on
// a quiet host, 1.5 and more when a slow phase hit some rounds.
func roundSpread(rs []*roundResult) float64 {
	m := sorted(medians(rs))
	if len(m) == 0 || m[0] == 0 {
		return 0
	}
	return m[len(m)-1] / m[0]
}

// runRounds runs n cold rounds with a collection between them.
func runRounds(w workload, n int, tr *tracer) ([]*roundResult, error) {
	var rs []*roundResult
	for k := 0; k < n; k++ {
		runtime.GC()
		r, err := w.round(tr)
		if err != nil {
			return nil, fmt.Errorf("%s round %d: %w", w.def().Name, k, err)
		}
		rs = append(rs, r)
	}
	return rs, nil
}
