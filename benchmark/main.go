// Command benchmark is the repository's benchmark: five workloads,
// eleven gated end-to-end metrics and about sixty per-layer metrics
// taken in a separate traced pass. BENCHMARK.json at the repository
// root is its manifest and README.md in this directory explains every
// choice. One invocation runs one workload:
//
//	go run ./benchmark --workload solve_csr --seed 1 --seconds 21 --trace 0
//
// and prints a report followed, as the last line of standard output,
// by one JSON object {correct, attempted, failed, metrics}.
// --trace 0 runs the nine untraced rounds and prints the end-to-end
// metrics; --trace 1 runs two untraced rounds, one traced round and
// the layer pass, and prints the per-layer metrics; without --trace it
// does both. --selfcheck N runs N full sets and checks that they agree.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 21

// workloads returns the five workloads, fresh for one run. The frozen
// rates were measured once on the reference host (2 vCPU, GOMAXPROCS 1)
// and are literals on purpose: the job list of a run depends on the
// seed and the run length alone, never on how fast this host is today.
func workloads() []workload {
	return []workload{
		&solveWorkload{pb: stdCSR, d: workloadDef{
			Name:       "solve_csr",
			Why:        "paper Fig. 2 on assembled CSR: spmv ghost kernel, darray, 2 allreduces per short iteration and the inspector do the work; mfree, mg, serve, cluster do none",
			Loop:       "closed, 1 caller, warm SolveBatch of one right-hand side",
			Sizes:      "laplace2d:128:128, 16384 rows, 1.3 MB CSR = 0.33 x L2 (in cache)",
			RatePerSec: 11, MinJobs: 8, LimitMS: 250, RefJobs: 2,
		}},
		&solveWorkload{pb: stdMfree, d: workloadDef{
			Name:       "solve_mfree",
			Why:        "matrix-free 27-point CG: mfree apply and darray dominate, no matrix and no inspector; a CSR-kernel change must not move it, a fused vector-traffic change should",
			Loop:       "closed, 1 caller, warm SolveStencilBatch of one right-hand side",
			Sizes:      "27pt 32x32x32, 32768 points, 0.26 MB per vector = 0.06 x L2 (in cache)",
			RatePerSec: 5.3, MinJobs: 8, LimitMS: 500, RefJobs: 2,
		}},
		&solveWorkload{pb: stdHPCG, d: workloadDef{
			Name:       "solve_hpcg",
			Why:        "multigrid-preconditioned CG: mg SymGS, restriction and coarse solve dominate; the one workload whose operators do not fit L2, where memory-traffic savings show",
			Loop:       "closed, 1 caller, warm SolveHPCGBatch of one right-hand side",
			Sizes:      "20x20x20 per rank x 4 ranks, 3 levels, about 22 MB of level operators = 5.5 x L2 (out of cache)",
			RatePerSec: 4.1, MinJobs: 8, LimitMS: 750, RefJobs: 2,
		}},
		&serveWorkload{hot: true, d: workloadDef{
			Name:       "serve_hot",
			Why:        "small repeat jobs over 7 cached keys through real HTTP: registry hits, scheduler dispatch, Machine.Run spin-up and JSON are the cost, kernels a minor share",
			Loop:       "closed, 1 caller, 1 connection: a job's latency is its own service time, nothing queues",
			Sizes:      "cg laplace2d:32:32 (csr, csr pipelined, csc-merge), cg banded:512:4, cg banded:768:2, stencil 5pt 48x48, hpcg 8x8x8 per rank: all under 0.1 x L2",
			RatePerSec: 245, MinJobs: 120, LimitMS: 25, RefJobs: 7,
		}},
		&serveWorkload{d: workloadDef{
			Name:       "serve_cold",
			Why:        "the same registry and serve path used the other way: every job a new Matrix Market upload through router and shard, so every lookup misses and every Prepare is cold",
			Loop:       "closed, 2 callers, router + 2 shards with 8 MiB plan caches",
			Sizes:      "randspd 320 rows, about 100 KB of Matrix Market text and 0.06 MB CSR per job = 0.015 x L2",
			RatePerSec: 50, MinJobs: 120, LimitMS: 100, RefJobs: 2,
		}},
	}
}

// result is what one run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one run's output.
type report struct {
	e2e, layer values
	attempted  int
	failed     int
	notes      []string
}

func (r *report) count(rs []*roundResult) {
	for _, rr := range rs {
		for _, jobs := range [][]jobResult{rr.cold, rr.jobs} {
			for f, j := range jobs {
				r.attempted++
				if !j.ok {
					if r.failed++; r.failed <= 5 {
						fmt.Fprintf(os.Stderr, "benchmark: job %d failed: %s\n", f, j.why)
					}
				}
			}
		}
	}
}

// runOnce runs one workload in the given mode: "e2e" (--trace 0),
// "layers" (--trace 1) or "both".
func runOnce(w workload, seed int64, seconds float64, mode, traceOut string) (*report, error) {
	d := w.def()
	rep := &report{}
	gc0 := gcCycles()

	// Host calibration, printed with every run so that a run taken in a
	// slow host phase can be told from its own output. The arrays are
	// dropped before the rounds.
	triadGBs := newTriad().median3()
	if err := w.prepare(seed, seconds); err != nil {
		return nil, err
	}

	var base []*roundResult
	var err error
	if mode != "layers" {
		if base, err = runRounds(w, rounds, nil); err != nil {
			return nil, err
		}
		mismatches := crossCheck(base)
		ref, err := w.refModelNP1()
		if err != nil {
			return nil, err
		}
		rep.e2e = endToEndValues(d, base, ref)
		rep.count(base)
		rep.notes = append(rep.notes, fmt.Sprintf("untraced: rounds=%d jobs/round=%d cross-round mismatches=%d", len(base), len(base[0].jobs), mismatches))
	}
	if mode != "e2e" {
		if base == nil {
			if base, err = runRounds(w, 2, nil); err != nil {
				return nil, err
			}
		}
		tr := newTracer()
		traced, err := runRounds(w, 1, tr)
		if err != nil {
			return nil, err
		}
		all := append(append([]*roundResult(nil), base...), traced...)
		crossCheck(all)
		if rep.e2e == nil {
			rep.count(base)
		}
		rep.count(traced)

		rep.layer = values{}
		for _, m := range perLayer {
			rep.layer[m.Name] = 0
		}
		if err := fixedLayers(tr, rep.layer); err != nil {
			return nil, err
		}
		if err := w.layers(tr, all, rep.layer); err != nil {
			return nil, err
		}
		untraced := bestRound(medians(base), "lower")
		rep.layer["bench.trace_overhead_share"] = (medians(traced)[0] - untraced) / untraced
		rep.layer["host.round_spread"] = roundSpread(base)
		rep.layer["host.gc_cycles"] = float64(gcCycles() - gc0)
		// The layer pass measured the triad again, alternately with the
		// streaming kernels.
		triadGBs = rep.layer["host.triad_gbs"]
		if err := tr.writeChrome(traceOut); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
		var parts []string
		for layer, dur := range layerSelf(tr.spans) {
			parts = append(parts, fmt.Sprintf("%s=%.0fms", layer, ms(dur)))
		}
		sort.Strings(parts)
		rep.notes = append(rep.notes,
			fmt.Sprintf("traced: %d spans -> %s", len(tr.spans), traceOut),
			"traced: self time by layer: "+strings.Join(parts, " "))
	}

	var perRound []string
	for _, r := range base {
		lat := r.latencies()
		perRound = append(perRound, fmt.Sprintf("%.4g/%.4g/%.4g", percentile(lat, 50), percentile(lat, 90), 1e3*r.setupS))
	}
	rep.notes = append(rep.notes,
		"untraced rounds, job_ms p50/p90/setup_ms: "+strings.Join(perRound, " "),
		fmt.Sprintf("host: triad=%.2f GB/s (3 x 64 MiB arrays, L2 %d MiB) round_spread=%.3f",
			triadGBs, l2Bytes>>20, roundSpread(base)))
	return rep, nil
}

// print writes the report and, last, the JSON line.
func (r *report) print(d workloadDef, seed int64, seconds float64, mode string) {
	fmt.Printf("# workload=%s seed=%d seconds=%g mode=%s GOMAXPROCS=%d np=%d\n", d.Name, seed, seconds, mode, runtime.GOMAXPROCS(0), np)
	fmt.Printf("# %s\n# loop: %s\n# sizes: %s\n# latency limit: %g ms\n", d.Why, d.Loop, d.Sizes, d.LimitMS)
	for _, n := range r.notes {
		fmt.Println("#", n)
	}
	out := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	emit := func(defs []metricDef, vals values) {
		for _, m := range defs {
			fmt.Printf("%-34s %16.6g %s\n", m.Name, vals[m.Name], m.Unit)
			out.Metrics[m.Name] = metric{vals[m.Name], m.Unit}
		}
	}
	if r.e2e != nil {
		emit(endToEnd, r.e2e)
	}
	if r.layer != nil {
		emit(perLayer, r.layer)
	}
	raw, _ := json.Marshal(out) // plain numbers and strings: cannot fail
	fmt.Println(string(raw))
}

func main() {
	// One P: rank goroutines handing off across vCPUs made every wall
	// number bimodal on the reference host (README, "Why GOMAXPROCS(1)").
	runtime.GOMAXPROCS(1)

	name := flag.String("workload", "", "workload to run (see --list)")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Float64("seconds", defaultSeconds, "length of the measured rounds together")
	trace := flag.Int("trace", -1, "0: end-to-end metrics only; 1: traced pass and per-layer metrics only; unset: both")
	traceOut := flag.String("trace-out", "", "Chrome-trace file of the traced pass (default .bench_build/traces/<workload>.trace.json)")
	selfcheck := flag.Int("selfcheck", 0, "run N full sets back to back and compare them")
	list := flag.Bool("list", false, "list the workloads")
	flag.Parse()

	all := workloads()
	if *list {
		for _, w := range all {
			d := w.def()
			fmt.Printf("%-12s %s\n", d.Name, d.Why)
		}
		return
	}
	if *selfcheck > 0 {
		os.Exit(selfCheck(*selfcheck, *seed, *seconds))
	}
	var w workload
	for _, c := range all {
		if c.def().Name == *name {
			w = c
		}
	}
	if w == nil || *seconds <= 0 || *trace < -1 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "usage: benchmark --workload <name> [--seed n] [--seconds s] [--trace 0|1] [--trace-out file] | --selfcheck N | --list")
		os.Exit(2)
	}
	mode := map[int]string{-1: "both", 0: "e2e", 1: "layers"}[*trace]
	if *traceOut == "" {
		*traceOut = filepath.Join(".bench_build", "traces", *name+".trace.json")
	}
	rep, err := runOnce(w, *seed, *seconds, mode, *traceOut)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	rep.print(w.def(), *seed, *seconds, mode)
	if rep.failed > 0 {
		os.Exit(1)
	}
}
