package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"hpfcg/internal/mfree"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ pct, want float64 }{{50, 3}, {90, 5}, {20, 1}, {100, 5}} {
		if got := percentile(xs, c.pct); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.pct, got, c.want)
		}
	}
	if percentile(nil, 50) != 0 {
		t.Error("empty sample must give 0")
	}
}

func TestTailPercentileTenBeyond(t *testing.T) {
	// 120 samples leave 12 beyond p90: reported as asked.
	v, used := tailPercentile(seq(120), 90)
	if used != 90 || v != 108 {
		t.Errorf("n=120 p90: got %v at p%v", v, used)
	}
	// 560 samples leave 5.6 beyond p99: lowered until ten lie beyond.
	v, used = tailPercentile(seq(560), 99)
	if used >= 99 || v != 550 {
		t.Errorf("n=560 p99: got %v at p%v, want the 550th at about p98.2", v, used)
	}
	// 1000 samples support p99 exactly.
	if _, used = tailPercentile(seq(1000), 99); used != 99 {
		t.Errorf("n=1000 p99: lowered to p%v", used)
	}
	// Too few samples for any tail: never below the median.
	if v, used = tailPercentile(seq(8), 90); used != 50 || v != 4 {
		t.Errorf("n=8 p90: got %v at p%v, want the median", v, used)
	}
}

func TestQuartileOfRounds(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
	xs := seq(10)
	for _, c := range []struct{ q, want float64 }{{0.25, 2.75}, {0.5, 5.5}, {0.75, 8.25}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// Nine rounds, seven of them in a slow host phase: the best round
	// still shows the program.
	rounds9 := []float64{19.1, 19.5, 10.0, 18.3, 18.9, 10.2, 19.4, 18.8, 19.0}
	if got := bestRound(rounds9, "lower"); got != 10.0 {
		t.Errorf("best round, lower is better = %v, want 10.0", got)
	}
	if got := bestRound(rounds9, "higher"); got != 19.5 {
		t.Errorf("best round, higher is better = %v, want 19.5", got)
	}
	if bestRound(nil, "lower") != 0 {
		t.Error("no rounds must give 0")
	}
	// statistics.quantiles([9, 10, 11, 12, 30], n=4) == [9.5, 11, 21]: the
	// outlier set moves the spread, but by the quartile, not by the range.
	if got, want := quartileSpread([]float64{30, 9, 11, 10, 12}), (21-9.5)/11; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
	if got := quartileSpread([]float64{9, 10, 11}); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("quartileSpread of three = %v, want the range 0.2", got)
	}
}

// The seed orders a fixed job family: equal seeds give equal inputs,
// different seeds (and different rounds) a different order of the same
// jobs, so the modeled sums cannot depend on the seed.
func TestSeedOrdersAFixedFamily(t *testing.T) {
	a, b, c, d := roundOrder(5, 0, 40), roundOrder(5, 0, 40), roundOrder(6, 0, 40), roundOrder(5, 1, 40)
	sameSeed, sameRound, members := true, true, map[int]bool{}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed and round, different job at %d", i)
		}
		sameSeed, sameRound = sameSeed && a[i] == c[i], sameRound && a[i] == d[i]
		members[c[i]] = true
	}
	if sameSeed || sameRound {
		t.Errorf("order does not depend on the seed (%v) or on the round (%v)", !sameSeed, !sameRound)
	}
	if len(members) != 40 {
		t.Errorf("an order names %d distinct members of 40", len(members))
	}

	prep := func(seed int64) *solveWorkload {
		w := &solveWorkload{pb: problem{kind: "csr", matrix: "laplace2d:8:8"}, d: workloadDef{RatePerSec: 1, MinJobs: 5, RefJobs: 2}}
		if err := w.prepare(seed, 0.01); err != nil {
			t.Fatal(err)
		}
		return w
	}
	w5, w6 := prep(5), prep(6)
	for f := range w5.rhs {
		if w5.rhs[f][3] != w6.rhs[f][3] {
			t.Errorf("family member %d depends on the seed", f)
		}
	}

	hot := &serveWorkload{hot: true, d: workloadDef{RatePerSec: 100, MinJobs: 21, RefJobs: 7}}
	if err := hot.prepare(5, 0.01); err != nil {
		t.Fatal(err)
	}
	perKey, refs := map[string]int{}, 0
	for _, j := range hot.jobs {
		perKey[fmt.Sprint(j.spec.Matrix, j.spec.Layout, j.spec.Method, j.spec.Pipelined)]++
		if j.ref {
			refs++
		}
	}
	if len(perKey) != 7 || refs != 7 || len(hot.warm) != 7 {
		t.Errorf("hot mix: %v, %d reference jobs, %d warm-up jobs", perKey, refs, len(hot.warm))
	}
	for k, n := range perKey {
		if n != 3 {
			t.Errorf("key %q has %d of 21 jobs, want 3", k, n)
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	at := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	spans := []span{
		{layer: "bench", start: at(0), end: at(100), parent: -1},
		{layer: "serve", start: at(10), end: at(30), parent: 0},
		{layer: "serve", start: at(20), end: at(50), parent: 0}, // overlaps the one before: counted once
		{layer: "comm", start: at(70), end: at(80), parent: 0},
		{layer: "comm", start: at(90), end: at(120), parent: 0}, // runs past its parent: clipped
		{layer: "spmv", start: at(72), end: at(78), parent: 3},
	}
	self := selfTimes(spans)
	want := []time.Duration{at(40), at(20), at(30), at(4), at(30), at(6)}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("span %d self = %v, want %v", i, self[i], want[i])
		}
	}
	by := layerSelf(spans)
	if by["serve"] != at(50) || by["comm"] != at(34) || by["bench"] != at(40) {
		t.Errorf("layer self times: %v", by)
	}
}

func TestTracerNilAndChromeFile(t *testing.T) {
	var off *tracer
	off.end(off.begin("x", "y", -1, 0)) // the untraced rounds run exactly this
	off.add("x", "y", time.Now(), time.Now(), -1, 0)

	tr := newTracer()
	root := tr.begin("bench", "round", -1, 0)
	tr.end(tr.begin("hpfexec", "SolveBatch", root, 1))
	tr.end(root)
	path := filepath.Join(t.TempDir(), "sub", "t.trace.json")
	if err := tr.writeChrome(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name, Ph string
			Args     map[string]any
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 2 || doc.TraceEvents[1].Name != "hpfexec.SolveBatch" || doc.TraceEvents[1].Ph != "X" {
		t.Errorf("trace events: %+v", doc.TraceEvents)
	}
	if doc.TraceEvents[1].Args["parent"] != float64(root) {
		t.Errorf("child does not name its parent: %v", doc.TraceEvents[1].Args)
	}
}

func TestCrossCheckAndAggregation(t *testing.T) {
	mk := func(ms float64) *roundResult {
		r := &roundResult{setupS: 0.1, cpuS: 0.05, mallocs: 1000, heapMB: 3}
		for i := 0; i < 10; i++ {
			r.order = append(r.order, 9-i)
			r.jobs = append(r.jobs, jobResult{ms: ms + float64(i), ok: true, ref: i < 2, iterations: 10 + i, modelS: 0.5, solveS: 0.5, xhash: uint64(i)})
		}
		return r
	}
	rs := []*roundResult{mk(10), mk(10), mk(30)}
	if n := crossCheck(rs); n != 0 {
		t.Fatalf("identical rounds: %d mismatches", n)
	}
	rs[2].jobs[4].xhash++ // one job's answer differs in one bit
	if n := crossCheck(rs); n != 1 || rs[2].jobs[4].ok {
		t.Fatalf("a differing answer must fail that job: %d mismatches", n)
	}
	d := workloadDef{LimitMS: 25, RefJobs: 2}
	v := endToEndValues(d, rs, 2.0)
	if got, want := v["ok_share"], 29.0/30; got != want {
		t.Errorf("ok_share = %v, want %v", got, want)
	}
	if v["iterations"] != 145 || v["model_time_s"] != 5 {
		t.Errorf("modeled sums: %v iterations, %v s", v["iterations"], v["model_time_s"])
	}
	if got, want := v["model_parallel_efficiency"], 2.0/(4*1.0); got != want {
		t.Errorf("efficiency = %v, want %v", got, want)
	}
	// Rounds 0 and 1 are all within 25 ms; round 2 (30..39 ms) is not.
	if got, want := v["slo_met_share"], 20.0/30; got != want {
		t.Errorf("slo_met_share = %v, want %v", got, want)
	}
	if v["job_ms_p50"] != 14 || v["allocs_per_job"] != 100 {
		t.Errorf("job_ms_p50 = %v, allocs_per_job = %v", v["job_ms_p50"], v["allocs_per_job"])
	}
	if got := roundSpread(rs); got != 34.0/14 {
		t.Errorf("round spread = %v", got)
	}
}

func TestResidualAndHash(t *testing.T) {
	double := func(x, y []float64) {
		for i := range x {
			y[i] = 2 * x[i]
		}
	}
	b, x := []float64{2, 4, 6}, []float64{1, 2, 3}
	if r := relResidual(double, b, x); r != 0 {
		t.Errorf("exact answer has residual %v", r)
	}
	if r := relResidual(double, b, []float64{1, 2, 3.3}); r < 0.05 {
		t.Errorf("wrong answer has residual %v", r)
	}
	if hashX(x) == hashX([]float64{1, 2, math.Nextafter(3, 4)}) {
		t.Error("hash misses a one-bit change")
	}
}

// manifest mirrors BENCHMARK.json's exact key set.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func TestManifestMatchesTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatalf("BENCHMARK.json does not parse: %v", err)
	}
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d top-level keys, the contract fixes 6", len(keys))
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if m.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d != the benchmark's default %d", m.RunSeconds, defaultSeconds)
	}
	if len(m.Paths) != 1 || m.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", m.Paths)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: manifest lists %d metrics, the benchmark prints %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: manifest %+v, benchmark %+v", kind, i, got[i], want[i])
			}
			if !name.MatchString(want[i].Name) || !unit.MatchString(want[i].Unit) || seen[want[i].Name] {
				t.Errorf("%s[%d]: name %q or unit %q is outside the contract, or the name repeats", kind, i, want[i].Name, want[i].Unit)
			}
			seen[want[i].Name] = true
			if want[i].Better != "lower" && want[i].Better != "higher" {
				t.Errorf("%s[%d]: better = %q", kind, i, want[i].Better)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd)
	check("per_layer", m.PerLayer, perLayer)

	var setup *metricDef
	for i := range endToEnd {
		if b := endToEnd[i].Bound; b <= 0 || b > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", endToEnd[i].Name, b)
		}
		if endToEnd[i].Name == "setup_s" {
			setup = &endToEnd[i]
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" {
		t.Fatal("the contract requires setup_s in s, lower is better")
	}
	for _, e := range endToEnd {
		if e.Bound > setup.Bound {
			t.Errorf("%s has a larger bound than setup_s", e.Name)
		}
	}

	ws := workloads()
	if len(m.Workloads) != len(ws) {
		t.Fatalf("manifest lists %d workloads, the benchmark has %d", len(m.Workloads), len(ws))
	}
	for i, w := range ws {
		d := w.def()
		if m.Workloads[i].Name != d.Name || m.Workloads[i].Why != d.Why {
			t.Errorf("workload %d: manifest %+v, benchmark %q / %q", i, m.Workloads[i], d.Name, d.Why)
		}
		if !name.MatchString(d.Name) || len(d.Why) > 200 || seen[d.Name] {
			t.Errorf("workload %q: name or why (%d chars) outside the contract", d.Name, len(d.Why))
		}
		seen[d.Name] = true
	}
}

func TestJobCountsMeetTheSampleRule(t *testing.T) {
	for _, w := range workloads() {
		d := w.def()
		n := d.jobsPerRound(defaultSeconds)
		_, serving := w.(*serveWorkload)
		if serving && float64(n)*0.1 < minBeyond {
			t.Errorf("%s: %d jobs per round leave fewer than %d beyond p90", d.Name, n, minBeyond)
		}
		if !serving && n < 8 {
			t.Errorf("%s: %d jobs per round", d.Name, n)
		}
		if d.jobsPerRound(0.1) != d.MinJobs {
			t.Errorf("%s: a short run must fall back to MinJobs", d.Name)
		}
	}
}

func TestLastJSON(t *testing.T) {
	r, err := lastJSON([]byte("# header\nmetric 1 ms\n{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\"a\":{\"value\":1.5,\"unit\":\"ms\"}}}\n\n"))
	if err != nil || !r.Correct || r.Attempted != 3 || r.Metrics["a"].Value != 1.5 {
		t.Errorf("lastJSON: %+v, %v", r, err)
	}
}

// TestTinyRounds drives every workload kind end to end on a problem
// small enough for the unit-test budget: the solve loop, the hot loop
// over real HTTP, and the router with two shards.
func TestTinyRounds(t *testing.T) {
	tiny := []workload{
		&solveWorkload{pb: problem{kind: "csr", matrix: "laplace2d:12:12"}, d: workloadDef{Name: "csr", RatePerSec: 1, MinJobs: 3, LimitMS: 1000, RefJobs: 2}},
		&solveWorkload{pb: problem{kind: "mfree", stencil: mfree.Spec{Stencil: "27pt", Nx: 8, Ny: 8, Nz: 8}}, d: workloadDef{Name: "mfree", RatePerSec: 1, MinJobs: 2, LimitMS: 5000, RefJobs: 2}},
		&solveWorkload{pb: problem{kind: "hpcg", brick: brick(4)}, d: workloadDef{Name: "hpcg", RatePerSec: 1, MinJobs: 2, LimitMS: 5000, RefJobs: 2}},
		&serveWorkload{hot: true, d: workloadDef{Name: "hot", RatePerSec: 400, MinJobs: 14, LimitMS: 1000, RefJobs: 7}},
		&serveWorkload{d: workloadDef{Name: "cold", RatePerSec: 1, MinJobs: 4, LimitMS: 1000, RefJobs: 2}},
	}
	for _, w := range tiny {
		if err := w.prepare(3, 0.01); err != nil {
			t.Fatalf("%s: %v", w.def().Name, err)
		}
		rs, err := runRounds(w, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		if n := crossCheck(rs); n != 0 {
			t.Errorf("%s: %d jobs differ between two rounds of the same inputs", w.def().Name, n)
		}
		ref, err := w.refModelNP1()
		if err != nil {
			t.Fatal(err)
		}
		v := endToEndValues(w.def(), rs, ref)
		if v["ok_share"] != 1 {
			t.Errorf("%s: ok_share = %v", w.def().Name, v["ok_share"])
		}
		for _, m := range endToEnd {
			if x := v[m.Name]; !(x > 0) || math.IsInf(x, 0) {
				t.Errorf("%s: %s = %v, the contract wants it finite and never 0", w.def().Name, m.Name, x)
			}
		}
	}
}
