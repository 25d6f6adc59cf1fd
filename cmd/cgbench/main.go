// Command cgbench regenerates the paper's evaluation: one experiment
// table per figure/claim (see DESIGN.md §5 and EXPERIMENTS.md for the
// index). Every number it prints is modeled, so the output is a pure
// function of the code and the flags; with no flags it is byte-for-byte
// internal/bench/testdata/experiments.golden (`make golden`).
//
// With -trace <dir>, each experiment runs with event-level tracing
// attached: after its tables it prints one summary line per machine run
// (makespan against the happens-before critical path, traffic), then
// the drill-down of its last run — the per-pair communication matrix
// (messages and modeled bytes), the critical path's
// compute/overhead/network breakdown and an ASCII per-rank timeline —
// and it writes every run's Chrome/Perfetto trace to
// <dir>/<exp>-run<i>-np<np>.trace.json (open in ui.perfetto.dev or
// chrome://tracing; timestamps are the modeled clock in microseconds).
// Tracing changes no table.
//
// Examples (the last four are `make smoke` lines):
//
//	cgbench                                    # every experiment at full size
//	cgbench -exp E2,E3                         # just the two mat-vec scenarios
//	cgbench -quick -exp E1 -topology ring -seed 7
//	cgbench -quick -exp E2 -fault "straggle:rank=1,x=4"
//	cgbench -quick -exp E7,E17 -trace .smoke/traces
//	cgbench -quick -exp E2 -topology ring -seed 7 -fault "straggle:rank=1,x=4" -trace .smoke/traces
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"hpfcg/internal/bench"
	"hpfcg/internal/fault"
	"hpfcg/internal/topology"
	"hpfcg/internal/trace"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "comma-separated experiment IDs (see EXPERIMENTS.md) or 'all'")
		quick    = flag.Bool("quick", false, "small problem sizes")
		topo     = flag.String("topology", "hypercube", "hypercube | ring | mesh2d | full")
		seed     = flag.Int64("seed", 1996, "matrix generator seed")
		faultStr = flag.String("fault", "", `fault spec injected into every machine, e.g. "crash:rank=2@t=0.5ms,straggle:rank=1,x=4"`)
		traceDir = flag.String("trace", "", "trace every machine run: write one trace.json per run into this directory and print the drill-down")
	)
	flag.Parse()

	cfg := bench.DefaultConfig()
	cfg.Quick = *quick
	cfg.Seed = *seed
	t, err := topology.ByName(*topo)
	if err != nil {
		fatal(err)
	}
	cfg.Topo = t
	if *faultStr != "" {
		plan, err := fault.Parse(*faultStr)
		if err != nil {
			fatal(err)
		}
		inj, err := fault.NewInjector(plan)
		if err != nil {
			fatal(err)
		}
		cfg.Injector = inj
	}
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fatal(err)
		}
	}

	ids := bench.IDs()
	if *exp != "all" {
		ids = strings.Split(*exp, ",")
	}
	for _, id := range ids {
		id = strings.TrimSpace(id)
		if *traceDir != "" {
			cfg.Tracer = &trace.Tracer{}
		}
		if err := bench.RunAndRender(os.Stdout, id, cfg); err != nil {
			fatal(err)
		}
		if *traceDir != "" {
			if err := drillDown(os.Stdout, id, cfg.Tracer.Runs(), *traceDir); err != nil {
				fatal(err)
			}
		}
	}
}

// drillDown prints one summary line per traced run of experiment id
// and writes its trace.json into dir, then prints the detail view of
// the last run: its communication matrices, its critical path and its
// 80-column timeline.
func drillDown(w io.Writer, id string, runs []*trace.Recorder, dir string) error {
	fmt.Fprintf(w, "traced %d machine runs of %s:\n", len(runs), id)
	var ps trace.PathStats
	var cm trace.CommMatrix
	for i, rec := range runs {
		ps, cm = trace.CriticalPath(rec), trace.Matrix(rec)
		var sent, msgs int64
		for s, b := range cm.RowTotals() {
			sent += b
			for _, m := range cm.Msgs[s] {
				msgs += m
			}
		}
		slack := 0.0
		if rec.ModelTime() > 0 {
			slack = 1 - ps.Length/rec.ModelTime()
		}
		fmt.Fprintf(w, "  [%d] %-12s np=%-3d events=%-6d msgs=%-6d bytes=%-9d makespan=%.6gs critpath=%.6gs (slack %.1f%%)\n",
			i, rec.Label(), rec.NP(), rec.NumEvents(), msgs, sent, rec.ModelTime(), ps.Length, 100*slack)
		var buf bytes.Buffer
		if err := trace.WriteChromeTrace(&buf, rec); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, id+"-"+rec.Label()+".trace.json"), buf.Bytes(), 0o644); err != nil {
			return err
		}
	}
	if len(runs) == 0 {
		return nil
	}
	fmt.Fprintf(w, "wrote %d trace.json files of %s to %s\n", len(runs), id, dir)

	rec := runs[len(runs)-1]
	fmt.Fprintf(w, "\ndetail: run %d (%s), np=%d\n", len(runs)-1, rec.Label(), rec.NP())
	for _, t := range cm.Tables(id + " " + rec.Label() + " communication matrix") {
		if err := t.Render(w); err != nil {
			return err
		}
	}
	fmt.Fprintln(w, ps.String())
	return trace.WriteTimeline(w, rec, 80)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cgbench:", err)
	os.Exit(1)
}
