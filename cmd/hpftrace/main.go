// Command hpftrace runs a named experiment from internal/bench with
// event-level tracing attached and turns every Machine.Run the
// experiment performed into drill-down artifacts: a Chrome/Perfetto
// trace.json per run, the per-pair communication matrix (messages and
// modeled bytes), an ASCII per-rank timeline, and the happens-before
// critical path with its compute/overhead/network breakdown — the
// "where does the modeled makespan come from" view behind each paper
// figure.
//
// Examples (the last three are `make smoke` lines):
//
//	hpftrace -exp E2                      # trace Scenario 1, write traces/E2-*.trace.json
//	hpftrace -exp E2 -quick -o ''         # small sizes, no files
//	hpftrace -exp E17 -quick -o '' -notables -notimeline -nomatrix
//	hpftrace -exp E2 -quick -o '' -topology ring -seed 7 -run 0 -width 60 -fault "straggle:rank=1,x=4"
//
// Load the written trace.json files in ui.perfetto.dev or
// chrome://tracing; timestamps are the modeled clock in microseconds.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"hpfcg/internal/bench"
	"hpfcg/internal/fault"
	"hpfcg/internal/topology"
	"hpfcg/internal/trace"
)

func main() {
	var (
		exp        = flag.String("exp", "E2", "experiment ID to trace (see cgbench -exp)")
		quick      = flag.Bool("quick", false, "small problem sizes")
		topoName   = flag.String("topology", "hypercube", "hypercube | ring | mesh2d | full")
		seed       = flag.Int64("seed", 1996, "matrix generator seed")
		outDir     = flag.String("o", "traces", "output directory for trace.json files ('' = no files)")
		runSel     = flag.Int("run", -1, "run index for the detail view (-1 = last run)")
		width      = flag.Int("width", 80, "ASCII timeline width in characters")
		noTimeline = flag.Bool("notimeline", false, "skip the ASCII timeline")
		noMatrix   = flag.Bool("nomatrix", false, "skip the communication matrix tables")
		noTables   = flag.Bool("notables", false, "suppress the experiment's own tables")
		faultStr   = flag.String("fault", "", `fault spec injected into every machine, e.g. "straggle:rank=1,x=4"`)
	)
	flag.Parse()

	cfg := bench.DefaultConfig()
	cfg.Quick = *quick
	cfg.Seed = *seed
	topo, err := topology.ByName(*topoName)
	if err != nil {
		fatal(err)
	}
	cfg.Topo = topo
	tracer := &trace.Tracer{}
	cfg.Tracer = tracer
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

	runner, err := bench.Get(*exp)
	if err != nil {
		fatal(err)
	}
	tables, err := runner(cfg)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", *exp, err))
	}
	if !*noTables {
		for _, t := range tables {
			if err := t.Render(os.Stdout); err != nil {
				fatal(err)
			}
		}
	}

	runs := tracer.Runs()
	if len(runs) == 0 {
		fatal(fmt.Errorf("%s performed no machine runs (nothing to trace)", *exp))
	}

	// Per-run summary: makespan vs critical path, traffic, export path.
	fmt.Printf("traced %d machine runs of %s:\n", len(runs), *exp)
	for i, rec := range runs {
		ps := trace.CriticalPath(rec)
		cm := trace.Matrix(rec)
		var bytes, msgs int64
		for s := 0; s < cm.NP; s++ {
			for d := 0; d < cm.NP; d++ {
				bytes += cm.Bytes[s][d]
				msgs += cm.Msgs[s][d]
			}
		}
		slack := 0.0
		if rec.ModelTime() > 0 {
			slack = 1 - ps.Length/rec.ModelTime()
		}
		fmt.Printf("  [%d] %-12s np=%-3d events=%-6d msgs=%-6d bytes=%-9d makespan=%.6gs critpath=%.6gs (slack %.1f%%)\n",
			i, rec.Label(), rec.NP(), rec.NumEvents(), msgs, bytes, rec.ModelTime(), ps.Length, 100*slack)
		if *outDir != "" {
			name := fmt.Sprintf("%s-%s.trace.json", *exp, rec.Label())
			if err := writeTrace(filepath.Join(*outDir, name), rec); err != nil {
				fatal(err)
			}
		}
	}
	if *outDir != "" {
		fmt.Printf("wrote %d trace.json files to %s (open in ui.perfetto.dev)\n", len(runs), *outDir)
	}

	// Detail view of one run: matrix, critical path, timeline.
	sel := *runSel
	if sel < 0 {
		sel = len(runs) - 1
	}
	if sel >= len(runs) {
		fatal(fmt.Errorf("-run %d out of range (have %d runs)", sel, len(runs)))
	}
	rec := runs[sel]
	fmt.Printf("\ndetail: run %d (%s), np=%d\n", sel, rec.Label(), rec.NP())
	if !*noMatrix {
		title := fmt.Sprintf("%s %s communication matrix", *exp, rec.Label())
		for _, t := range trace.Matrix(rec).Tables(title) {
			if err := t.Render(os.Stdout); err != nil {
				fatal(err)
			}
		}
	}
	fmt.Println(trace.CriticalPath(rec).String())
	if !*noTimeline {
		if err := trace.WriteTimeline(os.Stdout, rec, *width); err != nil {
			fatal(err)
		}
	}
}

func writeTrace(path string, rec *trace.Recorder) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	var werr error
	if werr = trace.WriteChromeTrace(f, rec); werr != nil {
		werr = fmt.Errorf("writing %s: %w", path, werr)
	}
	if cerr := f.Close(); cerr != nil && werr == nil {
		werr = cerr
	}
	return werr
}

// fatal prints the error and exits nonzero. Output that was already
// rendered stays on stdout, so a partial trace session remains usable.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hpftrace:", err)
	os.Exit(1)
}
