// Command cgbench regenerates the paper's evaluation: one experiment
// table per figure/claim (see DESIGN.md §5 and EXPERIMENTS.md for the
// index). Every number it prints is modeled, so the output is a pure
// function of the code and the flags; with no flags it is byte-for-byte
// internal/bench/testdata/experiments.golden (`make golden`).
//
// Examples:
//
//	cgbench                        # run every experiment at full size
//	cgbench -exp E2,E3             # just the two mat-vec scenarios
//	cgbench -quick                 # small sizes (CI smoke run)
//	cgbench -exp E8 -csv           # CSV output for plotting
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"hpfcg/internal/bench"
	"hpfcg/internal/fault"
	"hpfcg/internal/hpfexec"
	"hpfcg/internal/topology"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "comma-separated experiment IDs (see EXPERIMENTS.md) or 'all'")
		quick    = flag.Bool("quick", false, "small problem sizes")
		topo     = flag.String("topology", "hypercube", "hypercube | ring | mesh2d | full")
		csv      = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		seed     = flag.Int64("seed", 1996, "matrix generator seed")
		sstep    = flag.Int("sstep", 0, fmt.Sprintf("restrict E23's s-step sweep to one blocking factor in 1..%d (0 = sweep 1,2,4,8)", hpfexec.MaxSStep))
		hpcg     = flag.String("hpcg", "", "restrict E24's per-rank brick sweep to one nx,ny,nz size (empty = full sweep)")
		mfreeArg = flag.String("mfree", "", `restrict E25's stencil sweep to one spec, "5pt:nx,ny" or "27pt:nx,ny,nz" (empty = full sweep)`)
		faultStr = flag.String("fault", "", `fault spec injected into every machine, e.g. "crash:rank=2@t=0.5ms,straggle:rank=1,x=4"`)
	)
	flag.Parse()
	if *sstep < 0 || *sstep > hpfexec.MaxSStep {
		fatal(fmt.Errorf("-sstep %d outside [0,%d]", *sstep, hpfexec.MaxSStep))
	}

	cfg := bench.DefaultConfig()
	cfg.Quick = *quick
	cfg.Seed = *seed
	cfg.SStep = *sstep
	cfg.HPCG = *hpcg
	cfg.MFree = *mfreeArg
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

	ids := bench.IDs()
	if *exp != "all" {
		ids = strings.Split(*exp, ",")
	}
	for _, id := range ids {
		id = strings.TrimSpace(id)
		if !*csv {
			if err := bench.RunAndRender(os.Stdout, id, cfg); err != nil {
				fatal(err)
			}
			continue
		}
		runner, err := bench.Get(id)
		if err != nil {
			fatal(err)
		}
		tables, err := runner(cfg)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", id, err))
		}
		for _, tab := range tables {
			if err := tab.RenderCSV(os.Stdout); err != nil {
				fatal(err)
			}
			fmt.Println()
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cgbench:", err)
	os.Exit(1)
}
