// Command cgbench regenerates the paper's evaluation: one experiment
// table per figure/claim (see DESIGN.md §5 and EXPERIMENTS.md for the
// index). Every number it prints is modeled, so the output is a pure
// function of the code and the flags; with no flags it is byte-for-byte
// internal/bench/testdata/experiments.golden (`make golden`).
//
// Examples (the last two are `make smoke` lines):
//
//	cgbench                                    # every experiment at full size
//	cgbench -exp E2,E3                         # just the two mat-vec scenarios
//	cgbench -quick -exp E1 -topology ring -seed 7
//	cgbench -quick -exp E2 -fault "straggle:rank=1,x=4"
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"hpfcg/internal/bench"
	"hpfcg/internal/fault"
	"hpfcg/internal/topology"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "comma-separated experiment IDs (see EXPERIMENTS.md) or 'all'")
		quick    = flag.Bool("quick", false, "small problem sizes")
		topo     = flag.String("topology", "hypercube", "hypercube | ring | mesh2d | full")
		seed     = flag.Int64("seed", 1996, "matrix generator seed")
		faultStr = flag.String("fault", "", `fault spec injected into every machine, e.g. "crash:rank=2@t=0.5ms,straggle:rank=1,x=4"`)
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

	ids := bench.IDs()
	if *exp != "all" {
		ids = strings.Split(*exp, ",")
	}
	for _, id := range ids {
		if err := bench.RunAndRender(os.Stdout, strings.TrimSpace(id), cfg); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cgbench:", err)
	os.Exit(1)
}
