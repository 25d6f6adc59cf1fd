// Package bench is the experiment harness: one runner per figure or
// analytic claim of the paper (the per-experiment index lives in
// DESIGN.md and EXPERIMENTS.md; the claim ledger in bench_test.go names
// the test that fails when each claim does). Each runner regenerates
// its tables from scratch on the simulated machine, so `cgbench -exp
// all` reproduces the whole evaluation.
//
// Every column is modeled — counted work or the simulated clock, never
// a stopwatch — so the tables are a pure function of (code, Config).
// The full-size output of all experiments is committed as
// testdata/experiments.golden and compared byte for byte by the tests;
// `make golden` regenerates it. Wall-clock numbers come only from
// benchmark/.
package bench

import (
	"fmt"
	"io"
	"sort"

	"hpfcg/internal/comm"
	"hpfcg/internal/report"
	"hpfcg/internal/topology"
	"hpfcg/internal/trace"
)

// Config controls experiment scale and the simulated machine.
type Config struct {
	// Quick shrinks problem sizes for tests and smoke runs.
	Quick bool
	// Topo is the interconnection network (default hypercube).
	Topo topology.Topology
	// Cost holds the machine constants (default DefaultCostParams).
	Cost topology.CostParams
	// Seed makes the synthetic matrices reproducible.
	Seed int64
	// Tracer, when non-nil, is attached to every machine the
	// experiment builds: each run deposits a trace.Recorder on it, so
	// any experiment gains event-level drill-down (`cgbench -trace`)
	// without the runner knowing about tracing, and its tables are the
	// same bytes as without one (TestTracerReachesEveryMachine).
	Tracer *trace.Tracer
	// Injector, when non-nil, is attached to every machine the
	// experiment builds (cmd/cgbench's -fault flag): the same
	// deterministic fault plan is replayed against whatever the
	// experiment runs. Experiments that manage their own fault
	// schedule (E20) override it per machine.
	Injector comm.Injector
}

// DefaultConfig returns the configuration the committed golden file
// (testdata/experiments.golden) was produced with.
func DefaultConfig() Config {
	return Config{
		Topo: topology.Hypercube{},
		Cost: topology.DefaultCostParams(),
		Seed: 1996, // the paper's year
	}
}

// machine is the one machine builder: every experiment's machines come
// from it, so Tracer and Injector reach all of them. An experiment that
// sweeps a cost constant or the topology copies the Config and changes
// the field.
func (c Config) machine(np int) *comm.Machine {
	m := comm.NewMachine(np, c.Topo, c.Cost)
	if c.Tracer != nil {
		m.AttachTracer(c.Tracer)
	}
	if c.Injector != nil {
		m.AttachInjector(c.Injector)
	}
	return m
}

// pick returns small when cfg.Quick and full otherwise.
func (c Config) pick(full, small int) int {
	if c.Quick {
		return small
	}
	return full
}

// Runner produces one experiment's tables.
type Runner func(cfg Config) ([]*report.Table, error)

// experiments is the registry; IDs match DESIGN.md / EXPERIMENTS.md.
var experiments = map[string]Runner{
	"E1":  E1,
	"E2":  E2,
	"E3":  E3,
	"E4":  E4,
	"E5":  E5,
	"E6":  E6,
	"E7":  E7,
	"E8":  E8,
	"E9":  E9,
	"E10": E10,
	"E11": E11,
	"E12": E12,
	"E13": E13,
	"E14": E14,
	"E15": E15,
	"E16": E16,
	"E17": E17,
	"E18": E18,
	"E19": E19,
	"E20": E20,
	"E23": E23,
	"E24": E24,
	"E25": E25,
	"E26": E26,
}

// IDs lists the experiment identifiers in run order.
func IDs() []string {
	ids := make([]string, 0, len(experiments))
	for id := range experiments {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		// Numeric ordering: E2 before E10.
		var a, b int
		fmt.Sscanf(ids[i], "E%d", &a)
		fmt.Sscanf(ids[j], "E%d", &b)
		return a < b
	})
	return ids
}

// Get returns the runner for an experiment ID.
func Get(id string) (Runner, error) {
	r, ok := experiments[id]
	if !ok {
		return nil, fmt.Errorf("bench: unknown experiment %q (have %v)", id, IDs())
	}
	return r, nil
}

// RunAndRender executes one experiment and renders its tables to w.
func RunAndRender(w io.Writer, id string, cfg Config) error {
	r, err := Get(id)
	if err != nil {
		return err
	}
	tables, err := r(cfg)
	if err != nil {
		return fmt.Errorf("bench: %s: %w", id, err)
	}
	for _, t := range tables {
		if err := t.Render(w); err != nil {
			return err
		}
	}
	return nil
}

// npSweep is the standard processor-count sweep.
func (c Config) npSweep() []int {
	if c.Quick {
		return []int{1, 2, 4}
	}
	return []int{1, 2, 4, 8, 16}
}
