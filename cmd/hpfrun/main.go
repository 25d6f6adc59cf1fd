// Command hpfrun is the directive-driven solver: it parses an HPF
// directive file (with the paper's proposed !EXT$ extensions), binds
// it to a matrix, and executes the distributed CG solve the directives
// imply — the closest thing this repository has to "compiling and
// running" the paper's Figure 2.
//
// What is solved is one -problem string (hpfexec.ParseProblem's
// grammar) or a Matrix Market -file; how it runs is one directive file
// or -demo's canonical layout for a matrix, never both (csr when
// neither is given). Either program is bound and printed under plan:,
// and Prepare refuses, with its line, an extension directive the
// execution would not follow (an ON PROCESSOR map that is not the
// vectors' owner of every column, ATOM: CYCLIC, ...).
// A stencil problem's dimensions are the global grid, an hpcg
// problem's each rank's brick; neither takes a layout. The recurrence
// the solve runs is one -variant string (hpfexec.ParseVariant's
// grammar), plain CG by default; a matrix problem also takes the §2.1
// methods (pcg, bicg, cgs, bicgstab), and a matrix or stencil problem
// auto, the cost model's cheapest variant. The sstep: and overlap:
// lines report the variant that ran, which auto resolves, and an auto
// run's frontier: line every row it chose among, with its price.
//
// Examples:
//
//	hpfrun -np 4 -problem banded:512:4 figure2.hpf
//	hpfrun -np 8 -problem powerlawc:2000:1 -demo balanced
//	hpfrun -np 4 -problem banded:512:4 -demo csc-merge -commmatrix
//	hpfrun -np 4 -problem banded:512:4 -demo csr -timeout 30s
//	hpfrun -np 4 -file matrix.mtx -demo csr
//	hpfrun -np 2 -file matrix.mtx -maxiter 50 -commmatrix -history
//	hpfrun -np 4 -problem hpcg:8x8x8:L3
//	hpfrun -np 4 -problem stencil:5pt:64x48
//	hpfrun -np 8 -problem laplace2d:128:128 -variant auto
//	hpfrun -np 4 -problem stencil:5pt:48x48 -variant auto
//	hpfrun -np 4 -problem randspd:500:6:1 -demo csc-merge -variant bicgstab
//	hpfrun -np 4 -demo csr -fault "crash:rank=2@t=0.5ms" -variant resilient:ckpt=5
package main

import (
	"cmp"
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"hpfcg"
	"hpfcg/internal/comm"
	"hpfcg/internal/core"
	"hpfcg/internal/fault"
	"hpfcg/internal/hpf"
	"hpfcg/internal/hpfexec"
	"hpfcg/internal/report"
	"hpfcg/internal/sparse"
)

func main() {
	var (
		np         = flag.Int("np", 4, "number of virtual processors")
		problemArg = flag.String("problem", "banded:512:4", `what to solve: a generator spec ("laplace2d:64:64"), "stencil:5pt:<nx>x<ny>" or "stencil:27pt:<nx>x<ny>x<nz>" (global grid, matrix-free), or "hpcg:<nx>x<ny>x<nz>[:L<levels>][:S<smooths>]" (each rank's brick, multigrid)`)
		matrixFile = flag.String("file", "", "Matrix Market file to solve instead of -problem")
		topoName   = flag.String("topology", "hypercube", "hypercube | ring | mesh2d | full")
		tol        = flag.Float64("tol", 1e-10, "relative residual tolerance")
		maxIter    = flag.Int("maxiter", 0, "iteration cap (0 = 2n)")
		history    = flag.Bool("history", false, "print the residual history as CSV (iteration,relres)")
		demo       = flag.String("demo", "", "a matrix problem's built-in directive program: csr | csc-serial | csc-merge | balanced (csr without it or a directive file)")
		commMatrix = flag.Bool("commmatrix", false, "print the communication matrix")
		timeout    = flag.Duration("timeout", 0, "deadline on the whole solve: abort it after this long (0 = wait forever)")
		faultStr   = flag.String("fault", "", `fault spec, e.g. "crash:rank=2@t=0.5ms,straggle:rank=1,x=4"`)
		variantArg = flag.String("variant", "plain", `the recurrence: "plain", "pcg", "bicg", "cgs" or "bicgstab" (the §2.1 methods, matrix problems), "sstep:<s>" (s-step CG, 2 <= s <= 16, CSR layouts), "auto" (the cost model's cheapest of plain, s-step and pipelined; matrix and stencil problems), "pipelined" (CSR layouts and stencil problems) or "resilient[:ckpt=<n>[,restarts=<n>]]" (survive injected crashes by checkpoint/restart, default ckpt=10,restarts=3)`)
	)
	flag.Parse()
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if set["problem"] && set["file"] {
		fatal(fmt.Errorf("-problem does not apply with -file"))
	}
	if flag.NArg() > 1 {
		fatal(fmt.Errorf("one directive file at most, got %d arguments", flag.NArg()))
	}
	if set["demo"] && flag.NArg() > 0 {
		fatal(fmt.Errorf("-demo does not apply with a directive file"))
	}
	// Which backend the variant combines with is hpfexec.CheckVariant's
	// table, consulted by WithVariant below.
	variant, err := hpfexec.ParseVariant(*variantArg)
	if err != nil {
		fatal(err)
	}

	m, err := hpfcg.NewMachine(hpfcg.Config{NP: *np, Topology: *topoName})
	if err != nil {
		fatal(err)
	}
	if *faultStr != "" {
		fp, err := fault.Parse(*faultStr)
		if err != nil {
			fatal(err)
		}
		inj, err := fault.NewInjector(fp)
		if err != nil {
			fatal(err)
		}
		m.AttachInjector(inj)
	}

	// One problem: a stencil or hpcg problem opened through its
	// backend, a matrix bound to its directive program (the file, or
	// else -demo's layout) and prepared; the solve is one call either
	// way.
	prob, name := problem(*problemArg, *matrixFile)
	var pr *hpfexec.Prepared
	var plan *hpf.Plan
	if k := prob.Kind(); flag.NArg() == 0 && (k == hpfexec.BackendStencil || k == hpfexec.BackendHPCG) {
		pr, err = hpfexec.Open(m, prob, *demo)
	} else {
		pr, plan, err = prepareMatrix(m, prob, *demo, flag.Arg(0))
	}
	if err != nil {
		fatal(err)
	}
	if err := pr.WithVariant(variant); err != nil {
		fatal(err)
	}
	b := sparse.RandomVector(pr.N(), 42) // deterministic, nontrivial rhs

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	start := time.Now()
	out, err := pr.SolveBatchContext(ctx, [][]float64{b}, []core.Options{{Tol: *tol, MaxIter: *maxIter, History: *history}})
	if err != nil {
		fatal(err)
	}
	wall := time.Since(start).Seconds()
	res := out.Results[0]
	if res.Err != nil {
		fatal(res.Err)
	}

	if rec := out.Recovery; rec != nil {
		fmt.Printf("faults:   attempts=%d failures=%d lost_iters=%d mission_t=%.6gs\n",
			rec.Attempts, len(rec.Failures), rec.LostIterations, rec.TotalModelTime)
		for _, pf := range rec.Failures {
			fmt.Printf("          %v\n", pf)
		}
	}
	// The variant that ran: auto's s-step or plain choice prints as an
	// s-step line (s=1 for plain), its pipelined choice as the overlap
	// line.
	switch ran := res.Strategy.Variant; {
	case ran == hpfexec.Pipelined():
		hidden, exposed := out.Run.ReduceOverlap()
		fmt.Printf("overlap:  reductions=%d hidden=%.6gs exposed=%.6gs", res.Stats.Reductions, hidden, exposed)
		if prob.Kind() != hpfexec.BackendStencil {
			fmt.Printf(" guard_trips=%d", res.Stats.Replacements)
		}
		if variant != ran {
			fmt.Printf(" (requested %s)", variant)
		}
		fmt.Println()
	case ran.Kind() == "sstep" || variant == hpfexec.Auto():
		fmt.Printf("sstep:    s=%d (requested %s) guard_trips=%d\n",
			ran.Factor(), variant, res.Stats.Replacements)
	}
	// Why auto chose: every row the cost model priced, in modeled
	// seconds per iteration, the one that ran marked with *.
	if variant == hpfexec.Auto() {
		if rows := pr.Frontier(); len(rows) > 0 {
			fmt.Print("frontier:")
			for _, row := range rows {
				mark := ""
				if row.Variant == res.Strategy.Variant {
					mark = "*"
				}
				fmt.Printf(" %s=%.6g%s", row.Variant, row.Price(), mark)
			}
			fmt.Println(" s/it")
		}
	}
	fmt.Printf("problem:  %s n=%d np=%d\n", name, pr.N(), m.NP())
	if plan != nil {
		fmt.Printf("plan:\n%s", plan.Describe())
	}
	fmt.Printf("strategy: %s\n", res.Strategy)
	fmt.Printf("solver:   %s\n", res.Stats)
	setup := ""
	if prob.Kind() == hpfexec.BackendStencil {
		setup = fmt.Sprintf(" setup=%.6gs", out.SetupModelTime)
	}
	fmt.Printf("model:    time=%.6gs comm=%.6gs%s msgs=%d bytes=%d imbalance=%.3f\n",
		out.Run.ModelTime, out.Run.CommTime(), setup, out.Run.TotalMsgs, out.Run.TotalBytes,
		out.Run.FlopImbalance())
	if prob.Kind() == hpfexec.BackendHPCG {
		// The HPCG-style figure of merit: charged flops over the modeled
		// makespan and over wall clock.
		fmt.Printf("fom:      model=%.4g GF/s wall=%.4g GF/s (flops=%d)\n",
			report.GFlopRate(out.Run.TotalFlops, out.Run.ModelTime),
			report.GFlopRate(out.Run.TotalFlops, wall), out.Run.TotalFlops)
	}
	if *history {
		fmt.Println("iteration,relres")
		for i, r := range res.Stats.History {
			fmt.Printf("%d,%.6e\n", i+1, r)
		}
	}
	if *commMatrix {
		if err := report.BytesMatrixTable("communication matrix (bytes sent)", out.Run.BytesMatrix).Render(os.Stdout); err != nil {
			fatal(err)
		}
	}
	if !res.Stats.Converged {
		os.Exit(2)
	}
}

// problem is what -problem or, when set, -file describes, and the name
// the output gives it: the canonical problem string, or the file.
func problem(arg, file string) (hpfexec.Problem, string) {
	if file == "" {
		p, err := hpfexec.ParseProblem(arg)
		if err != nil {
			fatal(err)
		}
		return p, p.String()
	}
	doc, err := os.ReadFile(file)
	if err != nil {
		fatal(err)
	}
	return hpfexec.Upload(string(doc)), file
}

// prepareMatrix binds the directive program, the file or else the
// layout's canonical one, to the problem's matrix and prepares the
// execution it implies; Prepare refuses a directive that execution
// would not follow, with its line.
func prepareMatrix(m *comm.Machine, prob hpfexec.Problem, layout, file string) (*hpfexec.Prepared, *hpf.Plan, error) {
	A, err := prob.Matrix()
	if err != nil {
		return nil, nil, err
	}
	var plan *hpf.Plan
	if file == "" {
		plan, err = hpfexec.PlanForLayout(cmp.Or(layout, "csr"), m.NP(), A.NRows, A.NNZ())
	} else {
		var src []byte
		if src, err = os.ReadFile(file); err == nil {
			plan, err = hpfexec.BindProgram(string(src), m.NP(), A.NRows, A.NNZ())
		}
	}
	if err != nil {
		return nil, nil, err
	}
	pr, err := hpfexec.Prepare(m, plan, A)
	return pr, plan, err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hpfrun:", err)
	os.Exit(1)
}
