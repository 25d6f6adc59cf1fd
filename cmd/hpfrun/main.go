// Command hpfrun is the directive-driven solver: it parses an HPF
// directive file (with the paper's proposed !EXT$ extensions), binds
// it to a matrix, and executes the distributed CG solve the directives
// imply — the closest thing this repository has to "compiling and
// running" the paper's Figure 2.
//
// Examples:
//
//	hpfrun -np 4 -matrix banded:512:4 figure2.hpf
//	hpfrun -np 8 -matrix powerlawc:2000:1 -demo balanced
//	hpfrun -np 4 -matrix banded:512:4 -demo csc-merge -commmatrix
//	hpfrun -np 4 -matrix banded:512:4 -demo csr -timeout 30s
//	hpfrun -np 4 -file matrix.mtx -demo csr
//	hpfrun -np 4 -hpcg 8,8,8 -levels 3
//	hpfrun -np 4 -stencil 5pt:64,48
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"hpfcg"
	"hpfcg/internal/comm"
	"hpfcg/internal/core"
	"hpfcg/internal/fault"
	"hpfcg/internal/hpf"
	"hpfcg/internal/hpfexec"
	"hpfcg/internal/mfree"
	"hpfcg/internal/mg"
	"hpfcg/internal/report"
	"hpfcg/internal/sparse"
)

func main() {
	var (
		np         = flag.Int("np", 4, "number of virtual processors")
		matrixSpec = flag.String("matrix", "banded:512:4", "generator spec (see cgsolve -help)")
		matrixFile = flag.String("file", "", "Matrix Market file to solve (overrides -matrix)")
		topoName   = flag.String("topology", "hypercube", "hypercube | ring | mesh2d | full")
		tol        = flag.Float64("tol", 1e-10, "relative residual tolerance")
		demo       = flag.String("demo", "", "built-in directive program: csr | csc-serial | csc-merge | balanced")
		commMatrix = flag.Bool("commmatrix", false, "print the communication matrix")
		timeout    = flag.Duration("timeout", 0, "deadline on the whole solve: abort it after this long (0 = wait forever)")
		faultStr   = flag.String("fault", "", `fault spec, e.g. "crash:rank=2@t=0.5ms,straggle:rank=1,x=4"`)
		resilient  = flag.Bool("resilient", false, "survive injected crashes via checkpoint/restart")
		sstep      = flag.Int("sstep", -1, "s-step CG blocking factor: -1 = plain CG, 0 = auto from the cost model, s >= 1 fixed (CSR layouts)")
		pipelined  = flag.Bool("pipelined", false, "pipelined CG: hide the per-iteration allreduce behind the mat-vec (CSR layouts and -stencil; excludes -sstep, -resilient, -hpcg)")
		ckpt       = flag.Int("ckpt", 10, "checkpoint every N iterations (with -resilient)")
		restarts   = flag.Int("restarts", 3, "max restart attempts after failures (with -resilient)")
		hpcg       = flag.String("hpcg", "", "solve the HPCG 27-point stencil instead of a directive program: per-rank brick as nx,ny,nz (combines with -np, -tol, -topology)")
		levels     = flag.Int("levels", 0, "V-cycle hierarchy depth with -hpcg (0 = default, clamped to the grid)")
		smooths    = flag.Int("smooths", 0, "Gauss-Seidel sweeps per V-cycle stage with -hpcg (0 = default)")
		stencil    = flag.String("stencil", "", `solve a stencil system matrix-free (no assembly, no inspector): "5pt:nx,ny" or "27pt:nx,ny,nz" global grid (combines with -np, -tol, -topology)`)
	)
	flag.Parse()
	if err := unusedFlag(*resilient); err != nil {
		fatal(err)
	}

	// The solver variant the flags ask for; which backend it combines
	// with is hpfexec.CheckVariant's table, consulted by WithVariant
	// below. -sstep has a flag-only value, -1, so its range is checked
	// here.
	if *sstep < -1 || *sstep > hpfexec.MaxSStep {
		fatal(fmt.Errorf("-sstep %d outside [-1,%d]", *sstep, hpfexec.MaxSStep))
	}
	variant := hpfexec.Variant{Pipelined: *pipelined, Resilient: *resilient, CkptInterval: *ckpt, MaxRestarts: *restarts}
	switch {
	case *sstep == 0:
		variant.SStep = hpfexec.AutoSStep
	case *sstep > 0:
		variant.SStep = *sstep
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

	// The three problem kinds differ in how the handle is prepared and
	// in the lines that describe the problem; the solve is one call.
	var pr *hpfexec.Prepared
	var describe func()
	switch {
	case *hpcg != "":
		pr, describe = prepareHPCG(m, *hpcg, *levels, *smooths)
	case *stencil != "":
		pr, describe = prepareStencil(m, *stencil)
	default:
		pr, describe = prepareDirectives(m, *demo, *matrixSpec, *matrixFile)
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
	out, err := pr.SolveBatchContext(ctx, [][]float64{b}, []core.Options{{Tol: *tol}})
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
	if *sstep >= 0 {
		fmt.Printf("sstep:    s=%d (requested %d) guard_trips=%d\n",
			res.Strategy.SStep, *sstep, res.Stats.Replacements)
	}
	if *pipelined {
		hidden, exposed := out.Run.ReduceOverlap()
		fmt.Printf("overlap:  reductions=%d hidden=%.6gs exposed=%.6gs", res.Stats.Reductions, hidden, exposed)
		if *stencil == "" {
			fmt.Printf(" guard_trips=%d", res.Stats.Replacements)
		}
		fmt.Println()
	}
	describe()
	fmt.Printf("strategy: %s\n", res.Strategy)
	fmt.Printf("solver:   %s\n", res.Stats)
	setup := ""
	if *stencil != "" {
		setup = fmt.Sprintf(" setup=%.6gs", out.SetupModelTime)
	}
	fmt.Printf("model:    time=%.6gs comm=%.6gs%s msgs=%d bytes=%d imbalance=%.3f\n",
		out.Run.ModelTime, out.Run.CommTime(), setup, out.Run.TotalMsgs, out.Run.TotalBytes,
		out.Run.FlopImbalance())
	if *hpcg != "" {
		// The HPCG-style figure of merit: charged flops over the modeled
		// makespan and over wall clock.
		fmt.Printf("fom:      model=%.4g GF/s wall=%.4g GF/s (flops=%d)\n",
			report.GFlopRate(out.Run.TotalFlops, out.Run.ModelTime),
			report.GFlopRate(out.Run.TotalFlops, wall), out.Run.TotalFlops)
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

// prepareDirectives is the default path: bind a directive program
// (-demo or the file argument) to the matrix and prepare the execution
// the directives imply.
func prepareDirectives(m *comm.Machine, demo, matrixSpec, matrixFile string) (*hpfexec.Prepared, func()) {
	var A *sparse.CSR
	var err error
	matrixName := matrixSpec
	if matrixFile != "" {
		f, ferr := os.Open(matrixFile)
		if ferr != nil {
			fatal(ferr)
		}
		A, err = sparse.ReadMatrixMarket(f)
		f.Close()
		matrixName = matrixFile
	} else {
		A, err = sparse.GeneratorByName(matrixSpec)
	}
	if err != nil {
		fatal(err)
	}
	if A.NRows != A.NCols {
		fatal(fmt.Errorf("matrix %s is not square (%dx%d)", matrixName, A.NRows, A.NCols))
	}
	n, nz := A.NRows, A.NNZ()

	var plan *hpf.Plan
	switch {
	case demo != "":
		plan, err = hpfexec.PlanForLayout(demo, m.NP(), n, nz)
	case flag.NArg() > 0:
		var src []byte
		if src, err = os.ReadFile(flag.Arg(0)); err == nil {
			plan, err = hpfexec.BindProgram(string(src), m.NP(), n, nz)
		}
	default:
		err = fmt.Errorf("need a directive file argument or -demo")
	}
	if err != nil {
		fatal(err)
	}
	pr, err := hpfexec.Prepare(m, plan, A)
	if err != nil {
		fatal(err)
	}
	return pr, func() {
		fmt.Printf("matrix:   n=%d nnz=%d (%s)\n", n, nz, matrixName)
		fmt.Printf("plan:\n%s", plan.Describe())
	}
}

// prepareHPCG is the -hpcg path: V-cycle multigrid-preconditioned CG
// on the 27-point stencil, each rank owning an nx×ny×nz brick.
func prepareHPCG(m *comm.Machine, brick string, levels, smooths int) (*hpfexec.Prepared, func()) {
	spec, err := mg.ParseBrick(brick)
	if err != nil {
		fatal(fmt.Errorf("-hpcg: %w", err))
	}
	spec.Levels, spec.Smooths = levels, smooths
	pr, err := hpfexec.PrepareMG(m, spec)
	if err != nil {
		fatal(err)
	}
	return pr, func() {
		fmt.Printf("stencil:  27-pt, brick %dx%dx%d per rank, n=%d np=%d levels=%d\n",
			spec.Nx, spec.Ny, spec.Nz, pr.N(), m.NP(), pr.Strategy().Levels)
	}
}

// prepareStencil is the -stencil path: CG on the matrix-free stencil
// operator — nothing assembled, halo schedules derived from the slab
// geometry, modeled setup exactly zero. With -pipelined the solve runs
// the overlap recurrence, the stencil application hiding the round.
func prepareStencil(m *comm.Machine, arg string) (*hpfexec.Prepared, func()) {
	spec, err := mfree.ParseSpec(arg)
	if err != nil {
		fatal(fmt.Errorf("-stencil: %w", err))
	}
	pr, err := hpfexec.PrepareStencil(m, spec)
	if err != nil {
		fatal(err)
	}
	_, dims, _ := strings.Cut(arg, ":")
	return pr, func() {
		fmt.Printf("stencil:  %s matrix-free, global %s, n=%d nnz=%d np=%d\n",
			spec.Stencil, dims, pr.N(), spec.WithDefaults().NNZ(), m.NP())
	}
}

// unusedFlag refuses a flag that was set but that the problem or the
// variant it picks does not read: -hpcg and -stencil each exclude the
// other and the matrix inputs (-demo, -matrix, -file, a directive
// file), -levels and -smooths need -hpcg, -ckpt and -restarts need
// -resilient.
func unusedFlag(resilient bool) error {
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	for _, gen := range []string{"hpcg", "stencil"} {
		if !set[gen] {
			continue
		}
		for _, other := range []string{"hpcg", "stencil", "demo", "matrix", "file"} {
			if other != gen && set[other] {
				return fmt.Errorf("-%s does not apply with -%s", other, gen)
			}
		}
		if flag.NArg() > 0 {
			return fmt.Errorf("a directive file does not apply with -%s", gen)
		}
	}
	for _, need := range []struct {
		flag, with string
		ok         bool
	}{
		{"levels", "hpcg", set["hpcg"]}, {"smooths", "hpcg", set["hpcg"]},
		{"ckpt", "resilient", resilient}, {"restarts", "resilient", resilient},
	} {
		if set[need.flag] && !need.ok {
			return fmt.Errorf("-%s needs -%s", need.flag, need.with)
		}
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hpfrun:", err)
	os.Exit(1)
}
