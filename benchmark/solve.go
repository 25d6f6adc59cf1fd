package main

import (
	"fmt"
	"runtime"
	"time"

	"hpfcg/internal/comm"
	"hpfcg/internal/core"
	"hpfcg/internal/hpfexec"
	"hpfcg/internal/mfree"
	"hpfcg/internal/mg"
	"hpfcg/internal/sparse"
	"hpfcg/internal/topology"
)

// tol is the relative residual every job is solved to.
const tol = 1e-8

// problem is one of the three operator backends at a fixed size.
type problem struct {
	kind    string     // "csr" | "mfree" | "hpcg"
	matrix  string     // csr: generator spec
	stencil mfree.Spec // mfree: global grid
	brick   mg.Spec    // hpcg: per-rank brick at np ranks
}

func newMachine(ranks int) *comm.Machine {
	return comm.NewMachine(ranks, topology.Hypercube{}, topology.DefaultCostParams())
}

// global is the 27-point grid an hpcg problem covers at np ranks; it is
// the same grid whatever the rank count, which is what lets np = 1
// solve the same problem.
func (pb problem) global() mfree.Spec {
	return mfree.Spec{Stencil: "27pt", Nx: pb.brick.Nx, Ny: pb.brick.Ny, Nz: pb.brick.Nz * np}.WithDefaults()
}

// prepared is a cold bring-up's product: the handle and the sequential
// reference of its operator.
type prepared struct {
	pr     *hpfexec.Prepared
	mulVec func(x, y []float64)
}

// bringUp is the cold path up to (not including) the first solve:
// generate, plan, machine, Prepare*. Each call into a layer is a span.
func (pb problem) bringUp(tr *tracer, parent, ranks int) (*prepared, error) {
	switch pb.kind {
	case "csr":
		s := tr.begin("sparse", "GeneratorByName", parent, 0)
		A, err := sparse.GeneratorByName(pb.matrix)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		s = tr.begin("hpfexec", "PlanForLayout", parent, 0)
		plan, err := hpfexec.PlanForLayout("csr", ranks, A.NRows, A.NNZ())
		tr.end(s)
		if err != nil {
			return nil, err
		}
		s = tr.begin("comm", "NewMachine", parent, 0)
		m := newMachine(ranks)
		tr.end(s)
		s = tr.begin("hpfexec", "Prepare", parent, 0)
		pr, err := hpfexec.Prepare(m, plan, A)
		tr.end(s)
		return &prepared{pr, A.MulVec}, err
	case "mfree":
		s := tr.begin("comm", "NewMachine", parent, 0)
		m := newMachine(ranks)
		tr.end(s)
		s = tr.begin("hpfexec", "PrepareStencil", parent, 0)
		pr, err := hpfexec.PrepareStencil(m, pb.stencil)
		tr.end(s)
		spec := pb.stencil.WithDefaults()
		return &prepared{pr, spec.MulVec}, err
	case "hpcg":
		s := tr.begin("comm", "NewMachine", parent, 0)
		m := newMachine(ranks)
		tr.end(s)
		brick := pb.brick
		brick.Nz = brick.Nz * np / ranks
		s = tr.begin("hpfexec", "PrepareMG", parent, 0)
		pr, err := hpfexec.PrepareMG(m, brick)
		tr.end(s)
		return &prepared{pr, pb.global().MulVec}, err
	}
	return nil, fmt.Errorf("unknown problem kind %q", pb.kind)
}

// solveWorkload is a closed loop of one caller against a warm handle.
type solveWorkload struct {
	d       workloadDef
	pb      problem
	rhs     [][]float64 // rhs[f] is family member f's right-hand side; the last is the cold solve's
	seed    int64
	roundNo int
}

func (w *solveWorkload) def() workloadDef { return w.d }

// prepare builds the right-hand-side family: member f is
// sparse.RandomVector(n, f+1), whatever the seed (see roundOrder).
func (w *solveWorkload) prepare(seed int64, seconds float64) error {
	p, err := w.pb.bringUp(nil, -1, np)
	if err != nil {
		return err
	}
	w.seed = seed
	w.rhs = make([][]float64, w.d.jobsPerRound(seconds)+1)
	for f := range w.rhs {
		w.rhs[f] = sparse.RandomVector(p.pr.N(), int64(f)+1)
	}
	return nil
}

var solveOpts = []core.Options{{Tol: tol}}

// solved folds one single-right-hand-side SolveBatch into a jobResult.
func solved(out *hpfexec.BatchResult, wall time.Duration) jobResult {
	res := out.Results[0]
	why := ""
	if !res.Stats.Converged {
		why = fmt.Sprintf("not converged after %d iterations, residual %g", res.Stats.Iterations, res.Stats.Residual)
	}
	return jobResult{
		why: why,
		ms:  ms(wall), ok: res.Stats.Converged,
		iterations: res.Stats.Iterations,
		solveS:     out.SolveModelTime[0], modelS: out.SolveModelTime[0] + out.SetupModelTime,
		xhash: hashX(res.X),
	}
}

func (w *solveWorkload) round(tr *tracer) (*roundResult, error) {
	root := tr.begin("bench", "round", -1, 0)
	defer tr.end(root)
	n := len(w.rhs) - 1
	r := &roundResult{jobs: make([]jobResult, n), order: roundOrder(w.seed, w.roundNo, n)}
	w.roundNo++

	t0 := time.Now()
	su := tr.begin("bench", "setup", root, 0)
	p, err := w.pb.bringUp(tr, su, np)
	if err != nil {
		return nil, err
	}
	s := tr.begin("hpfexec", "SolveBatch(cold)", su, 0)
	cold, err := p.pr.SolveBatch(w.rhs[n:], solveOpts)
	tr.end(s)
	tr.end(su)
	if err != nil {
		return nil, err
	}
	r.setupS = time.Since(t0).Seconds()
	r.cold = []jobResult{solved(cold, 0)}

	win := openWindow()
	outs := make([]*hpfexec.BatchResult, n)
	walls := make([]time.Duration, n)
	for _, f := range r.order {
		s := tr.begin("hpfexec", "SolveBatch", root, f+1)
		t := time.Now()
		out, err := p.pr.SolveBatch(w.rhs[f:f+1], solveOpts)
		walls[f] = time.Since(t)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		outs[f] = out
	}
	r.wallS, r.cpuS, r.mallocs = win.close()

	for f, out := range outs {
		r.jobs[f] = solved(out, walls[f])
		r.jobs[f].ref = f < w.d.RefJobs
	}
	// The round's first job is re-checked against the sequential
	// reference operator.
	first := r.order[0]
	if res := relResidual(p.mulVec, w.rhs[first], outs[first].Results[0].X); res > 10*tol {
		r.jobs[first].ok, r.jobs[first].why = false, fmt.Sprintf("residual %g against the sequential reference", res)
	}
	outs = nil
	r.heapMB = retainedHeapMB()
	// The heap figure includes the plan and machine a warm caller holds.
	runtime.KeepAlive(p)
	return r, nil
}

func (w *solveWorkload) refModelNP1() (float64, error) {
	p, err := w.pb.bringUp(nil, -1, 1)
	if err != nil {
		return 0, err
	}
	out, err := p.pr.SolveBatch(w.rhs[:w.d.RefJobs], solveOpts)
	if err != nil {
		return 0, err
	}
	return sum(out.SolveModelTime), nil
}
