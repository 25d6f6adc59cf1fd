package bench

import (
	"context"

	"hpfcg/internal/comm"
	"hpfcg/internal/core"
	"hpfcg/internal/darray"
	"hpfcg/internal/dist"
	"hpfcg/internal/hpfexec"
	"hpfcg/internal/sparse"
	"hpfcg/internal/spmv"
)

// The experiments' SPMD bodies, each written once: every distributed
// solve runs solveOn and every operator sweep runs applyOn, on a
// machine from Config.machine, through RunContext — so a tracer or an
// injector in Config reaches every run, and an injected crash is the
// experiment's error rather than a panic.

// buildOp builds rank p's operator over the vector distribution d.
type buildOp func(p *comm.Proc, d dist.Contiguous) (spmv.Operator, error)

// solveFn runs one solver on rank p from the prepared b and x.
type solveFn func(p *comm.Proc, op spmv.Operator, b, x *darray.Vector) (core.Stats, error)

// solved is one SPMD solve: rank 0's stats and, when gathered, its
// solution; the run; and the modeled setup clock.
type solved struct {
	st    core.Stats
	x     []float64
	run   comm.RunStats
	setup float64
}

// solveOn is the solve body. On m, rank p builds its operator over d,
// sets b, runs solve and, with gather set, gathers x (a charged
// collective). setup is the latest rank clock once its operator was
// built. A failed run returns its partial stats with the error.
func solveOn(m *comm.Machine, d dist.Contiguous, b []float64, gather bool, build buildOp, solve solveFn) (solved, error) {
	var out solved
	setups := make([]float64, m.NP())
	errs := make([]error, m.NP())
	run, err := m.RunContext(context.Background(), func(p *comm.Proc) {
		r := p.Rank()
		op, err := build(p, d)
		if err != nil {
			errs[r] = err
			return
		}
		setups[r] = p.Clock()
		bv := darray.New(p, d)
		xv := darray.New(p, d)
		bv.SetGlobal(func(g int) float64 { return b[g] })
		st, err := solve(p, op, bv, xv)
		if err != nil {
			errs[r] = err
			return
		}
		var x []float64
		if gather {
			x = xv.Gather()
		}
		if r == 0 {
			out.st, out.x = st, x
		}
	})
	out.run = run
	for _, s := range setups {
		out.setup = max(out.setup, s)
	}
	for _, e := range errs {
		if err == nil {
			err = e
		}
	}
	return out, err
}

// buildApply builds rank p's product y = op(x) over d.
type buildApply func(p *comm.Proc, d dist.Contiguous) func(x, y *darray.Vector)

// applyOn is the sweep body. On m, rank p builds an apply function
// over d, sets x to 1 and applies it k times.
func applyOn(m *comm.Machine, d dist.Contiguous, k int, build buildApply) (comm.RunStats, error) {
	return m.RunContext(context.Background(), func(p *comm.Proc) {
		apply := build(p, d)
		x := darray.New(p, d)
		y := darray.New(p, d)
		x.Fill(1)
		for i := 0; i < k; i++ {
			apply(x, y)
		}
	})
}

// csrApply is the forward product of A's broadcast row-block executor.
func csrApply(A *sparse.CSR) buildApply {
	return func(p *comm.Proc, d dist.Contiguous) func(x, y *darray.Vector) {
		return spmv.NewRowBlockCSR(p, A, d).Apply
	}
}

// cscApply is the forward product of A's column-block executor in mode.
func cscApply(A *sparse.CSC, mode spmv.Mode) buildApply {
	return func(p *comm.Proc, d dist.Contiguous) func(x, y *darray.Vector) {
		return spmv.NewColBlockCSC(p, A, d, mode).Apply
	}
}

// ghostApply is the forward product of A's halo executor, its
// inspector included. A non-nil ghosts receives the middle rank's
// ghost count.
func ghostApply(A *sparse.CSR, ghosts *int) buildApply {
	return func(p *comm.Proc, d dist.Contiguous) func(x, y *darray.Vector) {
		op := spmv.NewRowBlockCSRGhost(p, A, d)
		if ghosts != nil && p.Rank() == p.NP()/2 {
			*ghosts = op.NGhosts()
		}
		return op.Apply
	}
}

// csrOp is Scenario 1's broadcast row-block executor of A.
func csrOp(A *sparse.CSR) buildOp {
	return func(p *comm.Proc, d dist.Contiguous) (spmv.Operator, error) {
		return spmv.NewRowBlockCSR(p, A, d), nil
	}
}

// ghostOp is the inspector-executor halo executor of A.
func ghostOp(A *sparse.CSR) buildOp {
	return func(p *comm.Proc, d dist.Contiguous) (spmv.Operator, error) {
		return spmv.NewRowBlockCSRGhost(p, A, d), nil
	}
}

// cgSolve is plain CG under opt.
func cgSolve(opt core.Options) solveFn {
	return func(p *comm.Proc, op spmv.Operator, b, x *darray.Vector) (core.Stats, error) {
		return core.CG(p, op, b, x, opt)
	}
}

// frontierOf is the cost model's price list for the generated matrix
// spec on m's default CSR layout: the rows the handle's Auto chooses
// among (hpfexec.Prepared.Frontier).
func frontierOf(m *comm.Machine, spec string) ([]hpfexec.FrontierRow, error) {
	pr, err := hpfexec.Open(m, hpfexec.Generated(spec), "")
	if err != nil {
		return nil, err
	}
	return pr.Frontier(), nil
}
