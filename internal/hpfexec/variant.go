// The solver variant of a Prepared handle, and the one table that says
// which variant runs on which backend. A variant differs from its
// siblings in the recurrence (core.CG, core.CGSStep, core.CGPipelined,
// core.CGResilient, core.PCG under a handle's preconditioner), not in
// plumbing: it is resolved once to a solver function and the shared
// loop (Prepared.run) calls that for every right-hand side.
package hpfexec

import (
	"fmt"

	"hpfcg/internal/comm"
	"hpfcg/internal/core"
	"hpfcg/internal/darray"
	"hpfcg/internal/spmv"
)

// The backend names of the legality table. The assembled-matrix
// backend goes by the storage format its plan declares; "hpcg" and
// "stencil" are also the service's method names for those jobs.
const (
	BackendCSR     = "csr"
	BackendCSC     = "csc"
	BackendHPCG    = "hpcg"
	BackendStencil = "stencil"
)

// AutoSStep as Variant.SStep lets the §4 cost model choose the
// blocking factor for the handle's machine, matrix and distribution
// (the cheapest Frontier row AutoServes admits); storage formats with
// no matrix-powers form resolve it to 1.
const AutoSStep = -1

// Variant selects the CG recurrence a handle's solves run. The zero
// value is plain CG (core.PCG when the backend brings a
// preconditioner).
type Variant struct {
	// SStep requests the communication-avoiding s-step path: 0 leaves
	// it off, AutoSStep lets the cost model choose, 1 forces plain CG
	// through it (Strategy.SStep then reports 1), 2..MaxSStep fixes the
	// blocking factor.
	SStep int
	// Pipelined selects the overlap-based solver (core.CGPipelined):
	// one nonblocking allreduce per iteration, hidden behind the
	// mat-vec. It attacks the same latency term as s-step blocking, so
	// the two do not combine.
	Pipelined bool
	// Resilient runs each solve under checkpoint/rollback-restart
	// (core.CGResilient): every comm.PeerFailure restarts the run from
	// the newest complete checkpoint, and BatchResult.Recovery reports
	// what that cost. It checkpoints the plain recurrence on an assembled
	// matrix, one right-hand side per solve call.
	Resilient bool
	// CkptInterval checkpoints every CkptInterval iterations (0 means
	// 10) and MaxRestarts bounds how many failed attempts are retried (0
	// means 3). Both apply with Resilient only; a negative value is
	// refused either way.
	CkptInterval int
	MaxRestarts  int
}

// blocked reports an s-step blocking request: a fixed factor >= 2 or
// the selector, which may choose one.
func (v Variant) blocked() bool { return v.SStep >= 2 || v.SStep == AutoSStep }

// CheckVariant is the backend × variant legality table — the only
// place it lives. WithVariant consults it for a handle; the service
// consults it at admission, before any handle exists, and returns its
// error as the 400 verbatim. Every error names the request field
// (sstep, pipelined, resilient, ckpt_interval, max_restarts) that has to
// change.
func CheckVariant(backend string, v Variant) error {
	matrix := backend == BackendCSR || backend == BackendCSC
	fail := func(field, format string, args ...any) error {
		return fmt.Errorf("hpfexec: field %s: %s", field, fmt.Sprintf(format, args...))
	}
	switch {
	case v.SStep < AutoSStep || v.SStep > MaxSStep:
		return fail("sstep", "%d outside [0,%d]", v.SStep, MaxSStep)
	case v.SStep != 0 && !matrix:
		return fail("sstep", "does not apply to %s jobs (the matrix-powers kernel needs an assembled matrix)", backend)
	case v.SStep >= 2 && backend != BackendCSR:
		return fail("sstep", "%d needs a CSR layout, got %s", v.SStep, backend)
	case v.Pipelined && backend == BackendCSC:
		return fail("pipelined", "needs a CSR layout, got %s", backend)
	case v.Pipelined && backend == BackendHPCG:
		return fail("pipelined", "does not apply to hpcg jobs (the V-cycle is the inner solve)")
	case v.Pipelined && v.blocked():
		return fail("pipelined", "cannot combine with s-step blocking (sstep=%d)", v.SStep)
	case v.Resilient && v.Pipelined:
		return fail("pipelined", "resilient mode checkpoints the plain recurrence only")
	case v.Resilient && v.blocked():
		return fail("sstep", "resilient mode checkpoints the plain recurrence only (sstep=%d)", v.SStep)
	case v.Resilient && !matrix:
		return fail("resilient", "checkpoint/restart needs an assembled matrix, not a %s job", backend)
	case v.CkptInterval < 0:
		return fail("ckpt_interval", "negative bound %d", v.CkptInterval)
	case v.MaxRestarts < 0:
		return fail("max_restarts", "negative bound %d", v.MaxRestarts)
	}
	return nil
}

// solveFn is the solver a run executes per processor and right-hand
// side. M is the backend's preconditioner, nil when it has none.
type solveFn func(p *comm.Proc, op spmv.Operator, M core.Preconditioner, b, x *darray.Vector, opt core.Options) (core.Stats, error)

func solvePipelined(p *comm.Proc, op spmv.Operator, _ core.Preconditioner, b, x *darray.Vector, opt core.Options) (core.Stats, error) {
	return core.CGPipelined(p, op, b, x, opt)
}

// WithVariant sets the recurrence the handle's solves run, checked
// against the legality table. It resolves everything the variant
// implies before any run: AutoSStep becomes a concrete factor, the
// factor picks the operator the cold build constructs (s >= 2 runs the
// matrix-powers executor, whose widened inspector schedule is cached
// in the handle like every other operator), the solver function is
// fixed, and a Resilient variant's zero tunables take their defaults
// (its solver is bound per solve call, to that call's checkpoint
// store). Call it on a fresh handle: a warm handle already holds the
// operators of its current variant.
func (pr *Prepared) WithVariant(v Variant) error {
	if pr.warm {
		return fmt.Errorf("hpfexec: WithVariant on a warm handle (choose the variant before the first solve)")
	}
	if err := CheckVariant(pr.be.kind(), v); err != nil {
		return err
	}
	s := v.SStep
	if s == AutoSStep {
		s = 1
		if mb, ok := pr.be.(*matrixBackend); ok && mb.format == BackendCSR {
			s = Cheapest(Frontier(pr.m, mb.A, mb.d, SStepCandidates), AutoServes).Variant.SStep
		}
	}
	if v.CkptInterval == 0 {
		v.CkptInterval = 10
	}
	if v.MaxRestarts == 0 {
		v.MaxRestarts = 3
	}
	switch {
	case v.Pipelined:
		s = 0
		pr.solve = solvePipelined
	case s >= 1:
		// s = 1 is core.CG inside core.CGSStep, reported as s = 1.
		pr.solve = func(p *comm.Proc, op spmv.Operator, _ core.Preconditioner, b, x *darray.Vector, opt core.Options) (core.Stats, error) {
			return core.CGSStep(p, op, b, x, opt, s)
		}
	default:
		pr.solve = core.PCG
	}
	pr.variant = v
	pr.strategy.SStep, pr.strategy.Pipelined = s, v.Pipelined
	return nil
}
