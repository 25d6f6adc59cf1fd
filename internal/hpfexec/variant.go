// The solver variant of a Prepared handle, and the one table that says
// which variant runs on which backend. A variant differs from its
// siblings in the recurrence (core.PCG, core.CGSStep, core.CGPipelined,
// core.CGResilient, the §2.1 methods), not in plumbing: it is resolved
// once, and the shared loop (Prepared.run) runs the resolved variant's
// recurrence for every right-hand side. Like a Problem, a Variant is a
// value with one canonical string, and every variant that arrives as
// text (hpfrun's -variant, the facade's method names) is parsed here.
//
// The text grammar is the canonical form String prints:
//
//	plain                        the Figure 2 recurrence (core.PCG under the backend's preconditioner)
//	pcg                          core.PCG under the point-Jacobi preconditioner (core.NewJacobi)
//	bicg | cgs | bicgstab        the §2.1 methods (core.BiCG, core.CGS, core.BiCGSTAB)
//	sstep:<s>                    s-step CG at a fixed factor, 2 <= s <= MaxSStep (core.CGSStep)
//	auto                         the cheapest row of the backend's §4 Frontier (plain, s-step or pipelined)
//	pipelined                    the overlap solver (core.CGPipelined)
//	resilient[:ckpt=<n>[,restarts=<n>]]
//	resilient:restarts=<n>       checkpoint/rollback-restart (core.CGResilient)
//
// A left-out checkpoint interval or restart budget takes its default,
// and String writes both, so ParseVariant(v.String()) is v. No value
// combines two recurrences, and plain CG has one spelling: s-step CG at
// s = 1 is plain, and sstep:1 is refused.
package hpfexec

import (
	"cmp"
	"errors"
	"fmt"
	"regexp"
	"slices"
	"strconv"
	"strings"

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

// Variant is the Krylov recurrence a handle's solves run. Build it with
// ParseVariant, Plain, SStep, Auto, Pipelined or Resilient; the
// zero value is Plain.
type Variant struct {
	key            string // String(), computed once by the constructor; "" for plain
	s              int    // an s-step variant's fixed factor
	ckpt, restarts int    // a resilient variant's interval and budget
}

// Plain is the Figure 2 recurrence: core.PCG under the backend's
// preconditioner, which without one is core.CG.
func Plain() Variant { return Variant{} }

// SStep is communication-avoiding s-step CG (core.CGSStep) at the fixed
// blocking factor s. The recurrence at s = 1 is plain CG, so SStep(1)
// is Plain; CheckVariant refuses any other s outside [2, MaxSStep].
func SStep(s int) Variant {
	if s == 1 {
		return Plain()
	}
	return Variant{key: "sstep:" + strconv.Itoa(s), s: s}
}

// Auto is the variant the §4 cost model chooses for the handle's
// machine and backend: the cheapest Frontier row — plain, s-step at a
// candidate factor, or pipelined on a CSR layout; plain or pipelined
// on a stencil. A CSC layout, which the frontier does not price,
// resolves it to Plain; hpcg refuses it.
func Auto() Variant { return Variant{key: "auto"} }

// Pipelined is the overlap-based solver (core.CGPipelined): one
// nonblocking allreduce per iteration, hidden behind the mat-vec. It
// attacks the same latency term as s-step blocking.
func Pipelined() Variant { return Variant{key: "pipelined"} }

// Resilient runs each solve under checkpoint/rollback-restart
// (core.CGResilient): every comm.PeerFailure restarts the run from the
// newest complete checkpoint, and BatchResult.Recovery reports what
// that cost. It checkpoints every ckpt iterations (0 means 10) and
// retries at most restarts failed attempts (0 means 3); CheckVariant
// refuses a negative bound. It checkpoints the plain recurrence on an
// assembled matrix, one right-hand side per solve call.
func Resilient(ckpt, restarts int) Variant {
	ckpt, restarts = cmp.Or(ckpt, 10), cmp.Or(restarts, 3)
	return Variant{key: fmt.Sprintf("resilient:ckpt=%d,restarts=%d", ckpt, restarts), ckpt: ckpt, restarts: restarts}
}

// variantForm is the grammar of the file comment: the s-step factor is
// group 1, the resilient interval group 2, the budget group 3 or 4.
var variantForm = regexp.MustCompile(`^(?:plain|pipelined|pcg|bicg|cgs|bicgstab|auto|sstep:(-?\d+)|resilient(?::ckpt=(-?\d+)(?:,restarts=(-?\d+))?|:restarts=(-?\d+))?)$`)

// ParseVariant reads the text grammar of the file comment. The grammar
// is exact: an unknown kind, a malformed or trailing field, a factor
// outside [2, MaxSStep] or a negative bound is an error naming the
// argument, never a variant other than the one written.
func ParseVariant(s string) (Variant, error) {
	m := variantForm.FindStringSubmatch(s)
	var err error // the first field that does not parse
	num := func(t string) int { n, e := strconv.Atoi(cmp.Or(t, "0")); err = cmp.Or(err, e); return n }
	v := Variant{key: s} // the words without a field are their own keys
	switch {
	case m == nil:
		return Variant{}, fmt.Errorf("hpfexec: variant %q: want plain, pcg, bicg, cgs, bicgstab, sstep:<s>, auto, pipelined or resilient[:ckpt=<n>[,restarts=<n>]]", s)
	case s == "plain":
		v = Plain()
	case m[1] != "":
		if v = SStep(num(m[1])); v == Plain() {
			err = fmt.Errorf("s = 1 is plain CG; write plain")
		}
	case strings.HasPrefix(s, "resilient"):
		v = Resilient(num(m[2]), num(m[3]+m[4]))
	}
	// Every kind runs on CSR, so there the table checks ranges alone.
	if err = cmp.Or(err, errors.Unwrap(CheckVariant(BackendCSR, v))); err != nil {
		return Variant{}, fmt.Errorf("hpfexec: variant %q: %w", s, err)
	}
	return v, nil
}

// String is the canonical form: the text ParseVariant reads back.
func (v Variant) String() string { return cmp.Or(v.key, "plain") }

// Kind is the prefix of String that names the recurrence: "plain",
// "sstep", "auto", "pipelined", "resilient" or a word of methodKinds.
func (v Variant) Kind() string { kind, _, _ := strings.Cut(v.String(), ":"); return kind }

// Factor is the s-step blocking factor the variant's recurrence runs
// at: s for an s-step variant, 1 for the plain recurrence that plain and
// resilient run (and for auto until WithVariant resolves it), 0
// for pipelined, which does not block.
func (v Variant) Factor() int {
	if v == Pipelined() {
		return 0
	}
	return max(v.s, 1)
}

// CheckVariant holds the variant to its own ranges and then to the
// backend × kind legality table — the only place either lives.
// WithVariant consults it for a handle; the service consults it at
// admission, before any handle exists, and returns its error as the
// 400 verbatim. Every error names the request field (sstep, pipelined,
// resilient, ckpt_interval, max_restarts, or the facade's method) that
// has to change.
func CheckVariant(backend string, v Variant) error {
	matrix := backend == BackendCSR || backend == BackendCSC
	var why error
	switch kind := v.Kind(); {
	case kind == "sstep" && (v.s < 2 || v.s > MaxSStep):
		why = fmt.Errorf("field sstep: %d outside [2,%d]", v.s, MaxSStep)
	case v.ckpt < 0:
		why = fmt.Errorf("field ckpt_interval: negative bound %d", v.ckpt)
	case v.restarts < 0:
		why = fmt.Errorf("field max_restarts: negative bound %d", v.restarts)
	case kind == "sstep" && !matrix:
		why = fmt.Errorf("field sstep: does not apply to %s jobs (the matrix-powers kernel needs an assembled matrix)", backend)
	case kind == "auto" && backend == BackendHPCG:
		why = fmt.Errorf("field sstep: auto does not apply to hpcg jobs (the cost model does not price the V-cycle)")
	case kind == "sstep" && backend == BackendCSC:
		why = fmt.Errorf("field sstep: %d needs a CSR layout, got %s", v.s, backend)
	case kind == "pipelined" && backend == BackendCSC:
		why = fmt.Errorf("field pipelined: needs a CSR layout, got %s", backend)
	case kind == "pipelined" && backend == BackendHPCG:
		why = fmt.Errorf("field pipelined: does not apply to hpcg jobs (the V-cycle is the inner solve)")
	case kind == "resilient" && !matrix:
		why = fmt.Errorf("field resilient: checkpoint/restart needs an assembled matrix, not a %s job", backend)
	case slices.Contains(methodKinds, kind) && !matrix:
		why = fmt.Errorf("field method: %s needs an assembled matrix, not a %s job", kind, backend)
	default:
		return nil
	}
	return fmt.Errorf("hpfexec: %w", why)
}

// methodKinds are the §2.1 recurrences: the assembled-matrix backends
// run them over their own executor, the CSR layouts' broadcast one for
// bicg, whose A^T the halo executor does not apply.
var methodKinds = []string{"pcg", "bicg", "cgs", "bicgstab"}

// solve runs the variant's recurrence for one right-hand side on rank
// p over the rank's operators; res is the checkpoint store and interval
// of a resilient solve call, unread by every other kind.
func (v Variant) solve(p *comm.Proc, ro *rankOps, b, x *darray.Vector, opt core.Options, res core.Resilience) (core.Stats, error) {
	switch v.Kind() {
	case "sstep":
		return core.CGSStep(p, ro.op, b, x, opt, v.s)
	case "pipelined":
		return core.CGPipelined(p, ro.op, b, x, opt)
	case "resilient":
		return core.CGResilient(p, ro.op, b, x, opt, res)
	case "bicg":
		return core.BiCG(p, ro.op.(spmv.TransposeOperator), b, x, opt)
	case "cgs":
		return core.CGS(p, ro.op, b, x, opt)
	case "bicgstab":
		return core.BiCGSTAB(p, ro.op, b, x, opt)
	}
	// plain and pcg: the cold build set M to pcg's point-Jacobi.
	return core.PCG(p, ro.op, ro.M, b, x, opt)
}

// WithVariant sets the recurrence the handle's solves run, checked
// against the legality table. It resolves everything the variant
// implies before any run: auto becomes the variant of the cheapest
// row of the backend's Frontier (plain where there is none), and the
// variant picks the operators the cold build constructs
// (s >= 2 runs the matrix-powers executor, whose widened inspector
// schedule is cached in the handle like every other operator; bicg the
// broadcast executor on CSR; pcg adds point Jacobi).
// Strategy().Variant reports the resolved variant, which every solve
// then runs. Call it on a fresh handle: a warm handle already holds
// the operators of its current variant.
func (pr *Prepared) WithVariant(v Variant) error {
	if pr.warm {
		return fmt.Errorf("hpfexec: WithVariant on a warm handle (choose the variant before the first solve)")
	}
	if err := CheckVariant(pr.be.kind(), v); err != nil {
		return err
	}
	if v == Auto() {
		v = Plain()
		if rows := pr.Frontier(); len(rows) > 0 {
			v = Cheapest(rows).Variant
		}
	}
	pr.strategy.Variant = v
	return nil
}
