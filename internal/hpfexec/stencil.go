// The matrix-free backend: prepared handles for stencil CG with no
// assembled matrix. Where Prepare pays for partitioning, CSC
// conversion and the inspector's ghost-schedule exchange, and PrepareMG
// pays for a level hierarchy, PrepareStencil pays for nothing the
// modeled clock can see: the operator is two coefficients plus brick
// geometry, and its halo schedule is written down locally from the brick
// coordinates (mfree.NewHalo, an inspector.Schedule built by FromLists
// with no request exchange). SetupModelTime is therefore exactly zero on
// COLD runs as well as warm ones — the assembled path's setup cost is
// not amortized here, it is eliminated (experiment E25 prices both).
package hpfexec

import (
	"fmt"

	"hpfcg/internal/comm"
	"hpfcg/internal/mfree"
)

// PrepareStencil validates the stencil spec against the machine and
// returns the handle whose solves run core.CG — whose fused fast path
// engages mfree's ApplyDot — or, with the Pipelined variant,
// core.CGPipelined with the stencil application as the overlap window.
// Answers are bit-identical to the assembled-CSR executor over the
// same brick layout. No collective work happens here or later: the
// geometric schedule makes setup free.
func PrepareStencil(m *comm.Machine, spec mfree.Spec) (*Prepared, error) {
	spec = spec.WithDefaults()
	if err := Stencil(spec).Validate(m.NP()); err != nil {
		return nil, err
	}
	return newPrepared(m, &stencilBackend{spec: spec, bytes: spec.ModelBytes(m.NP())}, Strategy{
		Scenario: fmt.Sprintf("matrix-free %s stencil", spec.Stencil),
		Mode:     "mfree(geometric-halo)",
	}), nil
}

// stencilBackend holds two ghost planes per rank and a descriptor; its
// resident size is analytic in the spec.
type stencilBackend struct {
	spec  mfree.Spec
	bytes int64
}

func (b *stencilBackend) kind() string       { return BackendStencil }
func (b *stencilBackend) n() int             { return b.spec.N() }
func (b *stencilBackend) memoryBytes() int64 { return b.bytes }

// build constructs the rank's operator locally — no collective.
func (b *stencilBackend) build(p *comm.Proc, _ Variant) (rankOps, error) {
	op, err := mfree.New(p, b.spec)
	if err != nil {
		return rankOps{}, err
	}
	return rankOps{op: op, d: op.Dist()}, nil
}
