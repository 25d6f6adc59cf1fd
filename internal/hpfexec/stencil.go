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
//
// The backend prices itself from the same geometry: its plain and
// pipelined frontier rows read the brick (mfree.Spec.Shape), never an
// assembled matrix, and equal the rows the assembled twin would price.
package hpfexec

import (
	"fmt"

	"hpfcg/internal/comm"
	"hpfcg/internal/mfree"
)

// PrepareStencil validates the stencil spec against the machine and
// returns the handle whose solves run core.CG — whose fused fast path
// engages mfree's ApplyDot — or, with the Pipelined variant,
// core.CGPipelined with the stencil application as the overlap window;
// Auto picks the cheaper of the two on the machine (Frontier).
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

// frontier prices plain and pipelined CG from the brick. The iteration
// floor is the grid's longest axis − 1: x_k lies in a Krylov space
// whose vectors reach only k neighbours from each point of b, so no
// solve is done before b's values at one end of the longest axis have
// reached the other.
func (b *stencilBackend) frontier(m *comm.Machine) []FrontierRow {
	entries, owned, ghosts, err := b.spec.Shape(m.NP())
	if err != nil {
		return nil // PrepareStencil validated the brick
	}
	floor := max(b.spec.Nx, b.spec.Ny, b.spec.Nz) - 1
	plain, pipelined := cgRows(m, entries, ghosts, owned, float64(max(floor, 1)))
	return []FrontierRow{plain, pipelined}
}
