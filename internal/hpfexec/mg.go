// The HPCG backend: directive-free prepared handles for the
// multigrid-preconditioned stencil solve. Where Prepare captures a
// matrix's RHS-independent analysis, PrepareMG captures a stencil
// problem's. The level hierarchy is matrix-free — halo and transfers
// are geometry, nothing is exchanged to set it up, and the coarsest
// level is smoothed, not factored — so what the first batch run builds
// and the handle caches is each rank's level scratch and halo planes
// (mg.Spec.ModelBytes counts exactly these). Building them charges
// nothing: cold and warm solves both report SetupModelTime of exactly
// zero, as the stencil backend's do.
package hpfexec

import (
	"fmt"

	"hpfcg/internal/comm"
	"hpfcg/internal/grid"
	"hpfcg/internal/mg"
)

// PrepareMG validates the HPCG spec against the machine and fixes the
// execution strategy, returning the handle whose solves run core.PCG
// under the V-cycle preconditioner. The requested hierarchy depth
// clamps to what the geometry supports; Strategy reports the clamped
// shape (Mode and Levels).
func PrepareMG(m *comm.Machine, spec mg.Spec) (*Prepared, error) {
	spec = spec.WithDefaults()
	if err := MG(spec).Validate(m.NP()); err != nil {
		return nil, err
	}
	fine, err := spec.Fine(m.NP())
	if err != nil {
		return nil, err
	}
	depth := grid.ClampLevels(fine, spec.Levels)
	return newPrepared(m, &mgBackend{spec: spec, size: fine.N(), bytes: spec.ModelBytes(m.NP())}, Strategy{
		Scenario: "hpcg 27-pt stencil",
		Mode:     fmt.Sprintf("mg-vcycle(levels=%d,smooths=%d)", depth, spec.Smooths),
		Levels:   depth,
	}), nil
}

// mgBackend never materializes a matrix: the system size and the
// hierarchy's resident size are analytic in the spec.
type mgBackend struct {
	spec  mg.Spec
	size  int
	bytes int64
}

func (b *mgBackend) kind() string       { return BackendHPCG }
func (b *mgBackend) n() int             { return b.size }
func (b *mgBackend) memoryBytes() int64 { return b.bytes }

// frontier is nil: the cost model does not price the V-cycle.
func (b *mgBackend) frontier(*comm.Machine) []FrontierRow { return nil }

// build constructs the rank's level hierarchy; the operator and the
// preconditioner share it.
func (b *mgBackend) build(p *comm.Proc, _ Variant) (rankOps, error) {
	pb, err := mg.NewProblem(p, b.spec)
	if err != nil {
		return rankOps{}, err
	}
	return rankOps{op: pb.Operator(), M: pb.Precond(), d: pb.Dist()}, nil
}
