// Package mg is the HPCG-style multigrid subsystem: a deterministic
// 27-point 3-D stencil problem over internal/grid's slab decomposition,
// a distributed symmetric Gauss-Seidel smoother, and a geometric V-cycle
// that plugs into core.PCG as a Preconditioner.
//
// The stencil is the HPCG benchmark operator — diagonal 26, every
// interior point coupled to its 26 neighbours with -1 — symmetric
// positive definite by diagonal dominance. Each rank owns a brick of
// nx × ny × nz points (the global grid is nx × ny × nz·np, z-slabs), so
// the halo is one x-y plane per side. The hierarchy halves every
// dimension per level; restriction is injection, prolongation its
// transpose, so the V-cycle is symmetric and PCG's theory applies.
//
// Every level is that same stencil on a smaller brick, so the hierarchy
// is matrix-free: the paper's §5 inspector exists for irregular
// sparsity, and on a regular brick both the operator and its
// communication schedule are geometry. A level holds no rows and no
// schedule — apply, residual and smoother are internal/mfree's
// row-sliced kernels over its geometric plane halo (the fine-grid
// Operator IS an mfree.Operator), the transfers are index arithmetic
// between two bricks (level.go), and nothing in NewProblem communicates.
// The kernels keep the arithmetic of the assembled CSR level they
// replaced to the bit, and the same flop charges and message sizes, so
// answers, iteration counts and modeled solve times are what they were;
// that assembled level lives on in assembled_test.go as the comparator
// TestLevelKernelsMatchAssembled holds every kernel, transfer, V-cycle
// and whole solve to.
//
// The coarsest level is smoothed, not solved: its pre-smoothing sweeps
// are the bottom of the V-cycle, as in the HPCG reference, so no rank
// repeats a computation every other rank also does. The first sweep on
// each level starts from a correction of +0.0, whose halo is +0.0 too,
// so it reads ghost planes of zeros and exchanges nothing.
//
// Everything about a problem is deterministic in (spec, np): level
// setup, smoother sweep order, and the one halo exchange per later
// sweep are all sequential per rank with frozen ghosts, so repeated
// solves are bit-identical — the property the serving tier's plan
// registry and the E24 experiment both assert.
package mg

import (
	"fmt"

	"hpfcg/internal/grid"
)

// Spec bounds. Dimensions are per-rank brick sides; MaxDim keeps a
// served job from requesting a grid that swamps the simulator, and
// MaxLevels/MaxSmooths bound the V-cycle shape (satellite: "absurd
// Levels" must be rejected at admission, not deep in a worker).
const (
	DefaultLevels  = 4
	DefaultSmooths = 1
	MaxLevels      = 8
	MaxSmooths     = 8
	MaxDim         = 256
)

// Spec sizes one HPCG-style problem: each rank owns an Nx × Ny × Nz
// brick (the global grid is Nx × Ny × Nz·np), the hierarchy is Levels
// deep (clamped to what the geometry supports; 0 selects
// DefaultLevels), and every V-cycle level runs Smooths symmetric
// Gauss-Seidel sweeps before and after coarse correction (0 selects
// DefaultSmooths); the coarsest level runs its Smooths pre-smoothing
// sweeps alone, the HPCG reference's bottom solve.
type Spec struct {
	Nx, Ny, Nz int
	Levels     int
	Smooths    int
}

// WithDefaults fills zero Levels/Smooths with the package defaults.
func (s Spec) WithDefaults() Spec {
	if s.Levels == 0 {
		s.Levels = DefaultLevels
	}
	if s.Smooths == 0 {
		s.Smooths = DefaultSmooths
	}
	return s
}

// Validate checks the (defaulted) spec against the package bounds, the
// one check of an hpcg problem. Errors name the offending field as a
// served job's JSON spells it (mg.nx, mg.levels, ...), so the serving
// tier returns them as admission-time 400s unchanged.
func (s Spec) Validate() error {
	for _, d := range []struct {
		name string
		v    int
	}{{"nx", s.Nx}, {"ny", s.Ny}, {"nz", s.Nz}} {
		if d.v < 1 || d.v > MaxDim {
			return fmt.Errorf("field mg.%s: %d outside [1, %d]", d.name, d.v, MaxDim)
		}
	}
	if s.Levels < 1 || s.Levels > MaxLevels {
		return fmt.Errorf("field mg.levels: %d outside [1, %d] (0 selects %d)", s.Levels, MaxLevels, DefaultLevels)
	}
	if s.Smooths < 1 || s.Smooths > MaxSmooths {
		return fmt.Errorf("field mg.smooths: %d outside [1, %d] (0 selects %d)", s.Smooths, MaxSmooths, DefaultSmooths)
	}
	return nil
}

// Fine returns the global fine-grid brick for np ranks: each rank's
// local Nz planes stack into a global z-extent of Nz·np.
func (s Spec) Fine(np int) (grid.Brick3, error) {
	return grid.NewBrick3(s.Nx, s.Ny, s.Nz*np, np)
}

// Key is the canonical cache-key fragment of the spec: two specs with
// equal keys build identical problems at equal np.
func (s Spec) Key() string {
	s = s.WithDefaults()
	return fmt.Sprintf("27pt:%dx%dx%d:L%d:S%d", s.Nx, s.Ny, s.Nz, s.Levels, s.Smooths)
}

// ModelBytes estimates the resident size of a prepared hierarchy at np
// ranks, summed over the clamped hierarchy. No level stores an operator,
// so what is resident is the V-cycle's scratch vectors (the residual on
// every level but the coarsest, right-hand side and correction on every
// level but the finest) and each rank's two halo planes per level. Like
// Prepared.MemoryBytes this is a cache-pressure signal for the plan
// registry, not an allocator.
func (s Spec) ModelBytes(np int) int64 {
	s = s.WithDefaults()
	b, err := s.Fine(np)
	if err != nil {
		return 0
	}
	const floatB = 8
	depth := grid.ClampLevels(b, s.Levels)
	var words int64
	for l := 0; l < depth; l++ {
		vectors := 0
		if l > 0 {
			vectors += 2
		}
		if l+1 < depth {
			vectors++
		}
		words += int64(vectors)*int64(b.N()) + 2*int64(np)*int64(b.X*b.Y)
		if l+1 < depth {
			b = b.Coarsen()
		}
	}
	return words * floatB
}
