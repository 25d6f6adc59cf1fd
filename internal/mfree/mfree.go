// Package mfree is the matrix-free operator backend: regular-grid
// stencil operators that implement spmv.Operator/FusedOperator
// directly, without ever assembling a sparse matrix. The workloads the
// paper's introduction motivates (heat, laplace2d — regular-grid PDE
// solves) never need the assembled form: the stencil coefficients are
// two constants, so recomputing the operator on the fly removes the
// CSR value/index streams from the hot path entirely (Kronbichler et
// al., PAPERS.md) and, just as importantly for the serving tier,
// removes the whole setup pipeline — COO assembly, CSR conversion,
// content hashing of values, and the inspector's collective
// ghost-index discovery all disappear. The halo schedule is computed
// geometrically from grid.Brick3 coordinates instead (see NewHalo):
// under the z-slab decomposition each rank's ghost set is exactly the
// adjacent boundary plane of ranks r±1, known without any exchange, so
// the lists go straight into an inspector.Schedule and the exchange is
// the inspector's own executor.
//
// Numerical contract: Apply/ApplyDot are bit-identical to the
// assembled-CSR halo executor (spmv.NewRowBlockCSRGhost over
// Spec.Assemble with the same brick layout). The kernels accumulate
// stencil terms in ascending global column order — the order a sorted
// CSR row stores them — with identical coefficient values and identical
// flop charges, so the equality is exact, not approximate, and every
// CG iterate (and therefore every solve) agrees bit for bit. The E25
// experiment and TestBitIdenticalToAssembled enforce this.
//
// Kernel shape: the sweeps are row-sliced (operator.go). Which source
// plane a z-neighbour lives in (a ghost buffer or the local block) is
// decided once per owned plane, which source rows exist once per
// (z, y) row, and the x-interior of a row with all its neighbours then
// runs as a straight-line chain of multiply-adds with no branch per
// term; grid faces and the two x-end points take a generic per-row
// loop. That shape is free to change. The order of additions is not:
// one scalar per point, started from +0.0, terms in ascending global
// column order, each term written s += coef * v as the CSR row loop
// writes it, and one running x·y partial over the points in local
// order — anything else (partial sums, a sum seeded with its first
// product, a per-row dot) computes the same stencil to rounding and
// breaks the contract above to the bit.
//
// The 27-point operator also carries the two other kernels a multigrid
// V-cycle needs, Residual and SymGS (smooth.go), in the same row-sliced
// shape and under the same contract — there against the residual and
// symmetric Gauss-Seidel loops over the same CSR rows. internal/mg
// builds every level of its hierarchy from them (New27) and stores no
// operator of its own.
package mfree

import (
	"fmt"
	"math"

	"hpfcg/internal/grid"
	"hpfcg/internal/sparse"
)

// Spec bounds, mirroring mg's admission-time limits: a served stencil
// job must be rejected at validation, not deep in a worker.
const (
	// MaxDim caps each global grid dimension.
	MaxDim = 4096
)

// Default stencil coefficients: the 5-point 2-D Laplacian (diag 4,
// neighbours -1, exactly sparse.Laplace2D) and the HPCG-style 27-point
// 3-D stencil (diag 26, neighbours -1, exactly internal/mg's level
// assembly).
const (
	Center5pt  = 4
	Center27pt = 26
	OffDefault = -1
)

// Spec sizes one matrix-free stencil operator. Unlike mg.Spec the
// dimensions are GLOBAL grid dimensions (the service validates them
// against np at prepare time): "5pt" is the 5-point Laplacian on an
// Nx × Ny grid with sparse.Laplace2D's numbering (the Nx rows are the
// slab dimension, so Nx >= np); "27pt" is the 27-point stencil on an
// Nx × Ny × Nz grid with grid.Brick3's numbering (x fastest, z
// slowest; Nz >= np).
//
// Center and Off generalize the coefficients (both zero selects the
// canonical pair for the stencil), which is how examples/heat's
// implicit operator I + dt·A becomes Spec{Stencil: "5pt",
// Center: 1 + 4·dt, Off: -dt} with no assembly at all.
type Spec struct {
	Stencil    string  // "5pt" | "27pt"
	Nx, Ny, Nz int     // global dims; Nz ignored (0) for 5pt
	Center     float64 // diagonal coefficient (0,0 -> canonical pair)
	Off        float64 // neighbour coefficient
}

// WithDefaults fills the canonical coefficient pair when both Center
// and Off are zero.
func (s Spec) WithDefaults() Spec {
	if s.Center == 0 && s.Off == 0 {
		switch s.Stencil {
		case "5pt":
			s.Center, s.Off = Center5pt, OffDefault
		case "27pt":
			s.Center, s.Off = Center27pt, OffDefault
		}
	}
	return s
}

// Validate checks the (defaulted) spec. Errors name the offending
// field so the serving tier surfaces them as admission-time 400s.
func (s Spec) Validate() error {
	switch s.Stencil {
	case "5pt":
		if s.Nz != 0 {
			return fmt.Errorf("mfree: nz = %d does not apply to the 5pt stencil", s.Nz)
		}
	case "27pt":
		if s.Nz < 1 || s.Nz > MaxDim {
			return fmt.Errorf("mfree: nz = %d outside [1, %d]", s.Nz, MaxDim)
		}
	default:
		return fmt.Errorf("mfree: stencil %q unsupported (5pt and 27pt)", s.Stencil)
	}
	if s.Nx < 1 || s.Nx > MaxDim {
		return fmt.Errorf("mfree: nx = %d outside [1, %d]", s.Nx, MaxDim)
	}
	if s.Ny < 1 || s.Ny > MaxDim {
		return fmt.Errorf("mfree: ny = %d outside [1, %d]", s.Ny, MaxDim)
	}
	if math.IsNaN(s.Center) || math.IsInf(s.Center, 0) || s.Center == 0 {
		return fmt.Errorf("mfree: center = %g must be finite and nonzero", s.Center)
	}
	if math.IsNaN(s.Off) || math.IsInf(s.Off, 0) {
		return fmt.Errorf("mfree: off = %g must be finite", s.Off)
	}
	return nil
}

// N returns the global point count.
func (s Spec) N() int {
	if s.Stencil == "5pt" {
		return s.Nx * s.Ny
	}
	return s.Nx * s.Ny * s.Nz
}

// Brick maps the grid onto np ranks as a grid.Brick3 z-slab
// decomposition. For 5pt the Nx grid rows become z-planes of Ny
// points each (Brick3.Index(x, 0, z) = z·Ny + x is exactly
// sparse.Laplace2D's idx(i, j) = i·ny + j with z = i, x = j), so the
// same slab geometry, vector distribution and neighbour structure
// serve both stencils.
func (s Spec) Brick(np int) (grid.Brick3, error) {
	if s.Stencil == "5pt" {
		return grid.NewBrick3(s.Ny, 1, s.Nx, np)
	}
	return grid.NewBrick3(s.Nx, s.Ny, s.Nz, np)
}

// NNZ returns the exact stored-entry count of the assembled form —
// analytic, the matrix is never materialized.
func (s Spec) NNZ() int {
	if s.Stencil == "5pt" {
		return 5*s.Nx*s.Ny - 2*s.Nx - 2*s.Ny
	}
	return (3*s.Nx - 2) * (3*s.Ny - 2) * (3*s.Nz - 2)
}

// Key is the canonical cache-key fragment: two specs with equal keys
// build identical operators at equal np. Coefficients are part of the
// key — they are the operator's values.
func (s Spec) Key() string {
	s = s.WithDefaults()
	if s.Stencil == "5pt" {
		return fmt.Sprintf("5pt:%dx%d:c%g:o%g", s.Nx, s.Ny, s.Center, s.Off)
	}
	return fmt.Sprintf("27pt:%dx%dx%d:c%g:o%g", s.Nx, s.Ny, s.Nz, s.Center, s.Off)
}

// ModelBytes estimates the resident size of a prepared matrix-free
// plan at np ranks: the two ghost-plane buffers per rank plus a small
// fixed descriptor — no row pointers, no column indices, no values.
// This is the registry's cache-pressure signal, and its smallness is
// the point: a cached stencil plan is ~10^3 times lighter than the
// assembled CSR plan for the same grid.
func (s Spec) ModelBytes(np int) int64 {
	b, err := s.Brick(np)
	if err != nil {
		return 0
	}
	const floatB = 8
	plane := int64(b.X) * int64(b.Y)
	return int64(np) * (2*plane*floatB + 256)
}

// Assemble materializes the assembled-CSR comparator: the exact
// matrix the matrix-free kernels evaluate, entry for entry. For the
// 5pt stencil with canonical coefficients the result is bit-identical
// to sparse.Laplace2D (same COO insertion and the same sorted-CSR
// conversion); for 27pt it reproduces internal/mg's level assembly
// values. Tests and the E25 experiment build the assembled arm from
// this single source.
func (s Spec) Assemble() (*sparse.CSR, error) {
	s = s.WithDefaults()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	n := s.N()
	coo := sparse.NewCOO(n, n)
	if s.Stencil == "5pt" {
		idx := func(i, j int) int { return i*s.Ny + j }
		for i := 0; i < s.Nx; i++ {
			for j := 0; j < s.Ny; j++ {
				g := idx(i, j)
				coo.Add(g, g, s.Center)
				if i > 0 {
					coo.Add(g, idx(i-1, j), s.Off)
				}
				if i < s.Nx-1 {
					coo.Add(g, idx(i+1, j), s.Off)
				}
				if j > 0 {
					coo.Add(g, idx(i, j-1), s.Off)
				}
				if j < s.Ny-1 {
					coo.Add(g, idx(i, j+1), s.Off)
				}
			}
		}
		return coo.ToCSR(), nil
	}
	b := grid.Brick3{X: s.Nx, Y: s.Ny, Z: s.Nz, Procs: 1}
	for z := 0; z < s.Nz; z++ {
		for y := 0; y < s.Ny; y++ {
			for x := 0; x < s.Nx; x++ {
				g := b.Index(x, y, z)
				for dz := -1; dz <= 1; dz++ {
					zz := z + dz
					if zz < 0 || zz >= s.Nz {
						continue
					}
					for dy := -1; dy <= 1; dy++ {
						yy := y + dy
						if yy < 0 || yy >= s.Ny {
							continue
						}
						for dx := -1; dx <= 1; dx++ {
							xx := x + dx
							if xx < 0 || xx >= s.Nx {
								continue
							}
							h := b.Index(xx, yy, zz)
							if h == g {
								coo.Add(g, h, s.Center)
							} else {
								coo.Add(g, h, s.Off)
							}
						}
					}
				}
			}
		}
	}
	return coo.ToCSR(), nil
}

// MulVec computes y = A·x sequentially from the stencil — the
// matrix-free reference apply. Terms accumulate in ascending global
// column order, so the result is bitwise equal to Assemble()'s
// CSR.MulVec; examples use it to form right-hand sides without
// assembling.
func (s Spec) MulVec(x, y []float64) {
	s = s.WithDefaults()
	n := s.N()
	if len(x) != n || len(y) != n {
		panic(fmt.Sprintf("mfree: MulVec lengths %d/%d != n=%d", len(x), len(y), n))
	}
	if s.Stencil == "5pt" {
		ny := s.Ny
		for i := 0; i < s.Nx; i++ {
			for j := 0; j < ny; j++ {
				g := i*ny + j
				var acc float64
				if i > 0 {
					acc += s.Off * x[g-ny]
				}
				if j > 0 {
					acc += s.Off * x[g-1]
				}
				acc += s.Center * x[g]
				if j < ny-1 {
					acc += s.Off * x[g+1]
				}
				if i < s.Nx-1 {
					acc += s.Off * x[g+ny]
				}
				y[g] = acc
			}
		}
		return
	}
	b := grid.Brick3{X: s.Nx, Y: s.Ny, Z: s.Nz, Procs: 1}
	for z := 0; z < s.Nz; z++ {
		for yy := 0; yy < s.Ny; yy++ {
			for xx := 0; xx < s.Nx; xx++ {
				g := b.Index(xx, yy, z)
				var acc float64
				for dz := -1; dz <= 1; dz++ {
					cz := z + dz
					if cz < 0 || cz >= s.Nz {
						continue
					}
					for dy := -1; dy <= 1; dy++ {
						cy := yy + dy
						if cy < 0 || cy >= s.Ny {
							continue
						}
						for dx := -1; dx <= 1; dx++ {
							cx := xx + dx
							if cx < 0 || cx >= s.Nx {
								continue
							}
							v := s.Off
							if dz == 0 && dy == 0 && dx == 0 {
								v = s.Center
							}
							acc += v * x[b.Index(cx, cy, cz)]
						}
					}
				}
				y[g] = acc
			}
		}
	}
}
