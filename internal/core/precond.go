package core

import (
	"fmt"
	"math"

	"hpfcg/internal/comm"
	"hpfcg/internal/darray"
	"hpfcg/internal/dist"
	"hpfcg/internal/sparse"
)

// Preconditioner approximates z = M⁻¹·r on distributed vectors.
type Preconditioner interface {
	// Apply computes z = M⁻¹·r; r and z must be aligned.
	Apply(r, z *darray.Vector)
}

// Identity is the no-op preconditioner.
type Identity struct{}

// Apply implements Preconditioner.
func (Identity) Apply(r, z *darray.Vector) { z.CopyFrom(r) }

// Jacobi is distributed diagonal scaling. Because the diagonal is
// aligned with the vectors, the application is purely local — the only
// preconditioner the paper's alignment scheme supports without extra
// communication. It charges through the vectors' processor handle and
// holds none itself.
type Jacobi struct {
	invDiag []float64 // local block of 1/diag(A)
}

// NewJacobi extracts this processor's block of the reciprocal diagonal
// of A under the vector distribution d. The validity check is
// collective: if any processor finds a zero diagonal entry, every
// processor returns the error, keeping SPMD control flow aligned.
func NewJacobi(p *comm.Proc, A *sparse.CSR, d dist.Dist) (*Jacobi, error) {
	r := p.Rank()
	inv := make([]float64, d.Count(r))
	firstBad := -1
	for off := range inv {
		g := d.Global(r, off)
		v := A.At(g, g)
		if v == 0 {
			if firstBad < 0 {
				firstBad = g
			}
			continue
		}
		inv[off] = 1 / v
	}
	bad := math.Inf(1)
	if firstBad >= 0 {
		bad = float64(firstBad)
	}
	if worst := p.AllreduceScalar(bad, comm.OpMin); !math.IsInf(worst, 1) {
		return nil, fmt.Errorf("core: zero diagonal at %d, Jacobi undefined", int(worst))
	}
	return &Jacobi{invDiag: inv}, nil
}

// Apply implements Preconditioner: a local element-wise product.
func (j *Jacobi) Apply(r, z *darray.Vector) {
	rl, zl := r.Local(), z.Local()
	if len(rl) != len(j.invDiag) {
		panic(fmt.Sprintf("core: Jacobi block %d applied to vector block %d", len(j.invDiag), len(rl)))
	}
	for i := range rl {
		zl[i] = rl[i] * j.invDiag[i]
	}
	r.Proc().Compute(len(rl))
}
