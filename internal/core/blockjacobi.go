package core

import (
	"errors"
	"fmt"

	"hpfcg/internal/comm"
	"hpfcg/internal/darray"
	"hpfcg/internal/dist"
	"hpfcg/internal/seq"
	"hpfcg/internal/sparse"
)

// BlockJacobi is the block-diagonal preconditioner: each processor
// factors its own diagonal block A[lo:hi, lo:hi] with a sequential
// preconditioner (IC(0) by default) and applies it locally — no
// communication at all, like point Jacobi, but far stronger because
// all intra-block coupling is captured. It is the natural way to use
// the paper's §2 preconditioning observation on the distributed
// machine: the preconditioner inherits the owner-computes alignment of
// the vectors.
type BlockJacobi struct {
	p     *comm.Proc
	local seq.Preconditioner
	count int
}

// NewBlockJacobi extracts this processor's diagonal block of A under
// the contiguous distribution d and builds the named local
// preconditioner ("ic0", "ssor", "jacobi"). Like NewJacobi, failure is
// collective: if any block fails to factor, every processor returns an
// error naming the lowest failing processor, and that processor's error
// also carries its local factorisation's cause.
func NewBlockJacobi(p *comm.Proc, A *sparse.CSR, d dist.Contiguous, local string) (*BlockJacobi, error) {
	r := p.Rank()
	lo := d.Lo(r)
	count := d.Count(r)

	// Extract the diagonal block as a standalone CSR.
	coo := sparse.NewCOO(max(count, 1), max(count, 1))
	for i := 0; i < count; i++ {
		cols, vals := A.Row(lo + i)
		for k, j := range cols {
			if j >= lo && j < lo+count {
				coo.Add(i, j-lo, vals[k])
			}
		}
	}
	if count == 0 {
		// Degenerate empty block (an empty processor under an irregular
		// distribution): identity placeholder.
		coo.Add(0, 0, 1)
	}
	block := coo.ToCSR()

	M, err := seq.ByName(local, block)
	first := p.NP() // lowest rank whose block failed; NP when none did
	if err != nil {
		first = r
	}
	if bad := int(p.AllreduceScalar(float64(first), comm.OpMin)); bad < p.NP() {
		msg := fmt.Sprintf("core: block-Jacobi local factorisation failed on processor %d (local %q)", bad, local)
		if bad == r {
			return nil, fmt.Errorf("%s: %w", msg, err)
		}
		return nil, errors.New(msg)
	}
	return &BlockJacobi{p: p, local: M, count: count}, nil
}

// Apply implements Preconditioner: a purely local block solve.
func (b *BlockJacobi) Apply(r, z *darray.Vector) {
	rl, zl := r.Local(), z.Local()
	if len(rl) != b.count {
		panic(fmt.Sprintf("core: block-Jacobi block %d applied to vector block %d", b.count, len(rl)))
	}
	if b.count == 0 {
		return
	}
	b.local.Apply(rl, zl)
	// Charge roughly two flops per block nonzero; the triangular solves
	// of IC(0)/SSOR touch each stored entry once each way. We
	// approximate with 4x the block length as a lower bound when the
	// local preconditioner does not expose its nnz.
	b.p.Compute(4 * b.count)
}

// Name implements Preconditioner.
func (b *BlockJacobi) Name() string { return "block-jacobi(" + b.local.Name() + ")" }
