// Per-rank multigrid level. Every level is the same 27-point 26 / -1
// stencil on a brick, so nothing about it is stored: the operator,
// residual and smoother are internal/mfree's row-sliced kernels over its
// geometric plane halo, and injection and its transpose are index
// arithmetic between two bricks. A level is its brick, that operator and
// the V-cycle's scratch vectors.
package mg

import (
	"hpfcg/internal/comm"
	"hpfcg/internal/grid"
	"hpfcg/internal/mfree"
)

// tagTransfer carries the one plane a misaligned slab split moves
// between neighbours in restriction and prolongation.
const tagTransfer = 204

// level is one grid of the hierarchy as rank r sees it. Construction is
// local (the halo and the transfers are known from brick coordinates);
// afterwards every operation is a plane exchange plus local sweeps on
// preallocated buffers, so the steady state allocates nothing.
type level struct {
	b        grid.Brick3
	op       *mfree.Operator
	zlo, zhi int // owned z-planes
	n        int // owned point count

	// V-cycle scratch: the restricted right-hand side and the correction
	// on this level (coarse levels), and the residual restricted from
	// here (every level but the coarsest).
	r, x, res []float64

	// Transfer to and from the next-finer level. Coarse point (x, y, z)
	// injects from fine point (2x, 2y, 2z). dist.Block cuts both levels'
	// planes at ⌊r·Z/np⌋, so the fine plane 2k of an owned coarse plane k
	// is local except possibly for the rank's first coarse plane, whose
	// source is then the last fine plane of rank r-1 (fedLow); feedsHigh
	// says rank r+1 is in that position towards this rank. Prolongation
	// moves the same plane the other way.
	fedLow, feedsHigh bool
}

// newLevel builds rank p's piece of brick b; f is the next-finer level,
// nil on the finest.
func newLevel(p *comm.Proc, b grid.Brick3, f *level) *level {
	r := p.Rank()
	lv := &level{b: b, op: mfree.New27(p, b)}
	lv.zlo, lv.zhi = b.ZRange(r)
	lv.n = (lv.zhi - lv.zlo) * b.X * b.Y
	if f != nil {
		lv.r = make([]float64, lv.n)
		lv.x = make([]float64, lv.n)
		lv.fedLow = 2*lv.zlo < f.zlo
		if r+1 < b.Procs {
			clo, _ := b.ZRange(r + 1)
			lv.feedsHigh = 2*clo < f.zhi
		}
	}
	return lv
}

// restrictFrom injects the fine residual into this level's right-hand
// side scratch: r_c(x, y, z) = res_f(2x, 2y, 2z).
func (lv *level) restrictFrom(p *comm.Proc, f *level, fineRes []float64) {
	cp, fp := lv.b.X*lv.b.Y, f.b.X*f.b.Y
	if lv.feedsHigh {
		buf := p.GetBuf(cp)
		lv.inject(buf, fineRes[f.n-fp:], f.b.X)
		p.SendFloats(p.Rank()+1, tagTransfer, buf)
	}
	k := lv.zlo
	if lv.fedLow {
		part := p.RecvFloats(p.Rank()-1, tagTransfer)
		copy(lv.r[:cp], part)
		p.PutBuf(part)
		k++
	}
	for ; k < lv.zhi; k++ {
		lv.inject(lv.r[(k-lv.zlo)*cp:][:cp], fineRes[(2*k-f.zlo)*fp:], f.b.X)
	}
	p.Compute(lv.n)
}

// inject copies the all-even points of one fine plane into a coarse
// plane.
func (lv *level) inject(coarse, fine []float64, fX int) {
	cX := lv.b.X
	for y := 0; y < lv.b.Y; y++ {
		src, dst := fine[2*y*fX:], coarse[y*cX:][:cX]
		for x := range dst {
			dst[x] = src[2*x]
		}
	}
}

// prolongInto adds this level's correction back to the fine vector at
// the all-even-coordinate points (the transpose of injection).
func (lv *level) prolongInto(p *comm.Proc, f *level, fineX []float64) {
	cp, fp := lv.b.X*lv.b.Y, f.b.X*f.b.Y
	planes := lv.zhi - lv.zlo
	k := lv.zlo
	if lv.fedLow {
		buf := p.GetBuf(cp)
		copy(buf, lv.x[:cp])
		p.SendFloats(p.Rank()-1, tagTransfer, buf)
		planes--
		k++
	}
	if lv.feedsHigh {
		part := p.RecvFloats(p.Rank()+1, tagTransfer)
		lv.spread(fineX[f.n-fp:], part, f.b.X)
		p.PutBuf(part)
		planes++
	}
	for ; k < lv.zhi; k++ {
		lv.spread(fineX[(2*k-f.zlo)*fp:], lv.x[(k-lv.zlo)*cp:][:cp], f.b.X)
	}
	p.Compute(planes * cp)
}

// spread adds one coarse plane into the all-even points of a fine plane.
func (lv *level) spread(fine, coarse []float64, fX int) {
	cX := lv.b.X
	for y := 0; y < lv.b.Y; y++ {
		dst, src := fine[2*y*fX:], coarse[y*cX:][:cX]
		for x, v := range src {
			dst[2*x] += v
		}
	}
}
