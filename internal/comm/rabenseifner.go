// Rabenseifner's allreduce: recursive-halving reduce-scatter followed
// by recursive-doubling allgather. The binomial tree the runtime has
// always used moves the whole vector up and down the tree — 2·log NP
// startups and 2·n·log NP words. Rabenseifner's algorithm pays the
// same 2·log NP startups but only 2·n·(NP-1)/NP words, which makes it
// the bandwidth-optimal choice for long vectors (it is what MPICH and
// Open MPI select for large allreduces). For scalars the byte term is
// noise and the tree is kept; AlgoAuto picks per call from the
// modeled-cost closed forms in package topology.
package comm

import "hpfcg/internal/topology"

// AllreduceAlgo selects the allreduce algorithm.
type AllreduceAlgo int

const (
	// AlgoAuto picks by comparing the modeled-cost closed forms of the
	// two algorithms for the machine's topology and cost parameters
	// (tree is pinned below rabenseifnerMinWords).
	AlgoAuto AllreduceAlgo = iota
	// AlgoTree is the binomial-tree reduce-to-0 + broadcast.
	AlgoTree
	// AlgoRecursive is Rabenseifner's reduce-scatter + allgather.
	AlgoRecursive
)

// String implements fmt.Stringer.
func (a AllreduceAlgo) String() string {
	switch a {
	case AlgoAuto:
		return "auto"
	case AlgoTree:
		return "tree"
	case AlgoRecursive:
		return "recursive"
	}
	return "unknown"
}

// rabenseifnerMinWords pins the tree algorithm below this vector
// length. On a power-of-two machine both algorithms pay the same
// 2·log NP startups, so the modeled closed forms would pick the
// recursive algorithm even for one word; for such tiny messages the
// byte term is far below the startup noise and the simpler tree (whose
// schedule every scalar-merge result in EXPERIMENTS.md was produced
// with) is kept.
const rabenseifnerMinWords = 16

// chooseAllreduceAlgo resolves AlgoAuto from the modeled-cost closed
// forms. All ranks see the same inputs, so the choice is SPMD-safe.
func (p *Proc) chooseAllreduceAlgo(words int) AllreduceAlgo {
	if p.m.np == 1 || words < rabenseifnerMinWords {
		return AlgoTree
	}
	rec := topology.RabenseifnerAllreduceTime(p.m.topo, p.m.cost, p.m.np, words)
	tree := topology.AllreduceTime(p.m.topo, p.m.cost, p.m.np, words)
	if rec < tree {
		return AlgoRecursive
	}
	return AlgoTree
}

// AllreduceWith combines x element-wise across all processors and
// returns the result on every rank, by the algorithm algo selects:
// binomial tree (reduce to rank 0, then broadcast) or Rabenseifner's
// reduce-scatter + allgather, or AlgoAuto to pick by modeled cost. The
// two algorithms produce bit-identical results for exact data (the
// reduction operators are commutative and associative; floating-point
// summation order differs between them, as it does between NP counts).
func (p *Proc) AllreduceWith(x []float64, op ReduceOp, algo AllreduceAlgo) []float64 {
	out := make([]float64, len(x))
	copy(out, x)
	p.AllreduceInPlace(out, op, algo)
	return out
}

// AllreduceInPlace combines x element-wise across all processors in
// place using the selected algorithm. This is the allocation-free form:
// with a pooled machine in steady state neither algorithm allocates.
func (p *Proc) AllreduceInPlace(x []float64, op ReduceOp, algo AllreduceAlgo) {
	if algo == AlgoAuto {
		algo = p.chooseAllreduceAlgo(len(x))
	}
	if algo == AlgoRecursive {
		defer p.collEnd("allreduce", p.clock)
		p.allreduceRabenseifner(x, op)
		return
	}
	p.AllreduceScalars(x, op)
}

// allreduceRabenseifner runs the recursive-halving reduce-scatter +
// recursive-doubling allgather in place. Non-power-of-two NP uses the
// MPICH fold: with r = NP - 2^floor(log2 NP), the first 2r ranks pair
// up, each odd rank folds its vector into its even neighbour and sits
// out, and the remaining power-of-two group runs the recursive
// algorithm; folded-out ranks receive the finished result at the end.
func (p *Proc) allreduceRabenseifner(x []float64, op ReduceOp) {
	np := p.m.np
	// Tag sequence numbers must advance identically on every rank, so
	// draw all four phase tags before any rank can return early.
	tagFold := p.nextTag(opReduce)
	tagRS := p.nextTag(opReduce)
	tagAG := p.nextTag(opAllgather)
	tagOut := p.nextTag(opBcast)
	if np == 1 {
		return
	}

	pof2 := 1
	for pof2*2 <= np {
		pof2 *= 2
	}
	rem := np - pof2

	newRank := -1
	if p.rank < 2*rem {
		if p.rank%2 != 0 {
			// Odd fold rank: contribute the whole vector, wait for the
			// result.
			out := p.GetBuf(len(x))
			copy(out, x)
			p.Send(p.rank-1, tagFold, Payload{Floats: out})
			in := p.Recv(p.rank-1, tagOut).Floats
			copy(x, in)
			p.PutBuf(in)
			return
		}
		in := p.Recv(p.rank+1, tagFold).Floats
		op.combine(x, in)
		p.Compute(len(x))
		p.PutBuf(in)
		newRank = p.rank / 2
	} else {
		newRank = p.rank - rem
	}
	// realRank inverts the fold renumbering for the active group.
	realRank := func(nr int) int {
		if nr < rem {
			return nr * 2
		}
		return nr + rem
	}

	// Block decomposition of x over the pof2 active ranks (first n%pof2
	// blocks one element longer).
	offs := p.getIntBuf(pof2 + 1)
	base, extra := len(x)/pof2, len(x)%pof2
	offs[0] = 0
	for i := 0; i < pof2; i++ {
		blk := base
		if i < extra {
			blk++
		}
		offs[i+1] = offs[i] + blk
	}

	// Recursive halving reduce-scatter: at each step exchange the half
	// of the current range the partner is responsible for; afterwards
	// this rank holds the fully reduced block [lo, lo+1) == [newRank,
	// newRank+1).
	rsStart := p.clock
	lo, hi := 0, pof2
	for dist := pof2 / 2; dist >= 1; dist /= 2 {
		partner := realRank(newRank ^ dist)
		mid := lo + (hi-lo)/2
		sendLo, sendHi := mid, hi
		if newRank&dist != 0 {
			sendLo, sendHi = lo, mid
		}
		out := p.GetBuf(offs[sendHi] - offs[sendLo])
		copy(out, x[offs[sendLo]:offs[sendHi]])
		p.Send(partner, tagRS, Payload{Floats: out})
		if newRank&dist == 0 {
			hi = mid
		} else {
			lo = mid
		}
		in := p.Recv(partner, tagRS).Floats
		op.combine(x[offs[lo]:offs[hi]], in)
		p.Compute(offs[hi] - offs[lo])
		p.PutBuf(in)
	}
	p.collEnd("reduce-scatter", rsStart)

	// Recursive doubling allgather: retrace the halving in reverse,
	// doubling the owned range each step.
	agStart := p.clock
	for dist := 1; dist < pof2; dist *= 2 {
		partner := realRank(newRank ^ dist)
		out := p.GetBuf(offs[hi] - offs[lo])
		copy(out, x[offs[lo]:offs[hi]])
		p.Send(partner, tagAG, Payload{Floats: out})
		in := p.Recv(partner, tagAG).Floats
		span := hi - lo
		if newRank&dist == 0 {
			copy(x[offs[hi]:offs[hi+span]], in)
			hi += span
		} else {
			copy(x[offs[lo-span]:offs[lo]], in)
			lo -= span
		}
		p.PutBuf(in)
	}
	p.collEnd("allgatherv", agStart)
	p.putIntBuf(offs)

	if p.rank < 2*rem {
		out := p.GetBuf(len(x))
		copy(out, x)
		p.Send(p.rank+1, tagOut, Payload{Floats: out})
	}
}
