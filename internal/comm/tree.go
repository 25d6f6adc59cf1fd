package comm

import "fmt"

// Group is a static subset of the machine's processors over which
// collectives can run — the processor rows and columns of a 2-D grid
// (HPF PROCESSORS P(R,C)) are the motivating case. All members must
// create the group with the same rank list and call its collectives in
// the same order; the machine-wide collective sequence numbers must
// stay aligned across *all* processors, which holds when every
// processor performs the same sequence of (group or global) collective
// calls — the SPMD discipline the rest of the runtime already assumes.
//
// Member 0 is the root of the group's binomial tree. A Group with no
// rank list is the whole machine, member i being rank i: the one tree
// the machine-wide allreduce runs on, built without a list.
type Group struct {
	ranks []int // nil: the whole machine
	me    int   // index of this processor within ranks
}

// NewGroup creates the calling processor's view of a group. ranks must
// list distinct machine ranks and include the caller.
func NewGroup(p *Proc, ranks []int) Group {
	me := -1
	seen := make(map[int]bool, len(ranks))
	for i, r := range ranks {
		if r < 0 || r >= p.m.np {
			panic(fmt.Sprintf("comm: group rank %d out of range", r))
		}
		if seen[r] {
			panic(fmt.Sprintf("comm: duplicate group rank %d", r))
		}
		seen[r] = true
		if r == p.rank {
			me = i
		}
	}
	if me < 0 {
		panic(fmt.Sprintf("comm: rank %d not a member of group %v", p.rank, ranks))
	}
	rs := make([]int, len(ranks))
	copy(rs, ranks)
	return Group{ranks: rs, me: me}
}

// BcastFloats broadcasts member 0's x to every group member over the
// binomial tree and returns it; x is ignored on the other members.
func (g Group) BcastFloats(p *Proc, x []float64) []float64 {
	if g.me != 0 {
		x = nil
	}
	return p.bcastTree(g, x, "group-bcast")
}

// ReduceSumFloats sums x element-wise onto member 0 over the binomial
// tree. Member 0 returns the total in a new slice; the others return
// nil.
func (g Group) ReduceSumFloats(p *Proc, x []float64) []float64 {
	acc := make([]float64, len(x))
	copy(acc, x)
	p.reduceTree(g, acc, OpSum, "group-reduce")
	if g.me != 0 {
		return nil
	}
	return acc
}

// members returns the number of members of g on p's machine.
func (g Group) members(p *Proc) int {
	if g.ranks == nil {
		return p.m.np
	}
	return len(g.ranks)
}

// rank returns the machine rank of member i.
func (g Group) rank(i int) int {
	if g.ranks == nil {
		return i
	}
	return g.ranks[i]
}

// reduceTree is the one binomial-tree reduce: it combines acc onto
// member 0 of g in place, in ceil(log2 n) rounds. In round mask a
// member with that bit set sends its partial to member^mask and leaves;
// any other combines what member|mask sends and charges one flop per
// word. Members other than 0 are left holding a partial result. Every
// message is a pool-owned copy, so the steady state allocates nothing.
func (p *Proc) reduceTree(g Group, acc []float64, op ReduceOp, span string) {
	defer p.collEnd(span, p.clock)
	tag := p.nextTag(opReduce)
	n := g.members(p)
	for mask := 1; mask < n; mask <<= 1 {
		if g.me&mask != 0 {
			out := p.GetBuf(len(acc))
			copy(out, acc)
			p.Send(g.rank(g.me^mask), tag, Payload{Floats: out})
			return
		}
		if g.me|mask < n {
			in := p.Recv(g.rank(g.me|mask), tag).Floats
			op.combine(acc, in)
			p.Compute(len(acc))
			p.PutBuf(in)
		}
	}
}

// bcastTree is the one binomial-tree broadcast: member 0's x reaches
// every member of g in ceil(log2 n) message steps, the t_s·log NP of
// §4. A member receives once, from itself with its lowest set bit
// cleared, then forwards to itself plus each lower power of two,
// largest first. A member whose x has the message's length receives in
// place; any other gets a new slice. Every message is a pool-owned copy.
func (p *Proc) bcastTree(g Group, x []float64, span string) []float64 {
	defer p.collEnd(span, p.clock)
	tag := p.nextTag(opBcast)
	n := g.members(p)
	mask := 1
	for ; mask < n; mask <<= 1 {
		if g.me&mask != 0 {
			in := p.Recv(g.rank(g.me^mask), tag).Floats
			if len(in) == len(x) {
				copy(x, in)
				p.PutBuf(in)
			} else {
				x = in
			}
			break
		}
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if g.me+mask < n {
			out := p.GetBuf(len(x))
			copy(out, x)
			p.Send(g.rank(g.me+mask), tag, Payload{Floats: out})
		}
	}
	return x
}
