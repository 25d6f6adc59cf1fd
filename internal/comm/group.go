package comm

import "fmt"

// AlltoallVInts is AlltoallV for int payloads (used by the
// inspector-executor schedule construction, where processors exchange
// the index lists they need from each other).
func (p *Proc) AlltoallVInts(segments [][]int) [][]int {
	defer p.collEnd("alltoallv-ints", p.clock)
	tag := p.nextTag(opAlltoall)
	np := p.m.np
	if len(segments) != np {
		panic(fmt.Sprintf("comm: AlltoallVInts needs %d segments, got %d", np, len(segments)))
	}
	out := make([][]int, np)
	own := make([]int, len(segments[p.rank]))
	copy(own, segments[p.rank])
	out[p.rank] = own
	for off := 1; off < np; off++ {
		dst := (p.rank + off) % np
		p.Send(dst, tag, Payload{Ints: segments[dst]})
	}
	for off := 1; off < np; off++ {
		src := (p.rank - off + np) % np
		out[src] = p.Recv(src, tag).Ints
	}
	return out
}

// Group is a static subset of the machine's processors over which
// collectives can run — the processor rows and columns of a 2-D grid
// (HPF PROCESSORS P(R,C)) are the motivating case. All members must
// create the group with the same rank list and call its collectives in
// the same order; the machine-wide collective sequence numbers must
// stay aligned across *all* processors, which holds when every
// processor performs the same sequence of (group or global) collective
// calls — the SPMD discipline the rest of the runtime already assumes.
type Group struct {
	ranks []int
	me    int // index of this processor within ranks
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

// Size returns the number of group members.
func (g Group) Size() int { return len(g.ranks) }

// Index returns the caller's index within the group.
func (g Group) Index() int { return g.me }

// BcastFloats broadcasts x from the member with index rootIdx to every
// group member using a binomial tree within the group.
func (g Group) BcastFloats(p *Proc, rootIdx int, x []float64) []float64 {
	defer p.collEnd("group-bcast", p.clock)
	tag := p.nextTag(opBcast)
	n := len(g.ranks)
	if rootIdx < 0 || rootIdx >= n {
		panic(fmt.Sprintf("comm: group bcast invalid root index %d", rootIdx))
	}
	if n == 1 {
		return x
	}
	rel := (g.me - rootIdx + n) % n
	mask := 1
	for mask < n {
		if rel&mask != 0 {
			src := ((rel ^ mask) + rootIdx) % n
			x = p.Recv(g.ranks[src], tag).Floats
			break
		}
		mask <<= 1
	}
	if rel == 0 {
		mask = 1
		for mask < n {
			mask <<= 1
		}
	}
	mask >>= 1
	for mask > 0 {
		if rel+mask < n {
			dst := (rel + mask + rootIdx) % n
			p.Send(g.ranks[dst], tag, Payload{Floats: x})
		}
		mask >>= 1
	}
	return x
}

// ReduceSumFloats combines x element-wise (sum) onto the member with
// index rootIdx, which receives the total; other members return nil.
func (g Group) ReduceSumFloats(p *Proc, rootIdx int, x []float64) []float64 {
	defer p.collEnd("group-reduce", p.clock)
	tag := p.nextTag(opReduce)
	n := len(g.ranks)
	if rootIdx < 0 || rootIdx >= n {
		panic(fmt.Sprintf("comm: group reduce invalid root index %d", rootIdx))
	}
	acc := make([]float64, len(x))
	copy(acc, x)
	if n == 1 {
		return acc
	}
	rel := (g.me - rootIdx + n) % n
	for mask := 1; mask < n; mask <<= 1 {
		if rel&mask != 0 {
			dst := ((rel ^ mask) + rootIdx) % n
			p.Send(g.ranks[dst], tag, Payload{Floats: acc})
			return nil
		}
		if rel|mask < n {
			src := ((rel | mask) + rootIdx) % n
			in := p.Recv(g.ranks[src], tag).Floats
			OpSum.combine(acc, in)
			p.Compute(len(acc))
		}
	}
	return acc
}
