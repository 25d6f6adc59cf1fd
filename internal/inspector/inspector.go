// Package inspector implements the inspector-executor mechanism the
// paper invokes for irregular accesses (§5.1, refs [15], [19], [20]):
// a one-time *inspector* pass analyses which remote array elements an
// indirect access pattern touches and builds a communication schedule;
// the *executor* then reuses that schedule every iteration, exchanging
// only the needed "ghost" elements instead of broadcasting the whole
// vector.
//
// For the row-block sparse matrix-vector product this is the
// alternative to Scenario 1's all-to-all broadcast: processor r needs
// x(col(k)) only for the column indices appearing in its rows, which
// for banded and mesh matrices is a thin halo. The paper notes
// inspectors are "costly in nature" — the cost is paid once here and
// amortised by schedule reuse across CG iterations ("communication
// schedule reuse", ref [20]); experiment E14 quantifies both sides.
//
// A pattern that needs no inspection — a stencil's boundary planes,
// known to both sides from the grid geometry — builds the same Schedule
// with FromLists and no communication. Either way ExchangeBlock is the
// one executor loop; Exchange is its one-vector case. ReverseExchange
// runs the same schedule backwards: the ghost slots hold partial sums
// that go back to their owners — the sparse MERGE(+) of a PRIVATE
// accumulator whose writes follow the inspected pattern.
package inspector

import (
	"fmt"
	"slices"

	"hpfcg/internal/comm"
	"hpfcg/internal/dist"
)

// Schedule is a reusable communication plan for gathering a set of
// remote elements of a distributed vector. It holds the processor it
// was built on, which is its rank's in every run of that machine, so a
// cached schedule serves a later run without the inspector's exchange.
type Schedule struct {
	p *comm.Proc
	// nloc is the length of the local block every exchanged vector must
	// have.
	nloc int

	// ghostOf maps a needed remote global index to its slot in the
	// ghost buffer (dense positions 0..nGhost-1, sorted by global). A
	// schedule built by FromLists has none: its ghosts are addressed by
	// position.
	ghostOf map[int]int
	// recvCount[src] ghosts arrive from src; they are stored
	// contiguously from recvStart[src], sources in ascending order.
	recvCount []int
	recvStart []int
	// sendTo[dst] lists the local offsets this processor must send to
	// dst, in the order dst expects them.
	sendTo [][]int

	nGhost int
	// ghosts are the reusable receive buffers ExchangeBlock returns, one
	// per exchanged vector: the first is allocated with the schedule,
	// more on the first block that needs them, so the executor steady
	// state allocates nothing.
	ghosts [][]float64
	// one is the one-vector block Exchange hands to ExchangeBlock.
	one [1][]float64
}

// FromLists builds the schedule of a traffic pattern both sides already
// know, with no communication at all: sendTo[dst] lists the offsets into
// the nloc-element local block that go to dst, in the order dst stores
// them, and recvCount[src] says how many ghosts arrive from src. Ghosts
// are laid out by ascending source, each source's run in its send order.
// Each rank passes its own lists; they must agree with its partners'
// (what rank a sends to b is what b expects from a).
func FromLists(p *comm.Proc, nloc int, sendTo [][]int, recvCount []int) *Schedule {
	np := p.NP()
	if len(sendTo) != np || len(recvCount) != np {
		panic(fmt.Sprintf("inspector: %d send and %d receive lists on a %d-processor machine", len(sendTo), len(recvCount), np))
	}
	s := &Schedule{
		p:         p,
		nloc:      nloc,
		recvCount: recvCount,
		recvStart: make([]int, np+1),
		sendTo:    sendTo,
	}
	for src, c := range recvCount {
		s.recvStart[src+1] = s.recvStart[src] + c
	}
	s.nGhost = s.recvStart[np]
	s.ghosts = [][]float64{make([]float64, s.nGhost)}
	return s
}

// Build runs the inspector: needs lists the global indices the caller
// will read (duplicates allowed, own elements ignored), d is the
// vector's distribution. Build is collective — every processor must
// call it, with its own needs.
func Build(p *comm.Proc, d dist.Dist, needs []int) *Schedule {
	np, r := p.NP(), p.Rank()

	// Unique, sorted remote indices: sorting brings duplicates together.
	// The CSR halo executor passes its ghosts sorted already, which the
	// sort finishes in one linear pass. A contiguous layout owns one
	// range [lo, hi), so telling an owned index costs two compares;
	// any other layout asks Owner.
	n := d.N()
	c, contiguous := d.(dist.Contiguous)
	lo, hi := 0, 0
	if contiguous {
		lo = c.Lo(r)
		hi = lo + c.Count(r)
	}
	remote := make([]int, 0, len(needs))
	for _, g := range needs {
		if g < 0 || g >= n {
			panic(fmt.Sprintf("inspector: needed index %d outside [0,%d)", g, n))
		}
		if contiguous {
			if lo <= g && g < hi {
				continue
			}
		} else if d.Owner(g) == r {
			continue
		}
		remote = append(remote, g)
	}
	slices.Sort(remote)
	remote = slices.Compact(remote)

	// Group requests by owner; remote is sorted so each owner's request
	// list is sorted too, and ghost slots are assigned in global order
	// grouped by owner (which is the order values will arrive).
	requests := make([][]int, np)
	recvCount := make([]int, np)
	for _, g := range remote {
		src := d.Owner(g)
		requests[src] = append(requests[src], g)
		recvCount[src]++
	}

	// The request exchange: each owner learns which of its elements
	// every other processor wants, translated to local offsets (its own
	// request list is empty: remote holds no owned index).
	wanted := p.AlltoallVInts(requests)
	sendTo := make([][]int, np)
	for dst, want := range wanted {
		offs := make([]int, len(want))
		for i, g := range want {
			owner, off := d.Local(g)
			if owner != r {
				panic(fmt.Sprintf("inspector: rank %d asked rank %d for element %d owned by %d", dst, r, g, owner))
			}
			offs[i] = off
		}
		sendTo[dst] = offs
	}

	s := FromLists(p, d.Count(r), sendTo, recvCount)
	s.ghostOf = make(map[int]int, len(remote))
	for src, req := range requests {
		for i, g := range req {
			s.ghostOf[g] = s.recvStart[src] + i
		}
	}
	return s
}

// NGhosts returns how many remote elements the schedule fetches.
func (s *Schedule) NGhosts() int { return s.nGhost }

// GhostSlot returns the ghost-buffer slot of a remote global index,
// panicking if the index was not declared to Build.
func (s *Schedule) GhostSlot(g int) int {
	slot, ok := s.ghostOf[g]
	if !ok {
		panic(fmt.Sprintf("inspector: index %d not in schedule", g))
	}
	return slot
}

// tagGhost is the point-to-point tag of executor traffic, single and
// block alike, and tagReverse that of the reverse executor. Messages
// between a pair are FIFO and every processor runs its exchanges in the
// same order, so repeated exchanges stay matched.
const (
	tagGhost   = 202
	tagReverse = 203
)

// Exchange runs the executor on one vector: given the local block of the
// distributed vector, it sends the locally-owned elements other
// processors need and returns the ghost buffer with the remote elements
// this processor needs (indexed by GhostSlot). Unlike the Scenario 1
// broadcast, only processor pairs that actually share halo elements
// exchange messages. Collective (in the sense that every processor must
// call it); reusable any number of times — the schedule-reuse of ref
// [20]. It is ExchangeBlock of a one-vector block, so the returned slice
// is the schedule's own buffer, valid until the next exchange, and the
// steady state allocates nothing.
func (s *Schedule) Exchange(local []float64) []float64 {
	s.one[0] = local
	ghosts := s.ExchangeBlock(s.one[:])[0]
	s.one[0] = nil
	return ghosts
}

// ZeroGhosts sets the ghost buffer Exchange returns to +0.0 and returns
// it: what Exchange of an all-+0.0 local block would return, with no
// message sent and nothing charged. Valid until the next exchange.
func (s *Schedule) ZeroGhosts() []float64 {
	clear(s.ghosts[0])
	return s.ghosts[0]
}

// ExchangeBlock is the executor for a block of vectors sharing this
// schedule: the halos of all k vectors travel in ONE message per
// neighbour pair (k·count packed words, vector-major) instead of k
// messages, so a matrix-powers kernel that widens the schedule to the
// s-level reachability closure pays a single startup per neighbour per
// basis block. Sends go in ascending destination order, receives in
// (r-off+np)%np order. Returned slice v holds vector v's ghosts, indexed
// by GhostSlot; the buffers are the schedule's own, valid until the next
// exchange. Collective, like Exchange; sends draw on the processor's
// buffer pool and received messages are recycled into it, so after the
// first call with a given k the steady state allocates nothing.
func (s *Schedule) ExchangeBlock(locals [][]float64) [][]float64 {
	k := len(locals)
	for _, lv := range locals {
		if len(lv) != s.nloc {
			panic(fmt.Sprintf("inspector: exchange of %d elements, rank owns %d", len(lv), s.nloc))
		}
	}
	for len(s.ghosts) < k {
		s.ghosts = append(s.ghosts, make([]float64, s.nGhost))
	}
	np, r := s.p.NP(), s.p.Rank()
	for dst, offs := range s.sendTo {
		if len(offs) == 0 {
			continue
		}
		buf := s.p.GetBuf(k * len(offs))
		pos := 0
		for _, lv := range locals {
			for _, off := range offs {
				buf[pos] = lv[off]
				pos++
			}
		}
		s.p.SendFloats(dst, tagGhost, buf)
	}
	for off := 1; off < np; off++ {
		src := (r - off + np) % np
		cnt := s.recvCount[src]
		if cnt == 0 {
			continue
		}
		part := s.p.RecvFloats(src, tagGhost)
		if len(part) != k*cnt {
			panic(fmt.Sprintf("inspector: expected %d ghosts from %d, got %d", k*cnt, src, len(part)))
		}
		for v := 0; v < k; v++ {
			copy(s.ghosts[v][s.recvStart[src]:s.recvStart[src+1]], part[v*cnt:(v+1)*cnt])
		}
		s.p.PutBuf(part)
	}
	return s.ghosts[:k]
}

// ReverseExchange runs the executor backwards — the transpose of
// Exchange. ghosts holds this processor's values for its ghost slots
// (indexed by GhostSlot); each goes back to its owner, which adds it
// into local at the offset Exchange reads it from. An owner adds the
// values after whatever local already holds, source by source in
// ascending rank, each source's in its send order: the order a dense
// reduce-scatter adds the ranks' full-length partials in, so a PRIVATE
// accumulator that only ever wrote its owned block and its ghost slots
// merges to the same bits (a +0.0 partial from a rank that touched
// nothing is an identity). Only the processor pairs that share ghosts
// exchange messages, one per pair, and the owner is charged one flop per
// value added. Collective, like Exchange; sends draw on the processor's
// buffer pool and received messages are recycled into it, so the steady
// state allocates nothing.
func (s *Schedule) ReverseExchange(ghosts, local []float64) {
	if len(ghosts) != s.nGhost || len(local) != s.nloc {
		panic(fmt.Sprintf("inspector: reverse exchange of %d ghosts into %d elements, schedule has %d and %d",
			len(ghosts), len(local), s.nGhost, s.nloc))
	}
	for src, cnt := range s.recvCount {
		if cnt == 0 {
			continue
		}
		buf := s.p.GetBuf(cnt)
		copy(buf, ghosts[s.recvStart[src]:s.recvStart[src+1]])
		s.p.SendFloats(src, tagReverse, buf)
	}
	for dst, offs := range s.sendTo {
		if len(offs) == 0 {
			continue
		}
		part := s.p.RecvFloats(dst, tagReverse)
		if len(part) != len(offs) {
			panic(fmt.Sprintf("inspector: expected %d partials from %d, got %d", len(offs), dst, len(part)))
		}
		for i, off := range offs {
			local[off] += part[i]
		}
		s.p.Compute(len(offs))
		s.p.PutBuf(part)
	}
}
