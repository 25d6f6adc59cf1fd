// The allreduce of an unobserved run: one rendezvous that replays the
// tree.
//
// The modeled machine must charge the binomial tree of tree.go — the
// t_s·log NP of the paper's §4 — but the host need not act it out.
// When a run has no tracer and no injector, AllreduceScalars and
// IallreduceScalars send none of the tree's 2·(NP−1) messages. Each
// rank copies its operand into its slot of the run's rendezvous and
// waits. The last rank to arrive replays reduceTree and bcastTree
// arithmetically on every rank's clock and stats: the same partners,
// the same combine order, and the same chargeSend/chargeRecv/
// chargeCompute calls in each rank's program order, so every value,
// clock, stat and communication-matrix entry has the bits the messages
// would have given it. It then wakes the others, who copy the reduced
// values out. A waiting rank unwinds on the run's abort as a blocked
// Recv does.
//
// A traced or faulted run keeps the message path: spans and faults act
// on single messages. TestOneTreeSchedule holds the two paths to the
// same bits.
//
// A rank deposits a copy of its operand, never the caller's slice, so
// solver scalars handed to an allreduce stay on the stack. Rendezvous
// state comes from a process-wide pool keyed by NP and goes back only
// after a run every rank completed, so a run allocates none of it and
// an aborted run's pending arrivals and wake tokens never reach another.
package comm

import (
	"sync"
	"sync/atomic"
)

// rendezvous is one run's meeting point for the machine-wide allreduce.
type rendezvous struct {
	arrived atomic.Int32 // ranks deposited in the current allreduce
	slots   []rdvSlot    // slots[r] is written by rank r, then read by the last arriver
	total   []float64    // the reduced values, written by the last arriver
	depart  []float64    // replay scratch: departure clock of each member's message
}

// rdvSlot is one rank's deposit.
type rdvSlot struct {
	p    *Proc     // the depositing rank: its clock and stats are charged in place
	buf  []float64 // a copy of its operand; the replay combines into it
	wake chan struct{}
}

// rdvPoolCap bounds the free rendezvous kept per NP: one per run that
// can be in flight at once is plenty.
const rdvPoolCap = 16

var rdvPool = struct {
	sync.Mutex
	free map[int][]*rendezvous
}{free: map[int][]*rendezvous{}}

func getRendezvous(np int) *rendezvous {
	rdvPool.Lock()
	if free := rdvPool.free[np]; len(free) > 0 {
		rv := free[len(free)-1]
		rdvPool.free[np] = free[:len(free)-1]
		rdvPool.Unlock()
		return rv
	}
	rdvPool.Unlock()
	rv := &rendezvous{slots: make([]rdvSlot, np), depart: make([]float64, np)}
	for r := range rv.slots {
		rv.slots[r].wake = make(chan struct{}, 1)
	}
	return rv
}

// putRendezvous returns the state of a run every rank completed: no
// arrival is pending and every wake token was read.
func putRendezvous(rv *rendezvous) {
	for r := range rv.slots {
		rv.slots[r].p = nil
	}
	np := len(rv.slots)
	rdvPool.Lock()
	if free := rdvPool.free[np]; len(free) < rdvPoolCap {
		rdvPool.free[np] = append(free, rv)
	}
	rdvPool.Unlock()
}

// allreduce is the rendezvous form of allreduceTree: xs holds the
// reduced values on return, and p's clock and stats are charged as the
// tree's messages would have charged them.
func (rv *rendezvous) allreduce(p *Proc, xs []float64, op ReduceOp) {
	p.seq += 2 // the tags reduceTree and bcastTree draw, so later collectives agree
	s := &rv.slots[p.rank]
	s.p = p
	s.buf = append(s.buf[:0], xs...)
	if int(rv.arrived.Add(1)) < len(rv.slots) {
		select {
		case <-s.wake:
		case <-p.rc.dead[p.rank].ch:
			// With no injector a flag is only raised by the run's abort.
			panic(abortError{})
		}
	} else {
		rv.arrived.Store(0)
		rv.replay(op)
		for r := range rv.slots {
			if r != p.rank {
				rv.slots[r].wake <- struct{}{}
			}
		}
	}
	copy(xs, rv.total)
}

// replay charges every rank the reduce to member 0 and the broadcast
// from it that reduceTree and bcastTree perform, and leaves the result
// in rv.total. Each rank's charges run in its program order, and ranks
// are taken in an order that meets every message after its sender
// charged it: the reduce in descending order (a member hears only from
// higher members), the broadcast in ascending order (only from its
// parent, a lower member).
func (rv *rendezvous) replay(op ReduceOp) {
	n := len(rv.slots)
	for i := n - 1; i >= 0; i-- {
		s := &rv.slots[i]
		for mask := 1; mask < n; mask <<= 1 {
			if i&mask != 0 {
				s.p.chargeSend(i^mask, 8*len(s.buf))
				rv.depart[i] = s.p.clock
				break
			}
			if src := i | mask; src < n {
				in := rv.slots[src].buf
				rv.chargeRecv(i, src, rv.depart[src], len(in))
				op.combine(s.buf, in)
				if len(s.buf) > 0 {
					s.p.chargeCompute(len(s.buf), float64(len(s.buf))*s.p.m.cost.TFlop)
				}
			}
		}
	}
	rv.total = append(rv.total[:0], rv.slots[0].buf...)
	words := len(rv.total)
	for i := 0; i < n; i++ {
		p := rv.slots[i].p
		mask := 1
		for ; mask < n; mask <<= 1 {
			if i&mask != 0 {
				rv.chargeRecv(i, i^mask, rv.depart[i], words)
				break
			}
		}
		for mask >>= 1; mask > 0; mask >>= 1 {
			if i+mask < n {
				p.chargeSend(i+mask, 8*words)
				rv.depart[i+mask] = p.clock
			}
		}
	}
}

// chargeRecv charges member dst the receipt of a words-long message
// that left src at modeled time depart, as Recv does.
func (rv *rendezvous) chargeRecv(dst, src int, depart float64, words int) {
	p := rv.slots[dst].p
	hops := p.m.topo.Distance(src, dst, p.m.np)
	p.chargeRecv(depart+float64(hops)*p.m.cost.THop, 8*words)
}
