// Buffer-pooled collectives: the communication-avoiding hot path.
//
// The original collectives allocate a fresh slice per call (the Reduce
// accumulator, the boxed AllreduceScalar argument, the AllgatherV
// result), which makes every CG iteration pay several heap allocations
// per rank. The primitives in this file reuse per-processor scratch
// buffers instead, so a steady-state solver iteration allocates
// nothing.
//
// Buffer ownership protocol: Send passes slices by reference, so a
// long-lived buffer must never be sent directly — a laggard receiver
// could still be reading it when the next superstep overwrites it.
// Every internal message therefore carries a pool-owned copy: the
// sender copies into a GetBuf buffer and relinquishes it through the
// channel; the receiver combines/copies the data and recycles the
// buffer into its *own* pool with PutBuf. Ownership transfers with the
// message, so no buffer is ever written by one rank while readable by
// another, and the pools stay balanced whenever sends and receives do.
package comm

import "fmt"

// poolCap bounds the per-processor buffer pool. Asymmetric patterns
// (e.g. a halo exchange where one rank receives more messages than it
// sends) would otherwise grow a net receiver's pool without bound; the
// cap trades a few allocations in those cases for bounded memory.
const (
	poolCap    = 16
	intPoolCap = 4
)

// GetBuf returns a float scratch buffer of length n, reusing a pooled
// buffer when one is large enough. Callers either relinquish the
// buffer by sending it (ownership transfers to the receiver) or return
// it with PutBuf when done.
func (p *Proc) GetBuf(n int) []float64 {
	for i := len(p.pool) - 1; i >= 0; i-- {
		if b := p.pool[i]; cap(b) >= n {
			last := len(p.pool) - 1
			p.pool[i] = p.pool[last]
			p.pool = p.pool[:last]
			return b[:n]
		}
	}
	return make([]float64, n)
}

// PutBuf recycles a buffer into the pool. Only buffers this rank owns
// may be recycled: ones obtained from GetBuf and not sent, or ones
// received from a peer that sent a pool-owned copy (the internal
// collective protocol). Never PutBuf a slice that was sent to another
// rank — ownership went with the message.
func (p *Proc) PutBuf(b []float64) {
	if cap(b) == 0 || len(p.pool) == cap(p.pool) {
		return
	}
	p.pool = append(p.pool, b[:cap(b)])
}

func (p *Proc) getIntBuf(n int) []int {
	for i := len(p.intPool) - 1; i >= 0; i-- {
		if b := p.intPool[i]; cap(b) >= n {
			last := len(p.intPool) - 1
			p.intPool[i] = p.intPool[last]
			p.intPool = p.intPool[:last]
			return b[:n]
		}
	}
	return make([]int, n)
}

func (p *Proc) putIntBuf(b []int) {
	if cap(b) == 0 || len(p.intPool) == cap(p.intPool) {
		return
	}
	p.intPool = append(p.intPool, b[:cap(b)])
}

// AllreduceScalars combines xs element-wise across all processors in
// place — the batched form of AllreduceScalar that merges several
// scalar reductions (e.g. a solver's dot products plus its convergence
// norm) into a single allreduce round. One tree allreduce of k scalars
// combines each element in exactly the same order as k separate scalar
// allreduces, so the batched results are bit-identical to the unbatched
// ones; only the number of message rounds changes (2·ceil(log2 NP)
// messages of k words instead of k times that many 1-word messages).
// An unobserved run (no tracer, no injector) charges the tree by replay
// at one rendezvous of all ranks; a traced or faulted run performs it
// message by message; the values, clocks, stats and communication
// matrix have identical bits either way. Steady state allocates
// nothing: the rendezvous is pooled and every message uses the buffer
// pool.
func (p *Proc) AllreduceScalars(xs []float64, op ReduceOp) {
	defer p.collEnd("allreduce", p.clock)
	p.allreduceTree(xs, op)
}

// allreduceTree is the machine-wide binomial tree both allreduces run:
// a reduce to rank 0, then a broadcast from it. An unobserved run
// charges it by replay at one rendezvous instead (rendezvous.go).
func (p *Proc) allreduceTree(xs []float64, op ReduceOp) {
	if p.rc.rdv != nil {
		p.rc.rdv.allreduce(p, xs, op)
		return
	}
	all := Group{me: p.rank}
	p.reduceTree(all, xs, op, "reduce")
	p.bcastTree(all, xs, "bcast")
}

// AllgatherVInto is AllgatherV writing into a caller-provided buffer
// (allocated when full is nil), so a solver that gathers the same
// vector every iteration can reuse one full-length buffer. The message
// schedule — recursive doubling for power-of-two NP, ring otherwise —
// and therefore the modeled cost are identical to AllgatherV; the sent
// blocks are pool-owned copies so reusing full across supersteps is
// safe.
func (p *Proc) AllgatherVInto(local []float64, counts []int, full []float64) []float64 {
	defer p.collEnd("allgatherv", p.clock)
	tag := p.nextTag(opAllgather)
	np := p.m.np
	total, _ := checkCounts(counts, np)
	if len(local) != counts[p.rank] {
		panic(fmt.Sprintf("comm: AllgatherVInto rank %d local length %d != counts %d", p.rank, len(local), counts[p.rank]))
	}
	if full == nil {
		full = make([]float64, total)
	} else if len(full) != total {
		panic(fmt.Sprintf("comm: AllgatherVInto buffer length %d != sum counts %d", len(full), total))
	}
	offs := p.offsets(counts)
	copy(full[offs[p.rank]:offs[p.rank+1]], local)
	if np == 1 {
		p.putIntBuf(offs)
		return full
	}
	if np&(np-1) == 0 {
		// Recursive doubling: before the step with group size k, this
		// rank holds the k blocks [base, base+k) with base = rank&^(k-1).
		for k := 1; k < np; k <<= 1 {
			partner := p.rank ^ k
			base := p.rank &^ (k - 1)
			pbase := partner &^ (k - 1)
			out := p.GetBuf(offs[base+k] - offs[base])
			copy(out, full[offs[base]:offs[base+k]])
			p.Send(partner, tag, Payload{Floats: out})
			in := p.Recv(partner, tag).Floats
			copy(full[offs[pbase]:offs[pbase+k]], in)
			p.PutBuf(in)
		}
	} else {
		right := (p.rank + 1) % np
		left := (p.rank - 1 + np) % np
		for step := 0; step < np-1; step++ {
			sendBlk := (p.rank - step + np) % np
			recvBlk := (p.rank - step - 1 + np) % np
			out := p.GetBuf(offs[sendBlk+1] - offs[sendBlk])
			copy(out, full[offs[sendBlk]:offs[sendBlk+1]])
			p.Send(right, tag, Payload{Floats: out})
			in := p.Recv(left, tag).Floats
			copy(full[offs[recvBlk]:offs[recvBlk+1]], in)
			p.PutBuf(in)
		}
	}
	p.putIntBuf(offs)
	return full
}
