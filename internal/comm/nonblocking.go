// Nonblocking collectives on the modeled clock: the overlap substrate
// for pipelined CG.
//
// A real MPI_Iallreduce lets the network combine scalars while the
// processor keeps computing; the caller pays only whatever part of the
// reduction the intervening compute did not cover. This file models
// exactly that contract on the simulated machine. IallreduceScalars
// charges the blocking AllreduceScalars' tree eagerly — same partners,
// same message sizes, same combine order, so the numerical results are
// bit-identical; an unobserved run charges it by replay at a
// rendezvous, a traced or faulted run message by message — then
// rewinds the modeled clock to the start time. The returned handle
// remembers what the blocking reduction would have cost; Wait charges
//
//	max(reduction_cost, overlapped_compute)
//
// instead of their sum: compute charged between start and Wait opens
// the overlap window, and Wait only bills the exposed remainder
// (reduction_cost - overlap, floored at zero). Message and flop counts
// stay on the books — the traffic is real, only its latency hides.
//
// Handles are recycled through a small per-processor freelist, so the
// steady-state start/compute/wait cycle allocates nothing (guarded by
// TestIallreduceSteadyStateNoAllocs). Wait is idempotent, and an
// outstanding handle at the end of a Run is harmless: the reduction
// already completed eagerly, and a cost that was never waited on is
// simply never charged.
package comm

import "hpfcg/internal/trace"

// ReduceHandle is an in-flight nonblocking allreduce started by
// IallreduceScalars. The reduced values are already in the caller's
// slice; the handle only carries the modeled-cost accounting that Wait
// settles. Handles are only valid on the rank that started them.
type ReduceHandle struct {
	p     *Proc
	start float64 // modeled clock when the reduction was started
	cost  float64 // what the blocking reduction would have charged
	done  bool
}

// handlePoolCap bounds the per-processor handle freelist. Solvers keep
// at most a couple of reductions in flight, so a tiny cap suffices.
const handlePoolCap = 4

// IallreduceScalars starts a nonblocking element-wise allreduce of xs
// across all processors. It is a collective: every rank must call it at
// the same point in the program, like AllreduceScalars. On return xs
// already holds the fully reduced values on every rank — the tree is
// charged eagerly with the exact schedule and combine order of the
// blocking path, so results are bit-identical to AllreduceScalars —
// but the modeled clock is rewound to the start time: the cost is
// settled by Wait on the returned handle, net of whatever compute the
// caller charged in between. The nil-tracer path allocates nothing in
// steady state.
func (p *Proc) IallreduceScalars(xs []float64, op ReduceOp) *ReduceHandle {
	start := p.clock
	sendT, waitT, compT := p.stats.SendTime, p.stats.WaitTime, p.stats.ComputeTime
	// Suppress per-message tracing during the eager exchange: on the
	// modeled clock those sends/recvs happen inside the collective span,
	// not at their eager wall positions, so the span is the truth.
	tr := p.tr
	p.tr = nil
	p.allreduceTree(xs, op)
	p.tr = tr
	cost := p.clock - start
	// Rewind: the reduction is in flight, not paid for. Message and flop
	// counts stay (the traffic is real); the time books are restored.
	p.clock = start
	p.stats.SendTime, p.stats.WaitTime, p.stats.ComputeTime = sendT, waitT, compT
	if tr != nil {
		tr.Add(trace.Event{Kind: trace.KindCollective, Peer: -1, Op: "iallreduce",
			Start: start, End: start + cost})
	}
	var h *ReduceHandle
	if n := len(p.handles); n > 0 {
		h = p.handles[n-1]
		p.handles = p.handles[:n-1]
	} else {
		h = &ReduceHandle{}
	}
	h.p, h.start, h.cost, h.done = p, start, cost, false
	return h
}

// Cost returns what the blocking reduction would have charged — the
// upper bound on what Wait can bill.
func (h *ReduceHandle) Cost() float64 { return h.cost }

// Wait completes the nonblocking reduction, charging only the exposed
// part of its cost: compute (or any other modeled time) charged since
// the start overlapped the reduction, so the clock advances by
// max(cost, overlapped) - overlapped. With no intervening work that is
// the full blocking cost; once the overlap window covers the cost,
// Wait is free. Wait is idempotent — a second call is a no-op — and
// recycles the handle into the processor's freelist.
func (h *ReduceHandle) Wait() {
	if h.done {
		return
	}
	h.done = true
	p := h.p
	overlapped := p.clock - h.start
	hidden := overlapped
	if hidden > h.cost {
		hidden = h.cost
	}
	exposed := h.cost - hidden
	waitStart := p.clock
	if exposed > 0 {
		p.clock += exposed
		p.stats.WaitTime += exposed
	}
	p.stats.ReduceHiddenTime += hidden
	p.stats.ReduceExposedTime += exposed
	if p.tr != nil {
		p.tr.Add(trace.Event{Kind: trace.KindCollective, Peer: -1, Op: "iallreduce.wait",
			Start: waitStart, End: p.clock})
	}
	p.checkCrash()
	if len(p.handles) < handlePoolCap {
		p.handles = append(p.handles, h)
	}
}
