package core

import (
	"hpfcg/internal/darray"
	"hpfcg/internal/dist"
)

// Workspace is a per-processor pool of solver temporaries. The CG-class
// solvers need a handful of aligned scratch vectors per solve; without
// a workspace each solve allocates them fresh, which for repeated
// solves (benchmark sweeps, time-stepping, restarted outer methods)
// keeps the heap busy for buffers whose shape never changes. Passing
// the same Workspace via Options.Work lets every solve on this
// processor reuse the previous solve's vectors, making steady-state
// iterations allocation-free together with the pooled collectives and
// the operators' reusable gather buffers.
//
// A Workspace belongs to one processor (it holds that processor's
// vector blocks) and must not be shared across ranks. It may be reused
// across machines and problem sizes: vectors whose owner or descriptor
// no longer match are dropped and rebuilt.
type Workspace struct {
	vecs []*darray.Vector
	next int
}

// NewWorkspace returns an empty workspace.
func NewWorkspace() *Workspace { return &Workspace{} }

// begin starts a solve: subsequent take calls hand out the pooled
// vectors in order. Nil-safe — a nil workspace is returned as nil and
// take then falls back to fresh allocation.
func (w *Workspace) begin() *Workspace {
	if w != nil {
		w.next = 0
	}
	return w
}

// take returns a zeroed vector aligned with proto, reusing a pooled one
// when available. Zeroing matches darray.NewAligned's fresh-allocation
// semantics and charges no modeled time (like the allocation it
// replaces, it is bookkeeping, not solver arithmetic).
func (w *Workspace) take(proto *darray.Vector) *darray.Vector {
	if w == nil {
		return darray.NewAligned(proto)
	}
	if w.next < len(w.vecs) {
		v := w.vecs[w.next]
		if v.Proc() == proto.Proc() && dist.Same(v.Dist(), proto.Dist()) {
			w.next++
			v.Fill(0)
			return v
		}
		// Shape changed: everything from here on belongs to the old
		// solve shape, drop it and rebuild below.
		w.vecs = w.vecs[:w.next]
	}
	v := darray.NewAligned(proto)
	w.vecs = append(w.vecs, v)
	w.next++
	return v
}

// copyOf is take followed by a copy of v: an aligned pooled copy.
func (w *Workspace) copyOf(v *darray.Vector) *darray.Vector {
	c := w.take(v)
	c.CopyFrom(v)
	return c
}
