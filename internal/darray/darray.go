// Package darray provides distributed one-dimensional arrays over the
// comm machine — the runtime realisation of HPF's distributed vectors
// in the paper's Figure 2. It supplies the three vector-operation
// classes §4 analyses:
//
//   - SAXPY-style parallel array assignments (AXPY, AYPX, Scale, ...),
//     which run in O(n/NP) with no communication because all operand
//     vectors are mutually ALIGNed (share one descriptor);
//   - the DOT_PRODUCT intrinsic, whose element-wise phase is local and
//     whose merge phase is a t_s·log NP allreduce;
//   - gather/broadcast of a whole vector (the all-to-all broadcast
//     Scenario 1 needs to make p fully available).
//
// A Vector is an SPMD object: every processor holds its own *Vector
// with the same shared descriptor but only the local block of data.
package darray

import (
	"fmt"
	"math"

	"hpfcg/internal/comm"
	"hpfcg/internal/dist"
)

// Vector is the per-processor view of a distributed vector.
type Vector struct {
	p      *comm.Proc
	d      dist.Dist
	loc    []float64
	counts []int // per-rank block sizes, cached so collectives don't rebuild them
}

// New creates a distributed vector of the given descriptor, zero
// initialised. Must be called by every processor of the machine with
// an identical descriptor (HPF ALIGN = sharing d).
func New(p *comm.Proc, d dist.Dist) *Vector {
	if d.NP() != p.NP() {
		panic(fmt.Sprintf("darray: descriptor NP %d != machine NP %d", d.NP(), p.NP()))
	}
	return &Vector{p: p, d: d, loc: make([]float64, d.Count(p.Rank())), counts: dist.Counts(d)}
}

// NewAligned creates a vector aligned with v (same descriptor) — HPF's
// `ALIGN (:) WITH p(:)`.
func NewAligned(v *Vector) *Vector { return New(v.p, v.d) }

// Dist returns the vector's distribution descriptor.
func (v *Vector) Dist() dist.Dist { return v.d }

// Proc returns the owning processor context.
func (v *Vector) Proc() *comm.Proc { return v.p }

// Len returns the global length.
func (v *Vector) Len() int { return v.d.N() }

// Local returns the local block (a view; mutating it mutates the
// vector).
func (v *Vector) Local() []float64 { return v.loc }

// sameDist panics unless w is aligned with v. HPF would insert
// communication for unaligned operands; this runtime (like the paper's
// codes) requires explicit alignment so every vector op is local.
func (v *Vector) sameDist(w *Vector) {
	if !dist.Same(v.d, w.d) {
		panic(fmt.Sprintf("darray: operands not aligned: %v vs %v", v.d.Name(), w.d.Name()))
	}
}

// Fill sets every element to c.
func (v *Vector) Fill(c float64) {
	for i := range v.loc {
		v.loc[i] = c
	}
}

// SetGlobal initialises the local block from a function of the global
// index (owner-computes: each processor evaluates only its own part).
func (v *Vector) SetGlobal(f func(g int) float64) {
	r := v.p.Rank()
	for off := range v.loc {
		v.loc[off] = f(v.d.Global(r, off))
	}
}

// CopyFrom copies w into v (aligned operands, no communication).
func (v *Vector) CopyFrom(w *Vector) {
	v.sameDist(w)
	copy(v.loc, w.loc)
}

// AXPY computes v = v + alpha*x (the paper's saxpy), locally in
// O(n/NP).
func (v *Vector) AXPY(alpha float64, x *Vector) {
	v.sameDist(x)
	// Operands as locals of one length: the loop reloads no field and
	// checks no bound per element. The other kernels below do the same.
	// AXPY, AYPX and AXPYNormSqLocal also run four elements per trip
	// through fixed-length subslices, then a scalar tail: the rolled
	// loop's speed swung 1.5× with where the linker placed it, and the
	// unrolled body does not. Every element keeps its expression, so the
	// bits do not depend on the unrolling.
	y, xl := v.loc, x.loc[:len(v.loc)]
	i := 0
	for ; i+4 <= len(y); i += 4 {
		yb, xb := y[i:i+4:i+4], xl[i:i+4:i+4]
		yb[0] += alpha * xb[0]
		yb[1] += alpha * xb[1]
		yb[2] += alpha * xb[2]
		yb[3] += alpha * xb[3]
	}
	for ; i < len(y); i++ {
		y[i] += alpha * xl[i]
	}
	v.p.Compute(2 * len(y))
}

// AYPX computes v = beta*v + x (the paper's saypx, used for
// p = beta*p + r), locally in O(n/NP).
func (v *Vector) AYPX(beta float64, x *Vector) {
	v.sameDist(x)
	y, xl := v.loc, x.loc[:len(v.loc)]
	i := 0
	for ; i+4 <= len(y); i += 4 {
		yb, xb := y[i:i+4:i+4], xl[i:i+4:i+4]
		yb[0] = beta*yb[0] + xb[0]
		yb[1] = beta*yb[1] + xb[1]
		yb[2] = beta*yb[2] + xb[2]
		yb[3] = beta*yb[3] + xb[3]
	}
	for ; i < len(y); i++ {
		y[i] = beta*y[i] + xl[i]
	}
	v.p.Compute(2 * len(y))
}

// Scale computes v = alpha*v.
func (v *Vector) Scale(alpha float64) {
	for i := range v.loc {
		v.loc[i] *= alpha
	}
	v.p.Compute(len(v.loc))
}

// DotLocal is the element-wise phase of the DOT_PRODUCT intrinsic: the
// local partial sum, with no communication. Solvers batch several
// DotLocal partials into one comm.AllreduceScalars round — the
// communication-avoiding form of Dot.
func (v *Vector) DotLocal(x *Vector) float64 {
	v.sameDist(x)
	y, xl := v.loc, x.loc[:len(v.loc)]
	s := 0.0
	for i := range y {
		s += y[i] * xl[i]
	}
	v.p.Compute(2 * len(y))
	return s
}

// NormSqLocal returns the local partial of ||v||².
func (v *Vector) NormSqLocal() float64 { return v.DotLocal(v) }

// Dot is the DOT_PRODUCT intrinsic: local element-wise products and
// partial sum (no communication), then a t_s·log NP allreduce merge.
func (v *Vector) Dot(x *Vector) float64 {
	return v.p.AllreduceScalar(v.DotLocal(x), comm.OpSum)
}

// Norm2 returns the Euclidean norm sqrt(v . v).
func (v *Vector) Norm2() float64 { return math.Sqrt(v.Dot(v)) }

// AXPYNormSqLocal fuses v = v + alpha*x with the local partial of the
// updated ||v||², in one pass over the vectors instead of two (the
// Kronbichler-style data-locality fusion of CG's residual update with
// its convergence norm). Per element the arithmetic is the update
// followed by the square, exactly as AXPY-then-NormSqLocal computes it,
// so the result is bit-identical; only the number of sweeps changes.
// The flop charge (2n for the axpy + 2n for the norm) also matches the
// unfused pair — the win is memory traffic, not flops.
func (v *Vector) AXPYNormSqLocal(alpha float64, x *Vector) float64 {
	v.sameDist(x)
	y, xl := v.loc, x.loc[:len(v.loc)]
	s := 0.0
	i := 0
	for ; i+4 <= len(y); i += 4 {
		yb, xb := y[i:i+4:i+4], xl[i:i+4:i+4]
		yb[0] += alpha * xb[0]
		s += yb[0] * yb[0]
		yb[1] += alpha * xb[1]
		s += yb[1] * yb[1]
		yb[2] += alpha * xb[2]
		s += yb[2] * yb[2]
		yb[3] += alpha * xb[3]
		s += yb[3] * yb[3]
	}
	for ; i < len(y); i++ {
		y[i] += alpha * xl[i]
		s += y[i] * y[i]
	}
	v.p.Compute(4 * len(y))
	return s
}

// DiffNormSqLocal returns the local partial of ||v - w||², with no
// communication. The resilient CG's residual-replacement guard merges
// it to compare a restored recurrence residual against the true
// residual b - A·x.
func (v *Vector) DiffNormSqLocal(w *Vector) float64 {
	v.sameDist(w)
	y, wl := v.loc, w.loc[:len(v.loc)]
	s := 0.0
	for i := range y {
		d := y[i] - wl[i]
		s += d * d
	}
	v.p.Compute(3 * len(y))
	return s
}

// Gather returns the full global vector on every processor — the
// "all-to-all broadcast of the local vector elements" of Scenario 1.
// Cost: (NP-1) ring steps of ~n/NP elements each. For non-contiguous
// (CYCLIC) descriptors the gathered blocks are permuted back into
// global order locally.
func (v *Vector) Gather() []float64 { return v.GatherInto(nil) }

// GatherInto is Gather writing into a caller-provided full-length
// buffer (allocated when nil), so a mat-vec that gathers p every
// iteration reuses one buffer and the steady state allocates nothing.
// For contiguous descriptors the allgather writes the buffer directly;
// CYCLIC descriptors still allocate a packed intermediate for the
// permutation.
func (v *Vector) GatherInto(full []float64) []float64 {
	if full != nil && len(full) != v.d.N() {
		panic(fmt.Sprintf("darray: GatherInto buffer length %d != %d", len(full), v.d.N()))
	}
	if _, contiguous := v.d.(dist.Contiguous); contiguous {
		return v.p.AllgatherVInto(v.loc, v.counts, full)
	}
	packed := v.p.AllgatherV(v.loc, v.counts)
	if full == nil {
		full = make([]float64, v.d.N())
	}
	off := 0
	for r := 0; r < v.d.NP(); r++ {
		for l := 0; l < v.counts[r]; l++ {
			full[v.d.Global(r, l)] = packed[off]
			off++
		}
	}
	return full
}

// ScatterFrom distributes a full global vector held at root into v.
func (v *Vector) ScatterFrom(root int, full []float64) {
	counts := v.counts
	var packed []float64
	if v.p.Rank() == root {
		if len(full) != v.d.N() {
			panic(fmt.Sprintf("darray: ScatterFrom length %d != %d", len(full), v.d.N()))
		}
		packed = make([]float64, v.d.N())
		off := 0
		for r := 0; r < v.d.NP(); r++ {
			for l := 0; l < counts[r]; l++ {
				packed[off] = full[v.d.Global(r, l)]
				off++
			}
		}
	}
	copy(v.loc, v.p.ScatterV(root, packed, counts))
}

// String formats the local block for debugging.
func (v *Vector) String() string {
	return fmt.Sprintf("Vector{rank=%d, dist=%s, local=%v}", v.p.Rank(), v.d.Name(), v.loc)
}
