package comm

import "fmt"

// ReduceOp selects the combining operation of a reduction.
type ReduceOp int

// Supported reduction operators. All are commutative and associative,
// which the tree reduction requires.
const (
	OpSum ReduceOp = iota
	OpMax
	OpMin
)

func (op ReduceOp) combine(dst, src []float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("comm: reduce length mismatch %d vs %d", len(dst), len(src)))
	}
	switch op {
	case OpSum:
		for i, v := range src {
			dst[i] += v
		}
	case OpMax:
		for i, v := range src {
			if v > dst[i] {
				dst[i] = v
			}
		}
	case OpMin:
		for i, v := range src {
			if v < dst[i] {
				dst[i] = v
			}
		}
	default:
		panic(fmt.Sprintf("comm: unknown ReduceOp %d", op))
	}
}

// Barrier blocks until all processors have entered it. It uses the
// dissemination algorithm: ceil(log2 NP) rounds of shifted exchanges.
func (p *Proc) Barrier() {
	defer p.collEnd("barrier", p.clock)
	tag := p.nextTag(opBarrier)
	np := p.m.np
	for k := 1; k < np; k <<= 1 {
		dst := (p.rank + k) % np
		src := (p.rank - k + np) % np
		p.Send(dst, tag, Payload{})
		p.Recv(src, tag)
	}
}

// AllreduceScalar combines a single value across all processors over
// the binomial tree: DOT_PRODUCT's merge phase, the t_s*log NP
// communication of the paper's inner products. It reuses a pooled
// 1-element buffer, so the per-dot-product heap allocation the boxed
// form paid is gone; the message schedule and result are bit-identical
// to the original tree allreduce.
func (p *Proc) AllreduceScalar(x float64, op ReduceOp) float64 {
	buf := p.GetBuf(1)
	buf[0] = x
	p.AllreduceScalars(buf, op)
	v := buf[0]
	p.PutBuf(buf)
	return v
}

func checkCounts(counts []int, np int) int {
	if len(counts) != np {
		panic(fmt.Sprintf("comm: counts length %d != np %d", len(counts), np))
	}
	total := 0
	for r, c := range counts {
		if c < 0 {
			panic(fmt.Sprintf("comm: negative count %d for rank %d", c, r))
		}
		total += c
	}
	return total
}

// offsetsOf returns the prefix-sum offsets of counts.
func offsetsOf(counts []int) []int {
	offs := make([]int, len(counts)+1)
	for i, c := range counts {
		offs[i+1] = offs[i] + c
	}
	return offs
}

// ScatterV distributes variable-size blocks from root: root holds the
// concatenation in rank order and every rank receives its
// counts[rank]-sized block.
func (p *Proc) ScatterV(root int, full []float64, counts []int) []float64 {
	defer p.collEnd("scatterv", p.clock)
	tag := p.nextTag(opScatter)
	np := p.m.np
	total := checkCounts(counts, np)
	offs := offsetsOf(counts)
	if p.rank == root {
		if len(full) != total {
			panic(fmt.Sprintf("comm: ScatterV full length %d != sum counts %d", len(full), total))
		}
		for r := 0; r < np; r++ {
			if r == root {
				continue
			}
			p.Send(r, tag, Payload{Floats: full[offs[r]:offs[r+1]]})
		}
		out := make([]float64, counts[root])
		copy(out, full[offs[root]:offs[root+1]])
		return out
	}
	return p.Recv(root, tag).Floats
}

// AllgatherV concatenates each rank's block (in rank order) onto every
// processor — the "all-to-all broadcast of the local vector elements"
// the paper charges to Scenario 1. For power-of-two NP it uses
// recursive doubling (the hypercube algorithm behind the paper's
// t_s·log NP + t_w·n·(NP-1)/NP expression, ceil(log2 NP) steps with
// doubling block sizes and single-hop hypercube partners); otherwise
// it falls back to the (NP-1)-step ring.
func (p *Proc) AllgatherV(local []float64, counts []int) []float64 {
	return p.AllgatherVInto(local, counts, nil)
}

// AlltoallV exchanges personalised blocks: segments[d] goes to rank d,
// and the returned slice holds what each rank sent to us (indexed by
// source rank). segments[rank] is passed through (copied) untouched.
func (p *Proc) AlltoallV(segments [][]float64) [][]float64 {
	return alltoallv(p, segments, "alltoallv",
		func(s []float64) Payload { return Payload{Floats: s} },
		func(pl Payload) []float64 { return pl.Floats })
}

// AlltoallVInts is AlltoallV for int payloads (used by the
// inspector-executor schedule construction, where processors exchange
// the index lists they need from each other).
func (p *Proc) AlltoallVInts(segments [][]int) [][]int {
	return alltoallv(p, segments, "alltoallv-ints",
		func(s []int) Payload { return Payload{Ints: s} },
		func(pl Payload) []int { return pl.Ints })
}

// alltoallv is the one personalised all-to-all schedule: NP-1 sends in
// rank order starting after the caller, then NP-1 receives in reverse
// rank order starting before it. wrap and unwrap move a segment in and
// out of a Payload; span names the trace span.
func alltoallv[T any](p *Proc, segments [][]T, span string, wrap func([]T) Payload, unwrap func(Payload) []T) [][]T {
	defer p.collEnd(span, p.clock)
	tag := p.nextTag(opAlltoall)
	np := p.m.np
	if len(segments) != np {
		panic(fmt.Sprintf("comm: %s needs %d segments, got %d", span, np, len(segments)))
	}
	out := make([][]T, np)
	own := make([]T, len(segments[p.rank]))
	copy(own, segments[p.rank])
	out[p.rank] = own
	for off := 1; off < np; off++ {
		dst := (p.rank + off) % np
		p.Send(dst, tag, wrap(segments[dst]))
	}
	for off := 1; off < np; off++ {
		src := (p.rank - off + np) % np
		out[src] = unwrap(p.Recv(src, tag))
	}
	return out
}

// ReduceScatterSum sums a full-length vector contributed by every
// processor and leaves each rank with its counts[rank]-sized block of
// the sum. This is exactly the MERGE(+) operation of the paper's
// proposed PRIVATE extension (§5.1): each processor's private full-size
// accumulator is merged and re-distributed. Implemented as a
// personalised all-to-all of the blocks followed by local summation:
// (NP-1) messages of ~n/NP elements each, the same asymptotic cost as
// Scenario 1's broadcast, matching the paper's observation that the two
// partitionings have equal communication time.
func (p *Proc) ReduceScatterSum(full []float64, counts []int) []float64 {
	defer p.collEnd("reduce-scatter", p.clock)
	np := p.m.np
	total := checkCounts(counts, np)
	if len(full) != total {
		panic(fmt.Sprintf("comm: ReduceScatterSum full length %d != sum counts %d", len(full), total))
	}
	offs := offsetsOf(counts)
	segs := make([][]float64, np)
	for r := 0; r < np; r++ {
		segs[r] = full[offs[r]:offs[r+1]]
	}
	parts := p.AlltoallV(segs)
	out := make([]float64, counts[p.rank])
	copy(out, parts[p.rank])
	for r := 0; r < np; r++ {
		if r == p.rank {
			continue
		}
		part := parts[r]
		if len(part) != len(out) {
			panic(fmt.Sprintf("comm: ReduceScatterSum expected %d elements from %d, got %d", len(out), r, len(part)))
		}
		for i, v := range part {
			out[i] += v
		}
		p.Compute(len(out))
	}
	return out
}
