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

// checkCounts panics unless counts holds np non-negative block sizes,
// and returns their sum and the largest.
func checkCounts(counts []int, np int) (total, widest int) {
	if len(counts) != np {
		panic(fmt.Sprintf("comm: counts length %d != np %d", len(counts), np))
	}
	for r, c := range counts {
		if c < 0 {
			panic(fmt.Sprintf("comm: negative count %d for rank %d", c, r))
		}
		total += c
		widest = max(widest, c)
	}
	return total, widest
}

// offsets returns the prefix-sum offsets of counts in a pooled buffer,
// which the caller returns with putIntBuf.
func (p *Proc) offsets(counts []int) []int {
	offs := p.getIntBuf(len(counts) + 1)
	offs[0] = 0
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
	total, _ := checkCounts(counts, np)
	if p.rank == root {
		if len(full) != total {
			panic(fmt.Sprintf("comm: ScatterV full length %d != sum counts %d", len(full), total))
		}
		offs := p.offsets(counts)
		defer p.putIntBuf(offs)
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

// AlltoallVInts exchanges personalised int blocks: segments[d] goes to
// rank d, and the returned slice holds what each rank sent to us
// (indexed by source rank); segments[rank] is passed through (copied)
// untouched. The inspector-executor schedule construction runs it to
// exchange the index lists processors need from each other. It sends
// NP-1 blocks in rank order starting after the caller, then receives
// NP-1 in reverse rank order starting before it — the schedule
// ReduceScatterSum also runs.
func (p *Proc) AlltoallVInts(segments [][]int) [][]int {
	defer p.collEnd("alltoallv-ints", p.clock)
	tag := p.nextTag(opAlltoall)
	np := p.m.np
	if len(segments) != np {
		panic(fmt.Sprintf("comm: AlltoallVInts needs %d segments, got %d", np, len(segments)))
	}
	out := make([][]int, np)
	out[p.rank] = append([]int{}, segments[p.rank]...)
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

// ReduceScatterSum sums a full-length vector contributed by every
// processor and writes this rank's counts[rank]-sized block of the sum
// into dst. This is exactly the MERGE(+) operation of the paper's
// proposed PRIVATE extension (§5.1), which forall.PrivateRegion runs:
// each processor's private full-size accumulator is merged and
// re-distributed. It is a personalised all-to-all of the blocks — NP-1
// sends in rank order starting after the caller, NP-1 receives in
// reverse rank order starting before it — followed by local summation
// in a fixed order: the rank's own block first, then the other ranks'
// blocks in ascending rank. That is (NP-1) messages of ~n/NP elements
// each, the same asymptotic cost as Scenario 1's broadcast, matching
// the paper's observation that the two partitionings have equal
// communication time.
//
// Each block travels as a pool-owned copy, so the caller may reuse full
// as soon as the call returns, and the received blocks wait in per-rank
// scratch until the ordered sum; the steady state allocates nothing.
func (p *Proc) ReduceScatterSum(full []float64, counts []int, dst []float64) {
	defer p.collEnd("reduce-scatter", p.clock)
	tag := p.nextTag(opAlltoall)
	np := p.m.np
	total, widest := checkCounts(counts, np)
	if len(full) != total {
		panic(fmt.Sprintf("comm: ReduceScatterSum full length %d != sum counts %d", len(full), total))
	}
	if len(dst) != counts[p.rank] {
		panic(fmt.Sprintf("comm: ReduceScatterSum rank %d block length %d != counts %d", p.rank, len(dst), counts[p.rank]))
	}
	offs := p.offsets(counts)
	for off := 1; off < np; off++ {
		d := (p.rank + off) % np
		// Every block is drawn at the widest block's capacity, so the
		// buffers that circulate fit any rank's next send and the pools
		// stay warm however unequal the counts are.
		out := p.GetBuf(widest)[:counts[d]]
		copy(out, full[offs[d]:offs[d+1]])
		p.Send(d, tag, Payload{Floats: out})
	}
	if p.parts == nil {
		p.parts = make([][]float64, np)
	}
	for off := 1; off < np; off++ {
		src := (p.rank - off + np) % np
		p.parts[src] = p.Recv(src, tag).Floats
	}
	copy(dst, full[offs[p.rank]:offs[p.rank+1]])
	p.putIntBuf(offs)
	for r, part := range p.parts {
		if r == p.rank {
			continue
		}
		if len(part) != len(dst) {
			panic(fmt.Sprintf("comm: ReduceScatterSum expected %d elements from %d, got %d", len(dst), r, len(part)))
		}
		for i, v := range part {
			dst[i] += v
		}
		p.Compute(len(dst))
		p.PutBuf(part)
	}
}
