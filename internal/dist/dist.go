// Package dist implements HPF's data-mapping model for one-dimensional
// arrays: the regular BLOCK, BLOCK(k), CYCLIC and CYCLIC(k)
// distributions of the HPF-1 standard, replication, and the irregular
// contiguous (cut-point) distributions that the paper's proposed
// ATOM:BLOCK extension and load-balancing partitioners produce (§5.2).
//
// A Dist describes how the index space [0, N) of a global array maps to
// NP processors' memories ("distributed array descriptor", the DADs of
// §5.2.1). The owner-computes rule, local/global index translation and
// per-processor counts all derive from it. ALIGN is expressed by
// sharing one Dist between arrays (the paper aligns q, r, x and b with
// p so one descriptor governs all of them).
package dist

import "fmt"

// Dist maps the global indices of an N-element array onto NP
// processors. Implementations must be pure functions of the index (no
// state), so descriptors can be shared freely across arrays (HPF
// ALIGN).
type Dist interface {
	// N is the global array length.
	N() int
	// NP is the number of processors.
	NP() int
	// Owner returns the rank owning global index g.
	Owner(g int) int
	// Local translates a global index to (owner, local offset).
	Local(g int) (proc, off int)
	// Global translates (proc, local offset) back to a global index.
	Global(proc, off int) int
	// Count returns how many elements proc owns.
	Count(proc int) int
	// Name describes the distribution for reports, e.g. "BLOCK".
	Name() string
}

// Contiguous is implemented by distributions whose per-processor index
// sets are contiguous global ranges [Lo(p), Lo(p)+Count(p)). Row- and
// column-partitioned matrix-vector products need this to slice their
// local strips.
type Contiguous interface {
	Dist
	// Lo returns the first global index owned by proc.
	Lo(proc int) int
}

// Same reports whether two descriptors define the same mapping. It
// compares structurally (name, shape, per-processor counts and, for
// contiguous distributions, block starts) rather than with ==, because
// descriptors like Irregular are not comparable values. Vector
// operations use it to enforce HPF alignment, on every call, so
// identical descriptors answer first: two Irregulars over one cut
// array (never mutated after NewIrregular) or two equal Blocks.
func Same(a, b Dist) bool {
	switch a := a.(type) {
	case Irregular:
		if b, ok := b.(Irregular); ok && len(a.cuts) > 0 && len(a.cuts) == len(b.cuts) && &a.cuts[0] == &b.cuts[0] {
			return true
		}
	case Block:
		if b, ok := b.(Block); ok && a == b {
			return true
		}
	}
	if a.Name() != b.Name() || a.N() != b.N() || a.NP() != b.NP() {
		return false
	}
	ca, aok := a.(Contiguous)
	cb, bok := b.(Contiguous)
	if aok != bok {
		return false
	}
	for r := 0; r < a.NP(); r++ {
		if a.Count(r) != b.Count(r) {
			return false
		}
		if aok && ca.Lo(r) != cb.Lo(r) {
			return false
		}
	}
	return true
}

// Counts returns the per-processor element counts of d as a slice,
// which is the shape collective (all)gather/scatter operations take.
func Counts(d Dist) []int {
	c := make([]int, d.NP())
	for r := range c {
		c[r] = d.Count(r)
	}
	return c
}

// check panics if (n, np) are not a valid descriptor shape.
func check(n, np int) {
	if n < 0 {
		panic(fmt.Sprintf("dist: negative array length %d", n))
	}
	if np < 1 {
		panic(fmt.Sprintf("dist: invalid processor count %d", np))
	}
}

// Block is HPF's DISTRIBUTE (BLOCK): processor r owns the contiguous
// range [r*n/np, (r+1)*n/np), i.e. blocks as equal as possible with the
// remainder spread one element at a time over the leading processors.
type Block struct {
	n, np int
}

// NewBlock creates a BLOCK distribution of n elements over np procs.
func NewBlock(n, np int) Block {
	check(n, np)
	return Block{n: n, np: np}
}

// N implements Dist.
func (b Block) N() int { return b.n }

// NP implements Dist.
func (b Block) NP() int { return b.np }

// Name implements Dist.
func (b Block) Name() string { return "BLOCK" }

// Lo implements Contiguous.
func (b Block) Lo(proc int) int { return proc * b.n / b.np }

// Count implements Dist.
func (b Block) Count(proc int) int { return b.Lo(proc+1) - b.Lo(proc) }

// Owner implements Dist.
func (b Block) Owner(g int) int {
	b.boundsCheck(g)
	// Invert lo(r) = floor(r*n/np): candidate then adjust.
	if b.n == 0 {
		return 0
	}
	r := g * b.np / b.n
	for r+1 < b.np && b.Lo(r+1) <= g {
		r++
	}
	for r > 0 && b.Lo(r) > g {
		r--
	}
	return r
}

// Local implements Dist.
func (b Block) Local(g int) (int, int) {
	r := b.Owner(g)
	return r, g - b.Lo(r)
}

// Global implements Dist.
func (b Block) Global(proc, off int) int { return b.Lo(proc) + off }

func (b Block) boundsCheck(g int) {
	if g < 0 || g >= b.n {
		panic(fmt.Sprintf("dist: index %d out of range [0,%d)", g, b.n))
	}
}

// BlockSize is HPF's DISTRIBUTE (BLOCK(k)): fixed blocks of k elements
// assigned to processors in order; the final processor may hold a short
// block (or some trailing processors none). The paper uses
// BLOCK((n+NP-1)/NP) to force the (n+1)-element row/col pointer array's
// last element onto the last non-empty processor.
type BlockSize struct {
	n, np, k int
}

// NewBlockSize creates a BLOCK(k) distribution. k must be positive and
// k*np must cover n (an HPF constraint).
func NewBlockSize(n, np, k int) BlockSize {
	check(n, np)
	if k < 1 {
		panic(fmt.Sprintf("dist: BLOCK(k) with k=%d", k))
	}
	if k*np < n {
		panic(fmt.Sprintf("dist: BLOCK(%d) over %d procs cannot hold %d elements", k, np, n))
	}
	return BlockSize{n: n, np: np, k: k}
}

// N implements Dist.
func (b BlockSize) N() int { return b.n }

// NP implements Dist.
func (b BlockSize) NP() int { return b.np }

// Name implements Dist.
func (b BlockSize) Name() string { return fmt.Sprintf("BLOCK(%d)", b.k) }

// Lo implements Contiguous.
func (b BlockSize) Lo(proc int) int {
	lo := proc * b.k
	if lo > b.n {
		lo = b.n
	}
	return lo
}

// Count implements Dist.
func (b BlockSize) Count(proc int) int { return b.Lo(proc+1) - b.Lo(proc) }

// Owner implements Dist.
func (b BlockSize) Owner(g int) int {
	if g < 0 || g >= b.n {
		panic(fmt.Sprintf("dist: index %d out of range [0,%d)", g, b.n))
	}
	return g / b.k
}

// Local implements Dist.
func (b BlockSize) Local(g int) (int, int) {
	r := b.Owner(g)
	return r, g - r*b.k
}

// Global implements Dist.
func (b BlockSize) Global(proc, off int) int { return proc*b.k + off }

// Cyclic is HPF's DISTRIBUTE (CYCLIC(k)): blocks of k elements dealt
// round-robin to processors. CYCLIC(1) is plain CYCLIC.
type Cyclic struct {
	n, np, k int
}

// NewCyclic creates a CYCLIC(1) distribution.
func NewCyclic(n, np int) Cyclic { return NewCyclicK(n, np, 1) }

// NewCyclicK creates a CYCLIC(k) distribution.
func NewCyclicK(n, np, k int) Cyclic {
	check(n, np)
	if k < 1 {
		panic(fmt.Sprintf("dist: CYCLIC(k) with k=%d", k))
	}
	return Cyclic{n: n, np: np, k: k}
}

// N implements Dist.
func (c Cyclic) N() int { return c.n }

// NP implements Dist.
func (c Cyclic) NP() int { return c.np }

// Name implements Dist.
func (c Cyclic) Name() string {
	if c.k == 1 {
		return "CYCLIC"
	}
	return fmt.Sprintf("CYCLIC(%d)", c.k)
}

// Owner implements Dist.
func (c Cyclic) Owner(g int) int {
	if g < 0 || g >= c.n {
		panic(fmt.Sprintf("dist: index %d out of range [0,%d)", g, c.n))
	}
	return (g / c.k) % c.np
}

// Local implements Dist.
func (c Cyclic) Local(g int) (int, int) {
	r := c.Owner(g)
	blk := g / c.k
	round := blk / c.np
	return r, round*c.k + g%c.k
}

// Global implements Dist.
func (c Cyclic) Global(proc, off int) int {
	round := off / c.k
	return (round*c.np+proc)*c.k + off%c.k
}

// Count implements Dist.
func (c Cyclic) Count(proc int) int {
	fullRounds := c.n / (c.k * c.np)
	count := fullRounds * c.k
	rem := c.n - fullRounds*c.k*c.np
	start := proc * c.k
	switch {
	case rem > start+c.k:
		count += c.k
	case rem > start:
		count += rem - start
	}
	return count
}

// Irregular is a contiguous distribution with explicit cut points:
// processor r owns [cuts[r], cuts[r+1]). This is the descriptor shape
// the paper's ATOM:BLOCK redistribution and the CG_BALANCED_PARTITIONER
// produce — "a small array in the size of the number of processors
// keeps the cut-off points, and it is replicated over all processors"
// (§5.2.1).
type Irregular struct {
	cuts []int // len np+1, cuts[0]==0, cuts[np]==n, nondecreasing
}

// NewIrregular creates an irregular contiguous distribution from cut
// points. cuts must have length np+1, start at 0, end at n, and be
// nondecreasing.
func NewIrregular(cuts []int) Irregular {
	if len(cuts) < 2 {
		panic("dist: Irregular needs at least 2 cut points")
	}
	if cuts[0] != 0 {
		panic(fmt.Sprintf("dist: Irregular cuts must start at 0, got %d", cuts[0]))
	}
	for i := 1; i < len(cuts); i++ {
		if cuts[i] < cuts[i-1] {
			panic(fmt.Sprintf("dist: Irregular cuts must be nondecreasing, got %v", cuts))
		}
	}
	c := make([]int, len(cuts))
	copy(c, cuts)
	return Irregular{cuts: c}
}

// N implements Dist.
func (ir Irregular) N() int { return ir.cuts[len(ir.cuts)-1] }

// NP implements Dist.
func (ir Irregular) NP() int { return len(ir.cuts) - 1 }

// Name implements Dist.
func (ir Irregular) Name() string { return "IRREGULAR" }

// Lo implements Contiguous.
func (ir Irregular) Lo(proc int) int { return ir.cuts[proc] }

// Count implements Dist.
func (ir Irregular) Count(proc int) int { return ir.cuts[proc+1] - ir.cuts[proc] }

// Owner implements Dist by binary search over the cut points.
func (ir Irregular) Owner(g int) int {
	n := ir.N()
	if g < 0 || g >= n {
		panic(fmt.Sprintf("dist: index %d out of range [0,%d)", g, n))
	}
	lo, hi := 0, ir.NP()-1
	for lo < hi {
		mid := (lo + hi) / 2
		if ir.cuts[mid+1] <= g {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Local implements Dist.
func (ir Irregular) Local(g int) (int, int) {
	r := ir.Owner(g)
	return r, g - ir.cuts[r]
}

// Global implements Dist.
func (ir Irregular) Global(proc, off int) int { return ir.cuts[proc] + off }
