// Package partition implements the data-mapping machinery of §5.2 of
// the paper: indivisible entities ("atoms") within larger arrays, the
// proposed ATOM:BLOCK redistribution that never splits a sparse row or
// column across processors (ATOM:CYCLIC has no executor: hpf refuses
// it), and the load-balancing partitioners (the paper's
// CG_BALANCED_PARTITIONER_1) that place whole rows/columns so the
// per-processor nonzero counts are as even as possible.
//
// An atom i of the data array a is the chunk a[Bounds[i]:Bounds[i+1]]
// "enclosed within two border elements" of an indirection array — for
// CSR the row-pointer array, for CSC the column-pointer array. The
// paper's directive
//
//	!EXT$ INDIVISABLE row(ATOM:i) :: col(i:i+1)
//
// corresponds to AtomsFromPtr(colPtr).
package partition

import (
	"fmt"

	"hpfcg/internal/dist"
)

// Atoms describes the indivisible entities of an array: atom i spans
// element indices [Bounds[i], Bounds[i+1]). Bounds is nondecreasing.
type Atoms struct {
	Bounds []int
}

// AtomsFromPtr builds the atom structure from a CSR/CSC pointer array
// (length nAtoms+1) — the INDIVISABLE directive applied to the sparse
// trio.
func AtomsFromPtr(ptr []int) Atoms {
	if len(ptr) < 1 {
		panic("partition: empty pointer array")
	}
	for i := 1; i < len(ptr); i++ {
		if ptr[i] < ptr[i-1] {
			panic(fmt.Sprintf("partition: pointer array decreases at %d", i))
		}
	}
	b := make([]int, len(ptr))
	copy(b, ptr)
	return Atoms{Bounds: b}
}

// NAtoms returns the number of atoms.
func (a Atoms) NAtoms() int { return len(a.Bounds) - 1 }

// NElems returns the total number of underlying elements.
func (a Atoms) NElems() int { return a.Bounds[len(a.Bounds)-1] }

// Weight returns the element count of atom i — the partitioning weight
// (nonzeros per row/column).
func (a Atoms) Weight(i int) int { return a.Bounds[i+1] - a.Bounds[i] }

// Weights returns all atom weights.
func (a Atoms) Weights() []int {
	w := make([]int, a.NAtoms())
	for i := range w {
		w[i] = a.Weight(i)
	}
	return w
}

// ElemDist expands an atom-level contiguous distribution (cut points in
// atom space) to the element-level Irregular distribution of the
// underlying data array: processor r owns elements
// [Bounds[atomCuts[r]], Bounds[atomCuts[r+1]]). This is the descriptor
// the REDISTRIBUTE row(ATOM: BLOCK) directive produces: whole atoms,
// never split.
func (a Atoms) ElemDist(atomCuts []int) dist.Irregular {
	cuts := make([]int, len(atomCuts))
	for i, c := range atomCuts {
		if c < 0 || c > a.NAtoms() {
			panic(fmt.Sprintf("partition: atom cut %d outside [0,%d]", c, a.NAtoms()))
		}
		cuts[i] = a.Bounds[c]
	}
	return dist.NewIrregular(cuts)
}

// UniformAtomBlock is the proposed (ATOM: BLOCK) distribution for the
// regular case of §5.2.1: atoms are dealt out in contiguous groups of
// as equal *count* as possible (like HPF BLOCK, but in atom units). It
// returns the atom-space cut points.
func UniformAtomBlock(nAtoms, np int) []int {
	if np < 1 {
		panic(fmt.Sprintf("partition: np=%d", np))
	}
	cuts := make([]int, np+1)
	for r := 0; r <= np; r++ {
		cuts[r] = r * nAtoms / np
	}
	return cuts
}

// SplitCount reports how many atoms a plain element-level BLOCK
// distribution of the data array would cut across a processor
// boundary — the defect the INDIVISABLE extension removes (each split
// column costs extra "communication among intra-column elements").
func SplitCount(a Atoms, np int) int {
	n := a.NElems()
	if n == 0 || np <= 1 {
		return 0
	}
	d := dist.NewBlock(n, np)
	splits := 0
	for i := 0; i < a.NAtoms(); i++ {
		lo, hi := a.Bounds[i], a.Bounds[i+1]
		if hi-lo <= 1 {
			continue
		}
		if d.Owner(lo) != d.Owner(hi-1) {
			splits++
		}
	}
	return splits
}

// BalancedContiguous solves the chains-on-chains partitioning problem:
// split weights into np contiguous groups minimising the maximum group
// weight. This is CG_BALANCED_PARTITIONER_1 (§5.2.2): weights are the
// nonzeros per row/column and the result keeps rows/columns whole while
// evening the multiply work. The optimum bottleneck is found by binary
// search over feasible bottleneck values with a greedy feasibility
// check; runtime O(n log(sum w)).
func BalancedContiguous(weights []int, np int) []int {
	if np < 1 {
		panic(fmt.Sprintf("partition: np=%d", np))
	}
	total, maxW := 0, 0
	for _, w := range weights {
		if w < 0 {
			panic(fmt.Sprintf("partition: negative weight %d", w))
		}
		total += w
		if w > maxW {
			maxW = w
		}
	}
	// Binary search the minimal feasible bottleneck in [maxW, total].
	lo, hi := maxW, total
	for lo < hi {
		mid := lo + (hi-lo)/2
		if feasible(weights, np, mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return carve(weights, np, lo)
}

// feasible reports whether weights can be covered by np contiguous
// groups each of weight <= cap.
func feasible(weights []int, np, cap int) bool {
	groups, cur := 1, 0
	for _, w := range weights {
		if w > cap {
			return false
		}
		if cur+w > cap {
			groups++
			cur = 0
			if groups > np {
				return false
			}
		}
		cur += w
	}
	return true
}

// carve produces cut points realising the bottleneck: greedily fill
// each group up to cap, but leave enough atoms so that every remaining
// processor boundary can still be placed (empty trailing groups are
// allowed; empty leading groups are not produced by the greedy fill).
func carve(weights []int, np, cap int) []int {
	n := len(weights)
	cuts := make([]int, np+1)
	idx := 0
	for r := 0; r < np; r++ {
		cuts[r] = idx
		cur := 0
		for idx < n && cur+weights[idx] <= cap {
			cur += weights[idx]
			idx++
		}
	}
	cuts[np] = n
	if idx != n {
		// cap was infeasible; callers always pass a feasible cap.
		panic(fmt.Sprintf("partition: internal error, %d atoms unplaced at cap %d", n-idx, cap))
	}
	return cuts
}

// GreedyContiguous is the simple streaming heuristic the paper
// envisages a compiler applying at REDISTRIBUTE time: walk the atoms,
// starting a new processor whenever the running weight passes the ideal
// total/np share. It is cheaper than BalancedContiguous but may be up
// to 2x off the optimal bottleneck; experiment E8 compares both.
func GreedyContiguous(weights []int, np int) []int {
	if np < 1 {
		panic(fmt.Sprintf("partition: np=%d", np))
	}
	n := len(weights)
	total := 0
	for _, w := range weights {
		total += w
	}
	cuts := make([]int, np+1)
	cuts[np] = n
	idx, acc := 0, 0
	for r := 1; r < np; r++ {
		target := total * r / np
		for idx < n && acc < target {
			acc += weights[idx]
			idx++
		}
		cuts[r] = idx
	}
	return cuts
}

// Imbalance returns max/mean of the per-group weights implied by cuts
// (1.0 = perfect). Groups may be empty; an all-zero weighting returns 1.
func Imbalance(weights []int, cuts []int) float64 {
	np := len(cuts) - 1
	total, maxG := 0, 0
	for r := 0; r < np; r++ {
		g := 0
		for i := cuts[r]; i < cuts[r+1]; i++ {
			g += weights[i]
		}
		total += g
		if g > maxG {
			maxG = g
		}
	}
	if total == 0 {
		return 1
	}
	mean := float64(total) / float64(np)
	return float64(maxG) / mean
}

// Bottleneck returns the maximum per-group weight implied by cuts.
func Bottleneck(weights []int, cuts []int) int {
	np := len(cuts) - 1
	maxG := 0
	for r := 0; r < np; r++ {
		g := 0
		for i := cuts[r]; i < cuts[r+1]; i++ {
			g += weights[i]
		}
		if g > maxG {
			maxG = g
		}
	}
	return maxG
}
