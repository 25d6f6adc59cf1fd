// Package order implements sparse matrix reordering. The paper's
// irregular-problem story (§5.2.2) assumes the matrix arrives with
// whatever structure the application produced; a bandwidth-reducing
// permutation such as Reverse Cuthill-McKee (RCM) concentrates the
// nonzeros near the diagonal, which directly shrinks the
// inspector-executor halo (internal/inspector): after RCM, the remote
// elements a row block needs come almost entirely from neighbouring
// blocks. Experiment E16 measures that coupling.
package order

import (
	"fmt"
	"sort"

	"hpfcg/internal/sparse"
)

// Permutation maps new index -> old index (perm[new] = old).
type Permutation []int

// Inverse returns the old -> new mapping.
func (p Permutation) Inverse() Permutation {
	inv := make(Permutation, len(p))
	for newIdx, oldIdx := range p {
		inv[oldIdx] = newIdx
	}
	return inv
}

// Valid reports whether p is a permutation of [0, len(p)).
func (p Permutation) Valid() bool {
	seen := make([]bool, len(p))
	for _, v := range p {
		if v < 0 || v >= len(p) || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

// RCM computes the Reverse Cuthill-McKee ordering of the symmetric
// pattern of A (the pattern of A+A^T is used, so mildly nonsymmetric
// inputs are fine). Disconnected components are ordered one after
// another, each from a pseudo-peripheral start node.
func RCM(A *sparse.CSR) Permutation {
	n := A.NRows
	adj := symmetricAdjacency(A)
	deg := make([]int, n)
	for i := range adj {
		deg[i] = len(adj[i])
	}

	visited := make([]bool, n)
	order := make([]int, 0, n)
	for start := 0; start < n; start++ {
		if visited[start] {
			continue
		}
		root := pseudoPeripheral(adj, deg, start)
		// Cuthill-McKee BFS from root, neighbours by increasing degree.
		queue := []int{root}
		visited[root] = true
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			order = append(order, v)
			next := make([]int, 0, len(adj[v]))
			for _, w := range adj[v] {
				if !visited[w] {
					visited[w] = true
					next = append(next, w)
				}
			}
			sort.Slice(next, func(a, b int) bool {
				if deg[next[a]] != deg[next[b]] {
					return deg[next[a]] < deg[next[b]]
				}
				return next[a] < next[b]
			})
			queue = append(queue, next...)
		}
	}
	// Reverse for RCM.
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return order
}

// symmetricAdjacency builds sorted adjacency lists of A+A^T's
// off-diagonal pattern.
func symmetricAdjacency(A *sparse.CSR) [][]int {
	n := A.NRows
	sets := make([]map[int]bool, n)
	for i := range sets {
		sets[i] = map[int]bool{}
	}
	for i := 0; i < n; i++ {
		for k := A.RowPtr[i]; k < A.RowPtr[i+1]; k++ {
			j := A.Col[k]
			if j == i || j >= n {
				continue
			}
			sets[i][j] = true
			sets[j][i] = true
		}
	}
	adj := make([][]int, n)
	for i, s := range sets {
		adj[i] = make([]int, 0, len(s))
		for j := range s {
			adj[i] = append(adj[i], j)
		}
		sort.Ints(adj[i])
	}
	return adj
}

// pseudoPeripheral finds a node of near-maximal eccentricity in the
// component of start (the George-Liu heuristic: repeat BFS from the
// farthest minimum-degree node until the eccentricity stops growing).
func pseudoPeripheral(adj [][]int, deg []int, start int) int {
	root := start
	lastEcc := -1
	for {
		levels, ecc := bfsLevels(adj, root)
		if ecc <= lastEcc {
			return root
		}
		lastEcc = ecc
		// Pick a minimum-degree node in the last level.
		best, bestDeg := -1, int(^uint(0)>>1)
		for v, lv := range levels {
			if lv == ecc && deg[v] < bestDeg {
				best, bestDeg = v, deg[v]
			}
		}
		if best < 0 || best == root {
			return root
		}
		root = best
	}
}

// bfsLevels returns per-node BFS levels (-1 = unreachable) and the
// eccentricity of the root within its component.
func bfsLevels(adj [][]int, root int) ([]int, int) {
	levels := make([]int, len(adj))
	for i := range levels {
		levels[i] = -1
	}
	levels[root] = 0
	queue := []int{root}
	ecc := 0
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range adj[v] {
			if levels[w] < 0 {
				levels[w] = levels[v] + 1
				if levels[w] > ecc {
					ecc = levels[w]
				}
				queue = append(queue, w)
			}
		}
	}
	return levels, ecc
}

// PermuteSym returns P·A·P^T for the permutation (perm[new] = old):
// entry (i, j) of the result is A(perm[i], perm[j]). Symmetry and
// values are preserved; only the labelling changes.
func PermuteSym(A *sparse.CSR, perm Permutation) *sparse.CSR {
	n := A.NRows
	if len(perm) != n || n != A.NCols {
		panic(fmt.Sprintf("order: permutation length %d for %dx%d matrix", len(perm), A.NRows, A.NCols))
	}
	inv := perm.Inverse()
	coo := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		for k := A.RowPtr[i]; k < A.RowPtr[i+1]; k++ {
			coo.Add(inv[i], inv[A.Col[k]], A.Val[k])
		}
	}
	return coo.ToCSR()
}

// Bandwidth returns max |i - j| over the stored entries of A.
func Bandwidth(A *sparse.CSR) int {
	bw := 0
	for i := 0; i < A.NRows; i++ {
		for k := A.RowPtr[i]; k < A.RowPtr[i+1]; k++ {
			d := i - A.Col[k]
			if d < 0 {
				d = -d
			}
			if d > bw {
				bw = d
			}
		}
	}
	return bw
}
