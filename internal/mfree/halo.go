package mfree

import (
	"fmt"

	"hpfcg/internal/comm"
	"hpfcg/internal/grid"
	"hpfcg/internal/inspector"
)

// NewHalo builds rank p's ghost schedule over brick b from geometry
// alone. Under grid.Brick3's z-slab decomposition (every rank owns at
// least one whole z-plane) a ±1 stencil reads exactly the adjacent
// boundary plane of ranks r-1 and r+1 — nothing else, and both sides
// know it from the brick dimensions. So the send and receive lists are
// written down directly (local's first plane goes to r-1, its last to
// r+1, one X·Y plane arrives from each) and handed to
// inspector.FromLists: no request exchange, no ghost-index discovery, no
// collective of any kind. Where the inspector's Build is the setup cost
// E14/E25 price, NewHalo is free on the modeled clock — cold and warm
// prepares both report setup 0. The exchange is the inspector's own
// executor, so per-iteration traffic is exactly the assembled halo
// executor's.
func NewHalo(p *comm.Proc, b grid.Brick3) *inspector.Schedule {
	if p.NP() != b.Procs {
		panic(fmt.Sprintf("mfree: halo over brick with %d procs on machine with %d", b.Procs, p.NP()))
	}
	r, np := p.Rank(), p.NP()
	zlo, zhi := b.ZRange(r)
	n := b.X * b.Y
	nloc := (zhi - zlo) * n
	plane := func(first int) []int {
		offs := make([]int, n)
		for i := range offs {
			offs[i] = first + i
		}
		return offs
	}
	sendTo := make([][]int, np)
	recvCount := make([]int, np)
	if r > 0 {
		sendTo[r-1], recvCount[r-1] = plane(0), n
	}
	if r < np-1 {
		sendTo[r+1], recvCount[r+1] = plane(nloc-n), n
	}
	return inspector.FromLists(p, nloc, sendTo, recvCount)
}

// exchange runs the halo schedule on x's local block and splits the
// ghosts into the two planes the kernels read: low is rank r-1's top
// boundary plane (ghost z = zlo-1), high rank r+1's bottom one (ghost
// z = zhi), each nil on the domain boundary, where the kernels never
// read it. Ghosts come by ascending source rank, so low is first; the
// ghost value of in-plane coordinates (x, y) sits at slot y·X+x.
func (a *Operator) exchange(xl []float64) (low, high []float64) {
	g := a.halo.Exchange(xl)
	n := a.brick.X * a.brick.Y
	if a.zlo > 0 {
		low = g[:n]
	}
	if a.zhi < a.brick.Z {
		high = g[len(g)-n:]
	}
	return low, high
}
