// Package topology models the interconnection networks the paper's
// communication analysis is parameterised over (hypercube, ring, 2-D
// mesh, fully connected). A Topology supplies hop distances between
// ranks; the analytic cost formulas from §4 of the paper (following
// Kumar et al., "Introduction to Parallel Computing") live here too so
// experiments can compare simulated collective costs against the
// closed-form expressions the paper quotes.
package topology

import (
	"fmt"
	"math/bits"
)

// Topology describes a static point-to-point interconnection network of
// np processors. Distance reports the number of hops a message between
// two ranks traverses; it is used by the communication cost model.
type Topology interface {
	// Distance returns the hop count between ranks a and b on an
	// np-processor instance of this network. Distance(a, a, np) == 0.
	Distance(a, b, np int) int
	// Diameter returns the maximum hop distance on an np-processor
	// instance.
	Diameter(np int) int
}

// Hypercube is a binary d-cube; rank i connects to i^2^k for each bit k.
// When np is not a power of two the network is the smallest enclosing
// cube with the unused corners removed (distances are still Hamming
// distances).
type Hypercube struct{}

// Distance implements Topology: Hamming distance between the ranks.
func (Hypercube) Distance(a, b, np int) int {
	return bits.OnesCount(uint(a ^ b))
}

// Diameter implements Topology: the cube dimension ceil(log2 np).
func (Hypercube) Diameter(np int) int { return Log2Ceil(np) }

// Ring is a bidirectional ring; messages take the shorter way round.
type Ring struct{}

// Distance implements Topology.
func (Ring) Distance(a, b, np int) int {
	d := a - b
	if d < 0 {
		d = -d
	}
	if np-d < d {
		d = np - d
	}
	return d
}

// Diameter implements Topology.
func (Ring) Diameter(np int) int { return np / 2 }

// Mesh2D is a 2-D mesh (no wraparound) with near-square dimensions
// chosen by Dims. Ranks are laid out row-major.
type Mesh2D struct{}

// Distance implements Topology: Manhattan distance on the grid.
func (Mesh2D) Distance(a, b, np int) int {
	_, cols := Dims(np)
	ar, ac := a/cols, a%cols
	br, bc := b/cols, b%cols
	dr, dc := ar-br, ac-bc
	if dr < 0 {
		dr = -dr
	}
	if dc < 0 {
		dc = -dc
	}
	return dr + dc
}

// Diameter implements Topology.
func (Mesh2D) Diameter(np int) int {
	rows, cols := Dims(np)
	return (rows - 1) + (cols - 1)
}

// FullyConnected is a crossbar: every pair of distinct ranks is one hop
// apart. It is the "communication distance does not matter" reference.
type FullyConnected struct{}

// Distance implements Topology.
func (FullyConnected) Distance(a, b, np int) int {
	if a == b {
		return 0
	}
	return 1
}

// Diameter implements Topology.
func (FullyConnected) Diameter(np int) int {
	if np <= 1 {
		return 0
	}
	return 1
}

// ByName returns the topology with the given name. It is used by the
// CLIs to select a network from a flag.
func ByName(name string) (Topology, error) {
	switch name {
	case "hypercube":
		return Hypercube{}, nil
	case "ring":
		return Ring{}, nil
	case "mesh2d":
		return Mesh2D{}, nil
	case "full":
		return FullyConnected{}, nil
	}
	return nil, fmt.Errorf("topology: unknown topology %q", name)
}

// Dims factors np into the most nearly square rows x cols grid with
// rows*cols == np and rows <= cols.
func Dims(np int) (rows, cols int) {
	if np <= 0 {
		return 0, 0
	}
	rows = 1
	for f := 1; f*f <= np; f++ {
		if np%f == 0 {
			rows = f
		}
	}
	return rows, np / rows
}

// Log2Ceil returns ceil(log2 n) for n >= 1, and 0 for n <= 1.
func Log2Ceil(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// CostParams are the machine constants of the paper's cost model
// (Kumar et al. notation): TStartup is the per-message start-up time
// t_s, THop the per-hop switching time t_h, TByte the per-byte transfer
// time t_w, and TFlop the time per floating-point operation.
type CostParams struct {
	TStartup float64
	THop     float64
	TByte    float64
	TFlop    float64
}

// DefaultCostParams models a fast mid-90s MPP of the kind the paper
// targets (Cray T3D / SP-2 class): ~10 us message start-up, 100 ns per
// hop, 10 ns/byte (~100 MB/s links), 10 ns per flop (~100 MFLOPS
// nodes). Only ratios matter for the reproduced shapes.
func DefaultCostParams() CostParams {
	return CostParams{
		TStartup: 10e-6,
		THop:     100e-9,
		TByte:    10e-9,
		TFlop:    10e-9,
	}
}

// PtToPtTime is the modeled cost of a single b-byte message over h hops:
// t_s + h*t_h + b*t_w.
func (c CostParams) PtToPtTime(hops, bytes int) float64 {
	return c.TStartup + float64(hops)*c.THop + float64(bytes)*c.TByte
}

// TreeBcastTime is the closed-form cost of a binomial-tree broadcast of
// a b-byte message among np processors: ceil(log2 np) sequential
// message steps. The hop term uses the topology diameter as the
// pessimistic per-step distance.
func TreeBcastTime(t Topology, c CostParams, np, bytes int) float64 {
	steps := Log2Ceil(np)
	return float64(steps) * c.PtToPtTime(t.Diameter(np), bytes)
}

// ReduceTime is the closed-form cost of a binomial-tree reduction; it
// mirrors TreeBcastTime plus the combine flops at each step.
func ReduceTime(t Topology, c CostParams, np, words int) float64 {
	steps := Log2Ceil(np)
	per := c.PtToPtTime(t.Diameter(np), words*8) + float64(words)*c.TFlop
	return float64(steps) * per
}

// AllreduceTime is reduce-to-root followed by broadcast, the
// implementation the runtime uses for arbitrary np.
func AllreduceTime(t Topology, c CostParams, np, words int) float64 {
	return ReduceTime(t, c, np, words) + TreeBcastTime(t, c, np, words*8)
}

// RingAllgatherTime is the closed-form cost of the (np-1)-step ring
// all-gather of blocks of blockBytes each: (np-1)*(t_s + t_h + m*t_w).
// This is the "all-to-all broadcast of the local vector elements" the
// paper charges to Scenario 1 (§4): with m = n/NP it is
// t_s*(NP-1) + t_w*n*(NP-1)/NP, the same asymptotic form as the
// t_s*log NP + t_w*n/NP tree expression the paper quotes for the
// hypercube, differing only in the startup coefficient.
func RingAllgatherTime(c CostParams, np, blockBytes int) float64 {
	if np <= 1 {
		return 0
	}
	return float64(np-1) * c.PtToPtTime(1, blockBytes)
}

// HypercubeAllgatherTime is the recursive-doubling all-gather cost on a
// hypercube: sum over log NP steps of t_s + 2^k*m*t_w
// = t_s*log NP + m*(NP-1)*t_w. With m = n/NP bytes per block this is
// exactly the paper's t_startup*log NP + t_comm*n/NP*(NP-1) expression
// for the all-to-all broadcast of vector p.
func HypercubeAllgatherTime(c CostParams, np, blockBytes int) float64 {
	steps := Log2Ceil(np)
	total := 0.0
	blk := blockBytes
	for k := 0; k < steps; k++ {
		total += c.PtToPtTime(1, blk)
		blk *= 2
	}
	return total
}
