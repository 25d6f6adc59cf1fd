// Package hpfcg is a Go reproduction of "High Performance Fortran and
// Possible Extensions to support Conjugate Gradient Algorithms"
// (Dincer, Hawick, Choudhary, Fox — NPAC SCCS-703 / HPDC 1996).
//
// It provides, as a library:
//
//   - an SPMD message-passing machine with a Kumar-style analytic cost
//     model standing in for the paper's HPF compiler + MPP
//     (internal/comm, internal/topology);
//   - HPF's data mapping model — BLOCK/CYCLIC distributions, alignment,
//     plus the paper's proposed atom-based irregular distributions and
//     load-balancing partitioners (internal/dist, internal/partition);
//   - distributed vectors with the SAXPY / DOT_PRODUCT intrinsics
//     (internal/darray) and the two sparse matrix-vector partitionings
//     of §4 (internal/spmv);
//   - the paper's proposed language extensions as parsable directives
//     (internal/hpf), each run as written or refused at Prepare — the
//     PRIVATE/MERGE(+) region (internal/forall) under an ON PROCESSOR
//     map that must be the vectors' owner of every column;
//   - the solver family: CG, preconditioned CG, BiCG, CGS, BiCGSTAB,
//     distributed (internal/core), sequential CG, PCG and GMRES with
//     Jacobi/SSOR/IC(0) preconditioners (internal/seq), plus dense
//     direct baselines (internal/direct);
//   - beyond the paper, matrix-free stencil operators and an
//     HPCG-style multigrid preconditioner (internal/mfree, internal/mg);
//   - the NAS-CG-like benchmark kernel (internal/nas) and the
//     experiment harness that regenerates every figure-level claim
//     (internal/bench, see EXPERIMENTS.md).
//
// This file is the high-level facade — build a simulated machine, pick
// a method and a data layout, and solve — used by examples/laplace2d
// and the Example functions. Its layouts are the
// directive programs of internal/hpfexec and its methods that package's
// solver variants, so every solve runs through one loop: the prepared
// path behind cmd/hpfrun and the solver service (internal/serve,
// cmd/hpfserve), which hpfexec's conformance suite holds to the
// sequential reference.
package hpfcg

import (
	"fmt"
	"slices"

	"hpfcg/internal/comm"
	"hpfcg/internal/core"
	"hpfcg/internal/darray"
	"hpfcg/internal/hpfexec"
	"hpfcg/internal/sparse"
	"hpfcg/internal/topology"
)

// Re-exported types so facade users need only this package for common
// work; the internal packages remain available for advanced use.
type (
	// Machine is the simulated NP-processor parallel computer.
	Machine = comm.Machine
	// Proc is one virtual processor inside a Machine.Run.
	Proc = comm.Proc
	// RunStats aggregates a run's modeled time and communication.
	RunStats = comm.RunStats
	// Vector is a distributed vector.
	Vector = darray.Vector
	// CSR is a compressed-sparse-row matrix.
	CSR = sparse.CSR
	// CSC is a compressed-sparse-column matrix.
	CSC = sparse.CSC
	// SolveStats reports a distributed solve's outcome.
	SolveStats = core.Stats
)

// Config describes the simulated machine.
type Config struct {
	// NP is the processor count (>= 1).
	NP int
	// Topology is "hypercube" (default), "ring", "mesh2d" or "full".
	Topology string
}

// NewMachine builds the simulated machine for cfg under
// topology.DefaultCostParams.
func NewMachine(cfg Config) (*Machine, error) {
	if cfg.NP < 1 {
		return nil, fmt.Errorf("hpfcg: NP must be >= 1, got %d", cfg.NP)
	}
	name := cfg.Topology
	if name == "" {
		name = "hypercube"
	}
	topo, err := topology.ByName(name)
	if err != nil {
		return nil, err
	}
	return comm.NewMachine(cfg.NP, topo, topology.DefaultCostParams()), nil
}

// Method selects the iterative solver.
type Method string

// Supported methods (§2 and §2.1 of the paper). cg is hpfexec's plain
// variant; every other name is the hpfexec variant of that name.
const (
	MethodCG       Method = "cg"
	MethodPCG      Method = "pcg"  // CG with the point-Jacobi preconditioner
	MethodBiCG     Method = "bicg" // applies A^T as well as A
	MethodCGS      Method = "cgs"
	MethodBiCGSTAB Method = "bicgstab"
)

var methods = []Method{MethodCG, MethodPCG, MethodBiCG, MethodCGS, MethodBiCGSTAB}

// Layout selects the matrix storage and partitioning (§3-§4). The
// names are hpfexec.Layouts(), each a canonical directive program.
type Layout string

// Supported layouts. CSR is the paper's Scenario 1; the CSC layouts
// are Scenario 2 in its two executions (HPF-1 serialized vs the
// proposed PRIVATE/MERGE(+) extension); Balanced is Scenario 1 with
// rows redistributed by CG_BALANCED_PARTITIONER_1 (whole rows, stored
// entries balanced — §5.2.2). On the CSR layouts hpfexec picks the
// halo or the broadcast executor from the halo width it measures, for
// every method but BiCG, whose A^T only the broadcast executor applies.
const (
	LayoutCSR       Layout = "csr"
	LayoutCSCSerial Layout = "csc-serial"
	LayoutCSCMerge  Layout = "csc-merge"
	LayoutBalanced  Layout = "balanced"
)

// SolveSpec configures a distributed solve.
type SolveSpec struct {
	Method Method // default MethodCG
	Layout Layout // default LayoutCSR
	// Tol is the relative-residual tolerance (0 -> 1e-10).
	Tol float64
	// MaxIter caps iterations (0 -> 2n).
	MaxIter int
	// History records the per-iteration relative residual in
	// Result.Stats.History.
	History bool
	// Machine configuration.
	NP       int
	Topology string
}

// Result is a completed distributed solve.
type Result struct {
	// X is the gathered solution vector.
	X []float64
	// Stats reports convergence and operation counts.
	Stats SolveStats
	// Run reports modeled time, communication and load balance.
	Run RunStats
}

// Solve runs A·x = b on a simulated machine per spec and returns the
// solution with solver and machine statistics.
func Solve(A *CSR, b []float64, spec SolveSpec) (*Result, error) {
	if A.NRows != A.NCols {
		return nil, fmt.Errorf("hpfcg: matrix must be square, got %dx%d", A.NRows, A.NCols)
	}
	if len(b) != A.NRows {
		return nil, fmt.Errorf("hpfcg: rhs length %d != %d", len(b), A.NRows)
	}
	if spec.Tol < 0 {
		return nil, fmt.Errorf("hpfcg: negative tolerance %g", spec.Tol)
	}
	if spec.MaxIter < 0 {
		return nil, fmt.Errorf("hpfcg: negative iteration cap %d", spec.MaxIter)
	}
	if spec.Method == "" {
		spec.Method = MethodCG
	}
	if spec.Layout == "" {
		spec.Layout = LayoutCSR
	}
	if spec.NP == 0 {
		spec.NP = 1
	}
	if !slices.Contains(methods, spec.Method) {
		return nil, fmt.Errorf("hpfcg: unknown method %q (have %v)", spec.Method, methods)
	}
	if !slices.Contains(hpfexec.Layouts(), string(spec.Layout)) {
		return nil, fmt.Errorf("hpfcg: unknown layout %q (have %v)", spec.Layout, hpfexec.Layouts())
	}
	variant := hpfexec.Plain()
	if spec.Method != MethodCG {
		var err error
		if variant, err = hpfexec.ParseVariant(string(spec.Method)); err != nil {
			return nil, err
		}
	}
	m, err := NewMachine(Config{NP: spec.NP, Topology: spec.Topology})
	if err != nil {
		return nil, err
	}
	// The layout's directive program, bound, prepared and solved as a
	// batch of one right-hand side.
	plan, err := hpfexec.PlanForLayout(string(spec.Layout), m.NP(), A.NRows, A.NNZ())
	if err != nil {
		return nil, err
	}
	pr, err := hpfexec.Prepare(m, plan, A)
	if err != nil {
		return nil, err
	}
	if err := pr.WithVariant(variant); err != nil {
		return nil, err
	}
	opt := core.Options{Tol: spec.Tol, MaxIter: spec.MaxIter, History: spec.History}
	out, err := pr.SolveBatch([][]float64{b}, []core.Options{opt})
	if err != nil {
		return nil, err
	}
	res := out.Results[0]
	if res.Err != nil {
		return nil, res.Err
	}
	return &Result{X: res.X, Stats: res.Stats, Run: out.Run}, nil
}
