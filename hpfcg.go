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
//   - the paper's proposed language extensions as runtime constructs —
//     PRIVATE/MERGE(+), ON PROCESSOR iteration maps (internal/forall) —
//     and as parsable directives (internal/hpf);
//   - the solver family: CG, preconditioned CG, BiCG, CGS, BiCGSTAB,
//     distributed (internal/core) and sequential with GMRES and
//     Jacobi/SSOR/IC(0) preconditioners (internal/seq), plus dense
//     direct baselines (internal/direct);
//   - beyond the paper, matrix-free stencil operators and an
//     HPCG-style multigrid preconditioner (internal/mfree, internal/mg);
//   - the NAS-CG-like benchmark kernel (internal/nas) and the
//     experiment harness that regenerates every figure-level claim
//     (internal/bench, see EXPERIMENTS.md).
//
// This file is the high-level facade — build a simulated machine, pick
// a method and a data layout, and solve — used by cmd/cgsolve,
// examples/laplace2d and the Example functions. The directive-driven
// path, a bound !HPF$/!EXT$ plan prepared once and solved in batches,
// is internal/hpfexec, behind cmd/hpfrun and the solver service
// (internal/serve, cmd/hpfserve).
package hpfcg

import (
	"fmt"

	"hpfcg/internal/comm"
	"hpfcg/internal/core"
	"hpfcg/internal/darray"
	"hpfcg/internal/dist"
	"hpfcg/internal/partition"
	"hpfcg/internal/sparse"
	"hpfcg/internal/spmv"
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
	// CostParams are the machine's communication/compute constants.
	CostParams = topology.CostParams
)

// Config describes the simulated machine.
type Config struct {
	// NP is the processor count (>= 1).
	NP int
	// Topology is "hypercube" (default), "ring", "mesh2d" or "full".
	Topology string
	// Cost holds machine constants; the zero value selects
	// topology.DefaultCostParams.
	Cost CostParams
}

// NewMachine builds the simulated machine for cfg.
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
	cost := cfg.Cost
	if cost == (CostParams{}) {
		cost = topology.DefaultCostParams()
	}
	return comm.NewMachine(cfg.NP, topo, cost), nil
}

// Method selects the iterative solver.
type Method string

// Supported methods (§2 and §2.1 of the paper).
const (
	MethodCG       Method = "cg"
	MethodPCG      Method = "pcg"  // CG with a distributed preconditioner (see SolveSpec.Precond)
	MethodBiCG     Method = "bicg" // needs a transpose-capable layout
	MethodCGS      Method = "cgs"
	MethodBiCGSTAB Method = "bicgstab"
	MethodGMRES    Method = "gmres" // restarted; see SolveSpec.Restart
)

// Layout selects the matrix storage and partitioning (§3-§4).
type Layout string

// Supported layouts. RowCSR is the paper's Scenario 1; RowCSRHalo is
// Scenario 1 with the inspector-executor ghost exchange instead of the
// broadcast (cheap for matrices with locality); the ColCSC layouts are
// Scenario 2 in its two executions (HPF-1 serialized vs the proposed
// PRIVATE/MERGE extension); the dense layouts are the Figure 3/4 dense
// variants.
const (
	LayoutRowCSR       Layout = "row-csr"
	LayoutRowCSRHalo   Layout = "row-csr-halo"
	LayoutColCSCMerge  Layout = "col-csc-merge"
	LayoutColCSCSerial Layout = "col-csc-serial"
	LayoutDenseRow     Layout = "dense-row"
	LayoutDenseCol     Layout = "dense-col"
)

// SolveSpec configures a distributed solve.
type SolveSpec struct {
	Method Method // default MethodCG
	Layout Layout // default LayoutRowCSR
	// Balanced distributes rows with CG_BALANCED_PARTITIONER_1 (whole
	// rows, nonzeros balanced — §5.2.2) instead of plain BLOCK. Only
	// valid with the row-CSR layouts.
	Balanced bool
	// Precond selects the preconditioner for MethodPCG: "jacobi"
	// (default), "block-ic0" or "block-ssor" (block-Jacobi with a local
	// IC(0)/SSOR solve per processor block).
	Precond string
	// Restart is the GMRES restart length (0 -> 30).
	Restart int
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
	Cost     CostParams
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
	n := A.NRows
	if len(b) != n {
		return nil, fmt.Errorf("hpfcg: rhs length %d != %d", len(b), n)
	}
	if spec.Method == "" {
		spec.Method = MethodCG
	}
	if spec.Layout == "" {
		spec.Layout = LayoutRowCSR
	}
	if spec.NP == 0 {
		spec.NP = 1
	}
	m, err := NewMachine(Config{NP: spec.NP, Topology: spec.Topology, Cost: spec.Cost})
	if err != nil {
		return nil, err
	}

	var d dist.Contiguous = dist.NewBlock(n, spec.NP)
	if spec.Balanced {
		if spec.Layout != LayoutRowCSR && spec.Layout != LayoutRowCSRHalo {
			return nil, fmt.Errorf("hpfcg: Balanced requires a row-CSR layout, got %s", spec.Layout)
		}
		// CG_BALANCED_PARTITIONER_1, as hpf.Plan.BindPartitioner runs
		// it: each row weighs its stored entries.
		cuts := partition.BalancedContiguous(partition.AtomsFromPtr(A.RowPtr).Weights(), spec.NP)
		d = dist.NewIrregular(cuts)
	}

	// Pre-build shared global structures outside the SPMD region.
	var csc *sparse.CSC
	var dense *sparse.Dense
	switch spec.Layout {
	case LayoutRowCSR, LayoutRowCSRHalo:
	case LayoutColCSCMerge, LayoutColCSCSerial:
		csc = A.ToCSC()
	case LayoutDenseRow, LayoutDenseCol:
		dense = A.ToDense()
	default:
		return nil, fmt.Errorf("hpfcg: unknown layout %q", spec.Layout)
	}

	res := &Result{}
	var solveErr error
	run := m.Run(func(p *Proc) {
		var op spmv.Operator
		switch spec.Layout {
		case LayoutRowCSR:
			op = spmv.NewRowBlockCSR(p, A, d)
		case LayoutRowCSRHalo:
			op = spmv.NewRowBlockCSRGhost(p, A, d)
		case LayoutColCSCMerge:
			op = spmv.NewColBlockCSC(p, csc, d, spmv.ModePrivateMerge)
		case LayoutColCSCSerial:
			op = spmv.NewColBlockCSC(p, csc, d, spmv.ModeSerialized)
		case LayoutDenseRow:
			op = spmv.NewDenseRowBlock(p, dense, d)
		case LayoutDenseCol:
			op = spmv.NewDenseColBlock(p, dense, d, spmv.ModePrivateMerge)
		}
		bv := darray.New(p, d)
		xv := darray.New(p, d)
		bv.SetGlobal(func(g int) float64 { return b[g] })
		opt := core.Options{Tol: spec.Tol, MaxIter: spec.MaxIter, History: spec.History}

		var st core.Stats
		var err error
		switch spec.Method {
		case MethodCG:
			st, err = core.CG(p, op, bv, xv, opt)
		case MethodPCG:
			var M core.Preconditioner
			switch spec.Precond {
			case "", "jacobi":
				M, err = core.NewJacobi(p, A, d)
			case "block-ic0":
				M, err = core.NewBlockJacobi(p, A, d, "ic0")
			case "block-ssor":
				M, err = core.NewBlockJacobi(p, A, d, "ssor")
			default:
				err = fmt.Errorf("hpfcg: unknown preconditioner %q", spec.Precond)
			}
			if err == nil {
				st, err = core.PCG(p, op, M, bv, xv, opt)
			}
		case MethodBiCG:
			top, ok := op.(spmv.TransposeOperator)
			if !ok {
				err = fmt.Errorf("hpfcg: layout %s cannot apply A^T (required by BiCG)", spec.Layout)
			} else {
				st, err = core.BiCG(p, top, bv, xv, opt)
			}
		case MethodCGS:
			st, err = core.CGS(p, op, bv, xv, opt)
		case MethodBiCGSTAB:
			st, err = core.BiCGSTAB(p, op, bv, xv, opt)
		case MethodGMRES:
			restart := spec.Restart
			if restart == 0 {
				restart = 30
			}
			if opt.MaxIter == 0 {
				opt.MaxIter = 20 * n // restarted GMRES converges slowly
			}
			st, err = core.GMRES(p, op, bv, xv, restart, opt)
		default:
			err = fmt.Errorf("hpfcg: unknown method %q", spec.Method)
		}
		if err != nil {
			if p.Rank() == 0 {
				solveErr = err
			}
			return
		}
		full := xv.Gather()
		if p.Rank() == 0 {
			res.X = full
			res.Stats = st
		}
	})
	if solveErr != nil {
		return nil, solveErr
	}
	res.Run = run
	return res, nil
}
