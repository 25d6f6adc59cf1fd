package hpfcg_test

import (
	"fmt"

	"hpfcg"
	"hpfcg/internal/sparse"
)

// Solve a small Poisson system on a simulated 4-processor hypercube
// with the paper's Scenario 1 layout.
func ExampleSolve() {
	A := sparse.Laplace2D(16, 16)
	b := sparse.Ones(A.NRows)
	res, err := hpfcg.Solve(A, b, hpfcg.SolveSpec{
		Method: hpfcg.MethodCG,
		Layout: hpfcg.LayoutCSR,
		NP:     4,
		Tol:    1e-10,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("converged=%v n=%d np-invariant-iterations=%d\n",
		res.Stats.Converged, A.NRows, res.Stats.Iterations)
	// Output: converged=true n=256 np-invariant-iterations=31
}

// The Scenario 2 layouts: the same system solved with the HPF-1
// serialized execution and with the proposed PRIVATE/MERGE(+)
// extension — identical numerics, different cost.
func ExampleSolve_scenario2() {
	A := sparse.Banded(128, 3)
	b := sparse.RandomVector(128, 1)
	serial, err := hpfcg.Solve(A, b, hpfcg.SolveSpec{
		Layout: hpfcg.LayoutCSCSerial, NP: 4, Tol: 1e-10,
	})
	if err != nil {
		panic(err)
	}
	merged, err := hpfcg.Solve(A, b, hpfcg.SolveSpec{
		Layout: hpfcg.LayoutCSCMerge, NP: 4, Tol: 1e-10,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("same iterations: %v\n", serial.Stats.Iterations == merged.Stats.Iterations)
	fmt.Printf("extension faster: %v\n", merged.Run.ModelTime < serial.Run.ModelTime)
	// Output:
	// same iterations: true
	// extension faster: true
}

// Balanced (whole-row, nonzero-weighted) distribution for an irregular
// matrix — the paper's CG_BALANCED_PARTITIONER_1.
func ExampleSolve_balanced() {
	A := sparse.PowerLawClustered(500, 120, 9)
	b := sparse.RandomVector(500, 2)
	plain, err := hpfcg.Solve(A, b, hpfcg.SolveSpec{NP: 4, Tol: 1e-8})
	if err != nil {
		panic(err)
	}
	bal, err := hpfcg.Solve(A, b, hpfcg.SolveSpec{NP: 4, Tol: 1e-8, Layout: hpfcg.LayoutBalanced})
	if err != nil {
		panic(err)
	}
	fmt.Printf("imbalance improves: %v\n", bal.Run.FlopImbalance() < plain.Run.FlopImbalance())
	// Output: imbalance improves: true
}
