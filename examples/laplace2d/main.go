// Poisson solve with method and preconditioner comparison — the
// computational-fluid-dynamics style workload of the paper's
// introduction. The example solves -∇²u = f on a square grid with a
// known manufactured solution. The operator comes from the selected
// backend (-backend): matrix-free by default, where the right-hand
// side is formed by the stencil's own MulVec and the distributed
// solves run through hpfexec.PrepareStencil with nothing ever
// assembled; or assembled, the original pipeline, where the CSR is
// materialized (from the very same spec) and run through the hpfcg
// facade. The sequential preconditioner comparison (§2: "a
// preconditioner ... will increase the speed of convergence") always
// assembles — incomplete factorizations need the explicit matrix,
// which is exactly the kind of workload the assembled path remains
// for.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"

	"hpfcg"
	"hpfcg/internal/comm"
	"hpfcg/internal/core"
	"hpfcg/internal/hpfexec"
	"hpfcg/internal/mfree"
	"hpfcg/internal/seq"
	"hpfcg/internal/topology"
)

func main() {
	backend := flag.String("backend", "mfree",
		"operator backend: mfree (matrix-free stencil) or assembled (CSR + inspector)")
	flag.Parse()
	if *backend != "mfree" && *backend != "assembled" {
		log.Fatalf("unknown -backend %q (mfree, assembled)", *backend)
	}

	const nx = 48
	spec := mfree.Spec{Stencil: "5pt", Nx: nx, Ny: nx}
	n := spec.N()

	// Manufactured solution u*(i,j) = x(1-x)·y(1-y)·e^x with
	// x=(i+1)/(nx+1), y=(j+1)/(nx+1); b = A·u* so the discrete solution
	// is exactly u*. (Not an eigenvector of the discrete Laplacian, so
	// CG needs a full Krylov build-up rather than one lucky step.)
	want := make([]float64, n)
	for i := 0; i < nx; i++ {
		for j := 0; j < nx; j++ {
			x := float64(i+1) / float64(nx+1)
			y := float64(j+1) / float64(nx+1)
			want[i*nx+j] = x * (1 - x) * y * (1 - y) * math.Exp(x)
		}
	}
	b := make([]float64, n)
	spec.MulVec(want, b) // matrix-free b = A·u*: bitwise equal to the CSR product

	fmt.Printf("Poisson problem: %dx%d grid, n=%d, nnz=%d, backend=%s\n\n",
		nx, nx, n, spec.NNZ(), *backend)

	maxErrOf := func(x []float64) float64 {
		maxErr := 0.0
		for g := range want {
			if e := math.Abs(x[g] - want[g]); e > maxErr {
				maxErr = e
			}
		}
		return maxErr
	}

	if *backend == "mfree" {
		fmt.Println("distributed matrix-free CG (z-slab stencil, hypercube):")
		fmt.Println("method    np  iters  model_time_s  max_err")
		for _, np := range []int{1, 4, 8} {
			m := comm.NewMachine(np, topology.Hypercube{}, topology.DefaultCostParams())
			pr, err := hpfexec.PrepareStencil(m, spec)
			if err != nil {
				log.Fatal(err)
			}
			out, err := pr.SolveBatch([][]float64{b}, []core.Options{{Tol: 1e-10}})
			if err != nil {
				log.Fatal(err)
			}
			res := out.Results[0]
			fmt.Printf("%-9s %-3d %-6d %-13.5g %.2e\n",
				"mfree-cg", np, res.Stats.Iterations, out.Run.ModelTime, maxErrOf(res.X))
		}
	} else {
		A, err := spec.Assemble()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("distributed solvers (row-block CSR, hypercube):")
		fmt.Println("method    np  iters  model_time_s  max_err")
		for _, method := range []hpfcg.Method{hpfcg.MethodCG, hpfcg.MethodPCG, hpfcg.MethodBiCGSTAB} {
			for _, np := range []int{1, 4, 8} {
				res, err := hpfcg.Solve(A, b, hpfcg.SolveSpec{
					Method: method, NP: np, Tol: 1e-10,
				})
				if err != nil {
					log.Fatal(err)
				}
				fmt.Printf("%-9s %-3d %-6d %-13.5g %.2e\n",
					method, np, res.Stats.Iterations, res.Run.ModelTime, maxErrOf(res.X))
			}
		}
	}

	fmt.Println("\nsequential preconditioner comparison (assembled: ic0 needs the explicit matrix):")
	fmt.Println("precond  iters  relres")
	A, err := spec.Assemble()
	if err != nil {
		log.Fatal(err)
	}
	for _, pname := range []string{"none", "jacobi", "ssor", "ic0"} {
		M, err := seq.ByName(pname, A)
		if err != nil {
			log.Fatal(err)
		}
		x := make([]float64, n)
		st, err := seq.PCG(A, M, b, x, seq.Options{Tol: 1e-10})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s %-6d %.3e\n", pname, st.Iterations, st.Residual)
	}
}
