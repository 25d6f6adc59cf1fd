// Command cgsolve solves a linear system with the distributed CG
// solver family on the simulated HPF-style machine, printing solver
// and machine statistics. The matrix comes from a built-in generator
// (-matrix) or a Matrix Market file (-file). The layouts are
// hpfexec's directive programs and the methods its solver variants, so
// every solve runs through hpfexec's one prepared loop, as hpfrun's
// does.
//
// Examples:
//
//	cgsolve -matrix laplace2d:64:64 -np 8
//	cgsolve -matrix powerlaw:2000:1 -np 8 -layout balanced
//	cgsolve -matrix randspd:500:6:1 -method bicgstab -layout csc-merge
//	cgsolve -file system.mtx -method pcg -topology ring
package main

import (
	"flag"
	"fmt"
	"os"

	"hpfcg"
	"hpfcg/internal/report"
	"hpfcg/internal/sparse"
)

func main() {
	var (
		matrixSpec = flag.String("matrix", "laplace2d:32:32", "generator spec: laplace1d:n | laplace2d:nx:ny | laplace3d:nx:ny:nz | banded:n:halfband | randspd:n:nnzrow:seed | powerlaw:n:seed | nascg:S|W|A:seed")
		file       = flag.String("file", "", "Matrix Market file (overrides -matrix)")
		method     = flag.String("method", "cg", "cg | pcg | bicg | cgs | bicgstab")
		layout     = flag.String("layout", "csr", "csr | csc-serial | csc-merge | balanced (balanced: CG_BALANCED_PARTITIONER_1 rows)")
		np         = flag.Int("np", 4, "number of virtual processors")
		topo       = flag.String("topology", "hypercube", "hypercube | ring | mesh2d | full")
		tol        = flag.Float64("tol", 1e-10, "relative residual tolerance")
		maxIter    = flag.Int("maxiter", 0, "iteration cap (0 = 2n)")
		commMatrix = flag.Bool("commmatrix", false, "print the per-pair communication matrix")
		history    = flag.Bool("history", false, "print the residual history as CSV (iteration,relres)")
		quiet      = flag.Bool("q", false, "print only the summary line")
	)
	flag.Parse()
	if *np < 1 {
		fatal(fmt.Errorf("-np must be >= 1, got %d", *np))
	}

	A, err := loadMatrix(*file, *matrixSpec)
	if err != nil {
		fatal(err)
	}
	b := sparse.RandomVector(A.NRows, 42) // deterministic, nontrivial rhs

	res, err := hpfcg.Solve(A, b, hpfcg.SolveSpec{
		Method:   hpfcg.Method(*method),
		Layout:   hpfcg.Layout(*layout),
		Tol:      *tol,
		MaxIter:  *maxIter,
		NP:       *np,
		Topology: *topo,
		History:  *history,
	})
	if err != nil {
		fatal(err)
	}

	if !*quiet {
		fmt.Printf("matrix: n=%d nnz=%d\n", A.NRows, A.NNZ())
		fmt.Printf("machine: np=%d topology=%s layout=%s method=%s\n",
			*np, *topo, *layout, *method)
		fmt.Printf("solver: %s\n", res.Stats)
		fmt.Printf("model:  time=%.6gs comm=%.6gs msgs=%d bytes=%d flop_imbalance=%.3f\n",
			res.Run.ModelTime, res.Run.CommTime(), res.Run.TotalMsgs, res.Run.TotalBytes,
			res.Run.FlopImbalance())
	}
	if *history {
		fmt.Println("iteration,relres")
		for i, r := range res.Stats.History {
			fmt.Printf("%d,%.6e\n", i+1, r)
		}
	}
	if *commMatrix {
		if err := report.BytesMatrixTable("communication matrix (bytes sent)", res.Run.BytesMatrix).Render(os.Stdout); err != nil {
			fatal(err)
		}
	}
	fmt.Printf("converged=%v iters=%d relres=%.3e model_time=%.6g\n",
		res.Stats.Converged, res.Stats.Iterations, res.Stats.Residual, res.Run.ModelTime)
	if !res.Stats.Converged {
		os.Exit(2)
	}
}

func loadMatrix(file, spec string) (*sparse.CSR, error) {
	if file == "" {
		return sparse.GeneratorByName(spec)
	}
	f, err := os.Open(file)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return sparse.ReadMatrixMarket(f)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cgsolve:", err)
	os.Exit(1)
}
