package bench

import (
	"context"
	"fmt"
	"math"

	"hpfcg/internal/comm"
	"hpfcg/internal/core"
	"hpfcg/internal/darray"
	"hpfcg/internal/direct"
	"hpfcg/internal/dist"
	"hpfcg/internal/nas"
	"hpfcg/internal/partition"
	"hpfcg/internal/report"
	"hpfcg/internal/seq"
	"hpfcg/internal/sparse"
	"hpfcg/internal/spmv"
	"hpfcg/internal/topology"
)

// E1 — Figure 2: the HPF CSR-format CG code, run end to end on the
// distributed machine across a processor sweep. Expected shape: the
// iteration count is NP-invariant; modeled time falls with NP until
// communication startup terms flatten it.
func E1(cfg Config) ([]*report.Table, error) {
	nx := cfg.pick(96, 40)
	A := sparse.Laplace2D(nx, nx)
	n := A.NRows
	b := sparse.RandomVector(n, cfg.Seed)

	t := &report.Table{
		ID:     "E1",
		Title:  fmt.Sprintf("Figure 2 CSR CG, 2-D Laplacian n=%d (nnz=%d)", n, A.NNZ()),
		Header: []string{"np", "iters", "model_time_s", "comm_time_s", "flop_imbalance", "speedup"},
	}
	var t1 float64
	for _, np := range cfg.npSweep() {
		r, err := solveOn(cfg.machine(np), dist.NewBlock(n, np), b, false, csrOp(A), cgSolve(core.Options{Tol: 1e-8}))
		if err != nil {
			return nil, err
		}
		st, rs := r.st, r.run
		if np == 1 {
			t1 = rs.ModelTime
		}
		t.AddRowf(np, st.Iterations, rs.ModelTime, rs.CommTime(), rs.FlopImbalance(), t1/rs.ModelTime)
	}
	t.Notes = append(t.Notes,
		"iteration count must be identical across np (same arithmetic, distributed)",
		"speedup saturates as the t_s·log NP reduction terms start to dominate")
	return []*report.Table{t}, nil
}

// E2 — Figure 3 / Scenario 1: row-wise partitioned sparse mat-vec. The
// communication is the all-to-all broadcast of p; measured modeled comm
// time is compared with the paper's §4 hypercube expression
// t_s·log NP + t_w·n·(NP-1)/NP (recursive doubling, per-step form in
// topology.HypercubeAllgatherTime). The processor sweep uses powers of
// two so the hypercube algorithm is the one executed.
func E2(cfg Config) ([]*report.Table, error) {
	n := cfg.pick(4096, 512)
	A := sparse.Banded(n, 4)
	t := &report.Table{
		ID:     "E2",
		Title:  fmt.Sprintf("Scenario 1 row-block CSR mat-vec, banded n=%d", n),
		Header: []string{"np", "measured_comm_s", "predicted_comm_s", "ratio", "bytes_moved"},
		Notes: []string{
			"prediction: hypercube allgather t_s*log NP + t_w*8n*(NP-1)/NP (+hop terms)",
			"ratio ~ 1 confirms the simulator charges Scenario 1 the paper's §4 cost",
		},
	}
	hcCfg := cfg
	hcCfg.Topo = topology.Hypercube{}
	for _, np := range []int{2, 4, 8, 16} {
		if cfg.Quick && np > 4 {
			break
		}
		rs, err := applyOn(hcCfg.machine(np), dist.NewBlock(n, np), 1, csrApply(A))
		if err != nil {
			return nil, err
		}
		pred := topology.HypercubeAllgatherTime(hcCfg.Cost, np, 8*(n/np))
		meas := rs.CommTime()
		t.AddRowf(np, meas, pred, meas/pred, rs.TotalBytes)
	}
	return []*report.Table{t}, nil
}

// e3data runs one column-partitioned CSC mat-vec in each execution
// mode — serialized, the paper's dense merge, then the inspected merge,
// its one-time inspector included — and returns the three runs with the
// inspected merge's ghost rows summed over the ranks.
func e3data(cfg Config, A *sparse.CSC, np int) (ser, mer, ins comm.RunStats, ghosts int, err error) {
	d := dist.NewBlock(A.NRows, np)
	if ser, err = applyOn(cfg.machine(np), d, 1, cscApply(A, spmv.ModeSerialized)); err != nil {
		return
	}
	if mer, err = applyOn(cfg.machine(np), d, 1, cscApply(A, spmv.ModeDenseMerge)); err != nil {
		return
	}
	perRank := make([]int, np)
	ins, err = applyOn(cfg.machine(np), d, 1, func(p *comm.Proc, d dist.Contiguous) func(x, y *darray.Vector) {
		op := spmv.NewColBlockCSC(p, A, d, spmv.ModePrivateMerge)
		perRank[p.Rank()] = op.NGhosts()
		return op.Apply
	})
	for _, g := range perRank {
		ghosts += g
	}
	return
}

// E3 — Figure 4 / Scenario 2: column-wise partitioned CSC mat-vec,
// HPF-1 serialized loop vs the proposed PRIVATE/MERGE execution, dense
// as the paper writes it and over the inspected rows.
// Expected shape: similar communication volume, but the serialized
// version's compute does not scale (the modeled clock serialises it);
// the inspected merge moves only the rows a strip touches.
func E3(cfg Config) ([]*report.Table, error) {
	n := cfg.pick(4096, 512)
	A := sparse.Banded(n, 4).ToCSC()
	t := &report.Table{
		ID:     "E3",
		Title:  fmt.Sprintf("Scenario 2 col-block CSC mat-vec, banded n=%d", n),
		Header: []string{"np", "t_serialized_s", "t_merge_s", "bytes_serialized", "bytes_merge", "t_inspected_s", "bytes_inspected"},
		Notes: []string{
			"serialized = HPF-1 dependent loop (q carried rank to rank, then scattered)",
			"merge = proposed PRIVATE(q(n)) WITH MERGE(+) (reduce-scatter)",
			"inspected = the same merge over the rows each strip touches, each partial",
			"sent to its owner only (the served csc-merge; one-time inspector included)",
		},
	}
	for _, np := range cfg.npSweep() {
		ser, mer, ins, _, err := e3data(cfg, A, np)
		if err != nil {
			return nil, err
		}
		t.AddRowf(np, ser.ModelTime, mer.ModelTime, ser.TotalBytes, mer.TotalBytes, ins.ModelTime, ins.TotalBytes)
	}
	return []*report.Table{t}, nil
}

// E4 — Figure 5 / §5.1: what the PRIVATE/MERGE extension buys — the
// speedup over the serialized loop — and what it costs — NP·n words of
// temporary storage ("unsatisfactory ... particularly if n >> NP"),
// which the inspected merge cuts to n words plus the touched ghost rows.
func E4(cfg Config) ([]*report.Table, error) {
	n := cfg.pick(4096, 512)
	A := sparse.Banded(n, 4).ToCSC()
	t := &report.Table{
		ID:     "E4",
		Title:  fmt.Sprintf("PRIVATE WITH MERGE(+) extension, CSC mat-vec n=%d", n),
		Header: []string{"np", "speedup_vs_serialized", "max_flops_serial", "max_flops_merge", "private_storage_KiB", "private_storage_inspected_KiB"},
		Notes: []string{
			"private storage = NP*n*8 bytes of temporary vectors, the §5.1 memory cost",
			"inspected = (n + ghost rows summed over ranks)*8 bytes: owned rows plus touched rows",
		},
	}
	for _, np := range cfg.npSweep() {
		ser, mer, _, ghosts, err := e3data(cfg, A, np)
		if err != nil {
			return nil, err
		}
		t.AddRowf(np, ser.ModelTime/mer.ModelTime, ser.MaxFlops, mer.MaxFlops,
			float64(np*n*8)/1024, float64((n+ghosts)*8)/1024)
	}
	return []*report.Table{t}, nil
}

// E5 — §2/§2.1: the computational structure of the solver family, per
// iteration: matrix products, transpose products, inner products and
// SAXPYs. CG, BiCG, CGS and BiCGSTAB are core's recurrences at np 1 on
// the broadcast row-block executor (the one hpfexec's plain, bicg, cgs
// and bicgstab variants run); GMRES, which has no distributed form, is
// seq's.
func E5(cfg Config) ([]*report.Table, error) {
	nx := cfg.pick(20, 8)
	A := sparse.Laplace2D(nx, nx)
	n := A.NRows
	b := sparse.RandomVector(n, cfg.Seed)
	t := &report.Table{
		ID:     "E5",
		Title:  fmt.Sprintf("per-iteration computational structure, 2-D Laplacian n=%d", n),
		Header: []string{"method", "iters", "matvec/it", "matvecT/it", "dot/it", "axpy/it"},
		Notes: []string{
			"paper §2: CG = 1 matvec, 2 inner products, ~3 SAXPY per iteration",
			"paper §2.1: BiCG adds one A^T product; BiCGSTAB has 4 inner products (+1 stop test)",
		},
	}
	// row subtracts the setup r = b − A·x (1 matvec, 1 axpy) and its
	// two norms.
	row := func(name string, iters, matvecs, matvecsT, dots, axpys int) {
		it := float64(iters)
		t.AddRowf(name, iters, float64(matvecs-1)/it, float64(matvecsT)/it,
			float64(dots-2)/it, float64(axpys-1)/it)
	}
	opt := core.Options{Tol: 1e-9}
	solvers := []struct {
		name  string
		solve solveFn
	}{
		{"cg", cgSolve(opt)},
		{"bicg", func(p *comm.Proc, op spmv.Operator, b, x *darray.Vector) (core.Stats, error) {
			return core.BiCG(p, op.(spmv.TransposeOperator), b, x, opt)
		}},
		{"cgs", func(p *comm.Proc, op spmv.Operator, b, x *darray.Vector) (core.Stats, error) {
			return core.CGS(p, op, b, x, opt)
		}},
		{"bicgstab", func(p *comm.Proc, op spmv.Operator, b, x *darray.Vector) (core.Stats, error) {
			return core.BiCGSTAB(p, op, b, x, opt)
		}},
	}
	for _, s := range solvers {
		out, err := solveOn(cfg.machine(1), dist.NewBlock(n, 1), b, false, csrOp(A), s.solve)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
		st := out.st
		row(s.name, st.Iterations, st.MatVecs, st.TransMatVecs, st.DotProducts, st.AXPYs)
	}
	x := make([]float64, n)
	st, err := seq.GMRES(A, b, x, 20, seq.Options{Tol: 1e-9, MaxIter: 40 * n})
	if err != nil {
		return nil, fmt.Errorf("gmres(20): %w", err)
	}
	row("gmres(20)", st.Iterations, st.MatVecs, 0, st.DotProducts, st.AXPYs)
	return []*report.Table{t}, nil
}

// E6 — §2.1: the BiCG transpose penalty under a row-block
// distribution: A^T·x re-introduces the merge phase the forward
// product avoided.
func E6(cfg Config) ([]*report.Table, error) {
	n := cfg.pick(4096, 512)
	A := sparse.RandomSPD(n, 6, cfg.Seed)
	t := &report.Table{
		ID:     "E6",
		Title:  fmt.Sprintf("transpose product penalty (row-block CSR), randspd n=%d", n),
		Header: []string{"np", "t_apply_s", "t_applyT_s", "ratio", "bytes_apply", "bytes_applyT"},
		Notes: []string{
			"§2.1: \"any storage distribution optimisations made on the basis of row access",
			"vs. column access will be negated with the use of BiCG\"",
		},
	}
	for _, np := range cfg.npSweep() {
		if np == 1 {
			continue
		}
		d := dist.NewBlock(n, np)
		fwd, err := applyOn(cfg.machine(np), d, 1, csrApply(A))
		if err != nil {
			return nil, err
		}
		bwd, err := applyOn(cfg.machine(np), d, 1, func(p *comm.Proc, d dist.Contiguous) func(x, y *darray.Vector) {
			return spmv.NewRowBlockCSR(p, A, d).ApplyT
		})
		if err != nil {
			return nil, err
		}
		t.AddRowf(np, fwd.ModelTime, bwd.ModelTime, bwd.ModelTime/fwd.ModelTime,
			fwd.TotalBytes, bwd.TotalBytes)
	}
	return []*report.Table{t}, nil
}

// E7 — §5.2.1: what plain element-level BLOCK does to the sparse trio
// (splits rows/columns across processors) versus the proposed
// ATOM:BLOCK redistribution (never splits an atom).
func E7(cfg Config) ([]*report.Table, error) {
	n := cfg.pick(2000, 300)
	A := sparse.PowerLaw(n, 1.1, n/8, cfg.Seed)
	atoms := partition.AtomsFromPtr(A.RowPtr)
	t := &report.Table{
		ID:     "E7",
		Title:  fmt.Sprintf("INDIVISABLE atoms vs element BLOCK, power-law n=%d nnz=%d", n, A.NNZ()),
		Header: []string{"np", "rows_split_by_BLOCK", "rows_split_by_ATOM_BLOCK", "atom_block_imbalance"},
		Notes: []string{
			"a split row forces intra-row communication during the multiply (§5.2.1)",
			"ATOM:BLOCK by construction never splits; its cost is element imbalance",
		},
	}
	for _, np := range cfg.npSweep() {
		if np == 1 {
			continue
		}
		splits := partition.SplitCount(atoms, np)
		cuts := partition.UniformAtomBlock(atoms.NAtoms(), np)
		imb := partition.Imbalance(atoms.Weights(), cuts)
		t.AddRowf(np, splits, 0, imb)
	}
	return []*report.Table{t}, nil
}

// E8 — §5.2.2: load-balancing partitioners on an irregular matrix:
// uniform atom blocks vs the greedy heuristic vs the optimal
// contiguous partitioner (CG_BALANCED_PARTITIONER_1), measured as nnz
// imbalance and as modeled time of a full distributed CG solve.
func E8(cfg Config) ([]*report.Table, error) {
	n := cfg.pick(2000, 300)
	np := cfg.pick(8, 4)
	// Clustered heavy rows: the §5.2.2 "identifiable to a human but not
	// to a compiler" structure that defeats uniform distributions. The
	// density (maxDeg = n/2) keeps the multiply compute-dominated so the
	// partitioning effect is visible above the communication terms.
	A := sparse.PowerLawClustered(n, n/2, cfg.Seed)
	atoms := partition.AtomsFromPtr(A.RowPtr)
	weights := atoms.Weights()

	t := &report.Table{
		ID:     "E8",
		Title:  fmt.Sprintf("CG_BALANCED_PARTITIONER_1, power-law n=%d nnz=%d np=%d", n, A.NNZ(), np),
		Header: []string{"partitioner", "nnz_imbalance", "bottleneck_nnz", "spmv_model_time_s", "flop_imbalance"},
		Notes: []string{
			"rows are atoms: every partitioner keeps rows whole (INDIVISABLE)",
			"timed kernel: 10 repeated mat-vec products, the operation §5.2.2 balances",
		},
	}
	cases := []struct {
		name string
		cuts []int
	}{
		{"uniform_atom_block", partition.UniformAtomBlock(len(weights), np)},
		{"greedy", partition.GreedyContiguous(weights, np)},
		{"balanced_optimal", partition.BalancedContiguous(weights, np)},
	}
	for _, c := range cases {
		// Row cut points = vector cut points.
		rs, err := applyOn(cfg.machine(np), dist.NewIrregular(c.cuts), 10, csrApply(A))
		if err != nil {
			return nil, err
		}
		t.AddRowf(c.name, partition.Imbalance(weights, c.cuts),
			partition.Bottleneck(weights, c.cuts), rs.ModelTime, rs.FlopImbalance())
	}
	return []*report.Table{t}, nil
}

// E9 — §2: convergence properties. Table 1: CG finishes in at most n_e
// iterations where n_e is the number of distinct eigenvalues. Table 2:
// preconditioning (Jacobi/SSOR/IC(0)) cuts the iteration count on an
// ill-conditioned system.
func E9(cfg Config) ([]*report.Table, error) {
	t1 := &report.Table{
		ID:     "E9",
		Title:  "CG iterations vs number of distinct eigenvalues",
		Header: []string{"n", "distinct_eigenvalues", "iters", "bound_respected"},
	}
	n := cfg.pick(256, 64)
	for _, ne := range []int{1, 2, 4, 8, 16} {
		eigs := make([]float64, n)
		for i := range eigs {
			eigs[i] = float64(1 + 10*(i%ne))
		}
		A := sparse.DiagWithEigenvalues(eigs)
		b := sparse.RandomVector(n, cfg.Seed)
		x := make([]float64, n)
		st, err := seq.CG(A, b, x, seq.Options{Tol: 1e-12})
		if err != nil {
			return nil, err
		}
		t1.AddRowf(n, ne, st.Iterations, st.Iterations <= ne)
	}

	t2 := &report.Table{
		ID:     "E9",
		Title:  "preconditioned CG on an ill-conditioned scaled Laplacian",
		Header: []string{"preconditioner", "iters", "converged", "relres"},
	}
	nx := cfg.pick(24, 10)
	L := sparse.Laplace2D(nx, nx)
	nn := L.NRows
	s := make([]float64, nn)
	for i := range s {
		s[i] = 1 + 40*float64(i)/float64(nn)
	}
	coo := sparse.NewCOO(nn, nn)
	for i := 0; i < nn; i++ {
		for k := L.RowPtr[i]; k < L.RowPtr[i+1]; k++ {
			coo.Add(i, L.Col[k], L.Val[k]*s[i]*s[L.Col[k]])
		}
	}
	A := coo.ToCSR()
	b := sparse.Ones(nn)
	for _, pname := range []string{"none", "jacobi", "ssor", "ic0"} {
		M, err := seq.ByName(pname, A)
		if err != nil {
			return nil, err
		}
		x := make([]float64, nn)
		st, err := seq.PCG(A, M, b, x, seq.Options{Tol: 1e-10, MaxIter: 10 * nn})
		if err != nil {
			return nil, err
		}
		t2.AddRowf(pname, st.Iterations, st.Converged, st.Residual)
	}
	return []*report.Table{t1, t2}, nil
}

// E10 — §4: the vector-operation cost claims. SAXPY runs in O(n/NP)
// with no communication; DOT_PRODUCT adds a t_s·log NP merge.
func E10(cfg Config) ([]*report.Table, error) {
	n := cfg.pick(1<<16, 1<<12)
	t := &report.Table{
		ID:     "E10",
		Title:  fmt.Sprintf("SAXPY and DOT_PRODUCT scaling, n=%d", n),
		Header: []string{"np", "axpy_measured_s", "axpy_predicted_s", "dot_measured_s", "dot_predicted_s", "dot_msgs"},
		Notes: []string{
			"axpy prediction: 2(n/NP)·t_f, no communication (§4)",
			"dot prediction: 2(n/NP)·t_f + 2·ceil(log2 NP)·t_s merge (reduce+bcast)",
		},
	}
	for _, np := range cfg.npSweep() {
		d := dist.NewBlock(n, np)
		axpyRS, err := cfg.machine(np).RunContext(context.Background(), func(p *comm.Proc) {
			v := darray.New(p, d)
			w := darray.New(p, d)
			v.AXPY(2, w)
		})
		if err != nil {
			return nil, err
		}
		dotRS, err := cfg.machine(np).RunContext(context.Background(), func(p *comm.Proc) {
			v := darray.New(p, d)
			v.Fill(1)
			v.Dot(v)
		})
		if err != nil {
			return nil, err
		}
		blk := (n + np - 1) / np
		axpyPred := 2 * float64(blk) * cfg.Cost.TFlop
		steps := float64(topology.Log2Ceil(np))
		dotPred := 2*float64(blk)*cfg.Cost.TFlop + 2*steps*cfg.Cost.TStartup + steps*cfg.Cost.TFlop
		t.AddRowf(np, axpyRS.ModelTime, axpyPred, dotRS.ModelTime, dotPred, dotRS.TotalMsgs)
	}
	return []*report.Table{t}, nil
}

// E11 — §1 (NAS/PARKBENCH): the NAS-CG kernel, sequential and
// distributed, with the zeta trajectory as the verification signal.
func E11(cfg Config) ([]*report.Table, error) {
	cls := sparse.NASClassS
	if cfg.Quick {
		cls = sparse.NASCGClass{Name: "mini", N: 256, Nonzer: 5, Shift: 8, NIter: 10}
	}
	A := sparse.NASCGMatrix(cls, cfg.Seed)
	seqRes := nas.RunWithMatrix(cls, A)
	if err := nas.Verify(seqRes); err != nil {
		return nil, err
	}
	t := &report.Table{
		ID:     "E11",
		Title:  fmt.Sprintf("NAS-CG-like kernel, class %s (n=%d nonzer=%d shift=%g)", cls.Name, cls.N, cls.Nonzer, cls.Shift),
		Header: []string{"config", "zeta_first", "zeta_final", "matvecs", "model_time_s"},
		Notes: []string{
			"matrix is the documented makea substitution (DESIGN.md): trajectory shape,",
			"not the published verification value, is the reproduction target",
		},
	}
	t.AddRowf("sequential", seqRes.Zetas[0], seqRes.FinalZeta(), seqRes.MatVecs, "-")
	for _, np := range []int{2, 4} {
		var res nas.Result
		rs, err := cfg.machine(np).RunContext(context.Background(), func(p *comm.Proc) {
			r := nas.RunDistributed(p, cls, A)
			if p.Rank() == 0 {
				res = r
			}
		})
		if err != nil {
			return nil, err
		}
		if err := nas.Verify(res); err != nil {
			return nil, err
		}
		t.AddRowf(fmt.Sprintf("distributed np=%d", np), res.Zetas[0], res.FinalZeta(), res.MatVecs, rs.ModelTime)
	}
	return []*report.Table{t}, nil
}

// E12 — §1: the motivation for iterative methods — dense Gaussian
// elimination vs sparse CG in arithmetic work and storage, as the
// problem grows. Both solvers run (and must agree); the table reports
// counted flops, not stopwatches.
func E12(cfg Config) ([]*report.Table, error) {
	sizes := []int{64, 128, 256, 512}
	if cfg.Quick {
		sizes = []int{32, 64}
	}
	t := &report.Table{
		ID:     "E12",
		Title:  "direct (dense LU) vs iterative (sparse CG), 2-D Laplacian",
		Header: []string{"n", "nnz", "lu_flops", "cg_flops", "flop_ratio", "dense_storage_KiB", "sparse_storage_KiB", "cg_iters"},
		Notes: []string{
			"§1: iterative methods are preferred \"when A is very large and sparse, and where",
			"storage space for the full matrix would either be impractical or too slow\"",
			"lu_flops = 2n³/3 (elimination) + 2n² (the two triangular solves); cg_flops =",
			"2·nnz per mat-vec + 2n per dot product and per SAXPY, from the solver's own counters.",
		},
	}
	for _, n := range sizes {
		side := 1
		for side*side < n {
			side++
		}
		A := sparse.Laplace2D(side, side)
		nn := A.NRows
		b := sparse.Ones(nn)

		xLU, err := direct.SolveCSR(A, b)
		if err != nil {
			return nil, err
		}
		x := make([]float64, nn)
		st, err := seq.CG(A, b, x, seq.Options{Tol: 1e-10})
		if err != nil {
			return nil, err
		}
		for i := range x {
			if d := math.Abs(x[i] - xLU[i]); d > 1e-6*(1+math.Abs(xLU[i])) {
				return nil, fmt.Errorf("E12 n=%d: CG and LU disagree at x[%d]: %g vs %g", nn, i, x[i], xLU[i])
			}
		}

		fn := float64(nn)
		luFlops := 2*fn*fn*fn/3 + 2*fn*fn
		cgFlops := float64(st.MatVecs)*2*float64(A.NNZ()) + float64(st.DotProducts+st.AXPYs)*2*fn
		denseKiB := float64(nn*nn*8) / 1024
		sparseKiB := float64(A.NNZ()*16+(nn+1)*8) / 1024
		t.AddRowf(nn, A.NNZ(), luFlops, cgFlops, luFlops/cgFlops, denseKiB, sparseKiB, st.Iterations)
	}
	return []*report.Table{t}, nil
}
