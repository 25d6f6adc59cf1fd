package bench

import (
	"context"
	"fmt"

	"hpfcg/internal/comm"
	"hpfcg/internal/darray"
	"hpfcg/internal/dist"
	"hpfcg/internal/grid"
	"hpfcg/internal/report"
	"hpfcg/internal/sparse"
	"hpfcg/internal/spmv"
)

// E13 — beyond the paper's conclusion (§4: striping cannot reduce the
// communication time): a 2-D (BLOCK, BLOCK) checkerboard partition of
// the dense matrix replaces the stripe's full-vector broadcast with a
// column broadcast + row reduction of n/√NP-sized blocks. This is the
// extension ablation DESIGN.md calls out: it quantifies what HPF's
// multi-dimensional distributions (which the paper's codes never use)
// would have bought.
func E13(cfg Config) ([]*report.Table, error) {
	n := cfg.pick(1024, 256)
	dA := sparse.Banded(n, 2).ToDense()
	sA := sparse.Banded(n, 8)
	nps := []int{4, 16}
	if !cfg.Quick {
		nps = []int{4, 16, 64}
	}
	// The dense comparison, then the same one for the storage format
	// the paper cares about: sparse CSR blocks.
	kinds := []struct {
		title   string
		notes   []string
		striped buildApply
		checker func(p *comm.Proc, g grid.ProcGrid) checkerboard
	}{
		{
			fmt.Sprintf("striped vs checkerboard dense mat-vec, n=%d", n),
			[]string{
				"striped = (BLOCK,*) rows + allgather of x (Scenario 1, Figure 3)",
				"checkerboard = (BLOCK,BLOCK) + column bcast + row reduce (Kumar et al.)",
				"per-processor comm drops from O(t_w·n) to O(t_w·n/sqrt(NP)·log NP)",
			},
			func(p *comm.Proc, d dist.Contiguous) func(x, y *darray.Vector) {
				return spmv.NewDenseRowBlock(p, dA, d).Apply
			},
			func(p *comm.Proc, g grid.ProcGrid) checkerboard { return grid.NewDenseCheckerboard(p, dA, g) },
		},
		{
			fmt.Sprintf("striped vs checkerboard sparse mat-vec, banded n=%d nnz=%d", n, sA.NNZ()),
			[]string{
				"sparse twist: bytes still drop ~sqrt(NP)x, but the sparse multiply is so",
				"cheap that the checkerboard's two collectives (bcast+reduce) cost more",
				"startup latency than the single allgather — the bandwidth win only pays",
				"off for dense blocks or far larger n. An honest negative result.",
			},
			csrApply(sA),
			func(p *comm.Proc, g grid.ProcGrid) checkerboard { return grid.NewSparseCheckerboard(p, sA, g) },
		},
	}
	var tables []*report.Table
	for _, k := range kinds {
		t := &report.Table{
			ID:     "E13",
			Title:  k.title,
			Header: []string{"np", "grid", "t_striped_s", "t_checker_s", "bytes_striped", "bytes_checker"},
			Notes:  k.notes,
		}
		for _, np := range nps {
			striped, err := applyOn(cfg.machine(np), dist.NewBlock(n, np), 1, k.striped)
			if err != nil {
				return nil, err
			}
			g := grid.NewProcGrid(np)
			checker, err := cfg.machine(np).RunContext(context.Background(), func(p *comm.Proc) {
				cb := k.checker(p, g)
				var xBlock []float64
				if pr, _ := g.Coords(p.Rank()); pr == 0 {
					xBlock = make([]float64, cb.XLen())
					for i := range xBlock {
						xBlock[i] = 1
					}
				}
				cb.Apply(xBlock)
			})
			if err != nil {
				return nil, err
			}
			t.AddRowf(np, fmt.Sprintf("%dx%d", g.Rows, g.Cols),
				striped.ModelTime, checker.ModelTime, striped.TotalBytes, checker.TotalBytes)
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// checkerboard is the one face of grid's dense and sparse (BLOCK,
// BLOCK) operators that E13 runs.
type checkerboard interface {
	XLen() int
	Apply(xBlock []float64) []float64
}

// E14 — the inspector-executor alternative to Scenario 1's broadcast
// (§5.1's "expensive inspector loops", refs [15], [19], [20]): the
// one-time inspector builds a ghost schedule; each executor exchange
// then moves only the halo. The table shows the amortisation: the
// inspector costs about one extra exchange, repaid within a few CG
// iterations on a banded matrix.
func E14(cfg Config) ([]*report.Table, error) {
	n := cfg.pick(4096, 512)
	halfBand := 4
	A := sparse.Banded(n, halfBand)
	const applies = 50
	t := &report.Table{
		ID:    "E14",
		Title: fmt.Sprintf("broadcast vs inspector-executor, banded n=%d, %d applies", n, applies),
		Header: []string{"np", "t_broadcast_s", "t_ghost_s(incl_inspector)", "speedup",
			"bytes_broadcast", "bytes_ghost", "ghosts_per_proc"},
		Notes: []string{
			"ghost column includes the one-time inspector (index-list exchange)",
			"halo is 2*halfband elements per processor vs n*(NP-1)/NP for broadcast",
		},
	}
	for _, np := range cfg.npSweep() {
		if np == 1 {
			continue
		}
		d := dist.NewBlock(n, np)
		bc, err := applyOn(cfg.machine(np), d, applies, csrApply(A))
		if err != nil {
			return nil, err
		}
		var ghosts int
		gh, err := applyOn(cfg.machine(np), d, applies, ghostApply(A, &ghosts))
		if err != nil {
			return nil, err
		}
		t.AddRowf(np, bc.ModelTime, gh.ModelTime, bc.ModelTime/gh.ModelTime,
			bc.TotalBytes, gh.TotalBytes, ghosts)
	}
	return []*report.Table{t}, nil
}
