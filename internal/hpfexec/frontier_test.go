package hpfexec

import (
	"fmt"
	"strings"
	"testing"

	"hpfcg/internal/comm"
	"hpfcg/internal/core"
	"hpfcg/internal/mfree"
	"hpfcg/internal/sparse"
)

// TestAutoIsCheapestOnTheMachine: on every CSR key the service solves
// by default (the serve_hot generator keys and randspd:320:8 Matrix
// Market uploads, at the service's np 4 and tol 1e-8, for several
// seeds), Auto's solve is bit-for-bit the explicit run of the variant
// it resolved to, and the simulated machine charges it no more modeled
// solve time than plain, s-step(2) or pipelined CG. At np 1 there is no
// latency to hide, and Auto resolves to plain. On every cell of the
// stencil grid (stencilGrid × np 1, 2, 4, 8) Auto's solve is again the
// explicit run of its variant, and is charged no more than plain CG
// (under -race, on the grids up to 4096 points).
func TestAutoIsCheapestOnTheMachine(t *testing.T) {
	type job struct {
		name string
		p    Problem
		seed int64 // the right-hand side's, and an upload's matrix's
	}
	var jobs []job
	for seed := int64(1); seed <= 3; seed++ {
		for _, spec := range []string{"laplace2d:32:32", "banded:512:4", "banded:768:2"} {
			p, err := ParseProblem(spec)
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, job{spec, p, seed})
		}
		var doc strings.Builder
		if err := sparse.WriteMatrixMarket(&doc, sparse.RandomSPD(320, 8, seed)); err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job{"upload randspd:320:8", Upload(doc.String()), seed})
	}

	type solved struct {
		ran  Variant
		x    []float64
		it   int
		span float64
	}
	solve := func(t *testing.T, p Problem, np int, v Variant, seed int64) solved {
		t.Helper()
		pr, err := Open(machine(np), p, "")
		if err != nil {
			t.Fatal(err)
		}
		if err := pr.WithVariant(v); err != nil {
			t.Fatal(err)
		}
		out, err := pr.SolveBatch([][]float64{sparse.RandomVector(pr.N(), seed)}, []core.Options{{Tol: 1e-8}})
		if err != nil {
			t.Fatal(err)
		}
		r := out.Results[0]
		if r.Err != nil || !r.Stats.Converged {
			t.Fatalf("%v: %v, converged=%v", v, r.Err, r.Stats.Converged)
		}
		return solved{r.Strategy.Variant, r.X, r.Stats.Iterations, out.SolveModelTime[0]}
	}
	// sameRun fails unless auto's solve is the explicit run got of the
	// variant auto resolved to.
	sameRun := func(t *testing.T, auto, got solved) {
		t.Helper()
		if got.it != auto.it {
			t.Errorf("auto (%v) took %d iterations, the explicit run %d", auto.ran, auto.it, got.it)
		}
		for i := range got.x {
			if got.x[i] != auto.x[i] {
				t.Fatalf("auto (%v) x[%d] = %v, the explicit run %v", auto.ran, i, auto.x[i], got.x[i])
			}
		}
	}
	for _, j := range jobs {
		t.Run(fmt.Sprintf("%s/seed=%d", j.name, j.seed), func(t *testing.T) {
			if ran := solve(t, j.p, 1, Auto(), j.seed).ran; ran != Plain() {
				t.Errorf("np=1: auto resolved to %v, want plain", ran)
			}
			auto := solve(t, j.p, 4, Auto(), j.seed)
			rows := []Variant{Plain(), SStep(2), Pipelined()}
			if auto.ran.Kind() == "sstep" && auto.ran != SStep(2) {
				rows = append(rows, auto.ran)
			}
			for _, v := range rows {
				got := solve(t, j.p, 4, v, j.seed)
				if v == auto.ran {
					sameRun(t, auto, got)
				}
				if got.span < auto.span {
					t.Errorf("auto chose %v (%.6g s), but %v is charged %.6g s", auto.ran, auto.span, v, got.span)
				}
			}
		})
	}
	for _, spec := range stencilGrid() {
		for _, np := range []int{1, 2, 4, 8} {
			t.Run(fmt.Sprintf("stencil:%s/np=%d", spec.Key(), np), func(t *testing.T) {
				if raceEnabled && spec.N() > 4096 {
					t.Skip("the race pass checks the grids up to 4096 points; larger ones run the same code")
				}
				p := Stencil(spec)
				auto, plain := solve(t, p, np, Auto(), 1), solve(t, p, np, Plain(), 1)
				explicit := plain
				if auto.ran != Plain() {
					explicit = solve(t, p, np, auto.ran, 1)
				}
				sameRun(t, auto, explicit)
				if plain.span < auto.span {
					t.Errorf("auto chose %v (%.6g s), but plain is charged %.6g s", auto.ran, auto.span, plain.span)
				}
			})
		}
	}
}

// stencilGrid is the stencil half of the auto tests: 5pt n×n and n×2n
// for n = 8…128, 27pt n³ and n×n×32 for n = 8…32 (at n = 32 the two
// coincide, and the grid holds it once).
func stencilGrid() []mfree.Spec {
	var specs []mfree.Spec
	for _, n := range []int{8, 16, 24, 32, 48, 64, 96, 128} {
		specs = append(specs, mfree.Spec{Stencil: "5pt", Nx: n, Ny: n}, mfree.Spec{Stencil: "5pt", Nx: n, Ny: 2 * n})
	}
	for _, n := range []int{8, 16, 24, 32} {
		specs = append(specs, mfree.Spec{Stencil: "27pt", Nx: n, Ny: n, Nz: n})
		if n != 32 {
			specs = append(specs, mfree.Spec{Stencil: "27pt", Nx: n, Ny: n, Nz: 32})
		}
	}
	return specs
}

// TestStencilFrontierMatchesAssembled: the stencil backend's rows,
// priced from the brick, are the rows the matrix backend prices from
// the assembled twin (Spec.Assemble over the brick's VectorDist) — the
// same entries, ghosts and per-iteration times, bit for bit. Only the
// pipelined row's Overhead differs: the twin, a matrix, knows no
// iteration floor.
func TestStencilFrontierMatchesAssembled(t *testing.T) {
	specs := append(stencilGrid(), mfree.Spec{Stencil: "5pt", Nx: 13, Ny: 1}, mfree.Spec{Stencil: "27pt", Nx: 3, Ny: 5, Nz: 9})
	for _, spec := range specs {
		A, err := spec.WithDefaults().Assemble()
		if err != nil {
			t.Fatal(err)
		}
		for _, np := range []int{1, 2, 3, 4, 8} {
			m := machine(np)
			pr, err := PrepareStencil(m, spec)
			if err != nil {
				t.Fatal(err)
			}
			b, err := spec.Brick(np)
			if err != nil {
				t.Fatal(err)
			}
			got := pr.Frontier()
			twin := (&matrixBackend{A: A, format: BackendCSR, d: b.VectorDist()}).frontier(m)
			want := []FrontierRow{twin[0], twin[len(twin)-1]}
			if len(got) != len(want) {
				t.Fatalf("%s np=%d: %d rows, want plain and pipelined", spec.Key(), np, len(got))
			}
			if got[1].Overhead <= 0 {
				t.Errorf("%s np=%d: pipelined overhead %g, want > 0", spec.Key(), np, got[1].Overhead)
			}
			got[1].Overhead = 0
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("%s np=%d: row %+v, the assembled twin's %+v", spec.Key(), np, got[i], want[i])
				}
			}
		}
	}
}

// csrFrontier is the frontier of a fresh handle over A on m's default
// csr layout.
func csrFrontier(t *testing.T, m *comm.Machine, A *sparse.CSR) []FrontierRow {
	t.Helper()
	plan, err := PlanForLayout("csr", m.NP(), A.NRows, A.NNZ())
	if err != nil {
		t.Fatal(err)
	}
	pr, err := Prepare(m, plan, A)
	if err != nil {
		t.Fatal(err)
	}
	return pr.Frontier()
}
