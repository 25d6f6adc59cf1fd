package hpfexec

import (
	"fmt"
	"slices"
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

// TestFrontierChoicesPinned: every CSR row's closure sizes and the
// choice Cheapest makes over them, recorded as literals — the
// served-default generator keys, randspd:320:8 at seeds 1–5 (serve_cold's
// uploads), a 128×128 mesh where plain wins and a power-law matrix, at
// np 2, 3, 4 and 8 (3 divides none of the sizes). Each row is
// {BlockEntries, Ghosts} in Frontier's order: plain, s-step 2, 4, 8,
// pipelined. The pricing's data flow may change; these numbers may not.
func TestFrontierChoicesPinned(t *testing.T) {
	for _, c := range []struct {
		spec   string
		np     int
		choice string
		rows   [][2]int
	}{
		{"randspd:320:8:1", 2, "pipelined", [][2]int{{1752, 159}, {6966, 160}, {20838, 160}, {48598, 160}, {1752, 159}}},
		{"randspd:320:8:1", 3, "pipelined", [][2]int{{1170, 208}, {5769, 214}, {19608, 214}, {47368, 214}, {1170, 208}}},
		{"randspd:320:8:1", 4, "pipelined", [][2]int{{878, 227}, {5089, 240}, {18840, 240}, {46600, 240}, {878, 227}}},
		{"randspd:320:8:1", 8, "pipelined", [][2]int{{460, 212}, {3694, 280}, {16878, 280}, {44638, 280}, {460, 212}}},
		{"randspd:320:8:2", 2, "pipelined", [][2]int{{1745, 159}, {6949, 160}, {20842, 160}, {48666, 160}, {1745, 159}}},
		{"randspd:320:8:2", 3, "pipelined", [][2]int{{1171, 210}, {5784, 214}, {19672, 214}, {47496, 214}, {1171, 210}}},
		{"randspd:320:8:2", 4, "pipelined", [][2]int{{888, 227}, {5143, 240}, {18944, 240}, {46768, 240}, {888, 227}}},
		{"randspd:320:8:2", 8, "pipelined", [][2]int{{447, 212}, {3677, 280}, {16894, 280}, {44718, 280}, {447, 212}}},
		{"randspd:320:8:3", 2, "pipelined", [][2]int{{1731, 160}, {6914, 160}, {20722, 160}, {48338, 160}, {1731, 160}}},
		{"randspd:320:8:3", 3, "pipelined", [][2]int{{1163, 209}, {5709, 214}, {19478, 214}, {47094, 214}, {1163, 209}}},
		{"randspd:320:8:3", 4, "pipelined", [][2]int{{869, 233}, {5119, 240}, {18862, 240}, {46478, 240}, {869, 233}}},
		{"randspd:320:8:3", 8, "pipelined", [][2]int{{441, 212}, {3617, 280}, {16720, 280}, {44336, 280}, {441, 212}}},
		{"randspd:320:8:4", 2, "pipelined", [][2]int{{1757, 160}, {6980, 160}, {20844, 160}, {48572, 160}, {1757, 160}}},
		{"randspd:320:8:4", 3, "pipelined", [][2]int{{1175, 212}, {5772, 214}, {19592, 214}, {47320, 214}, {1175, 212}}},
		{"randspd:320:8:4", 4, "pipelined", [][2]int{{885, 225}, {5073, 240}, {18774, 240}, {46502, 240}, {885, 225}}},
		{"randspd:320:8:4", 8, "pipelined", [][2]int{{447, 210}, {3655, 280}, {16814, 280}, {44542, 280}, {447, 210}}},
		{"randspd:320:8:5", 2, "pipelined", [][2]int{{1753, 160}, {6964, 160}, {20820, 160}, {48548, 160}, {1753, 160}}},
		{"randspd:320:8:5", 3, "pipelined", [][2]int{{1168, 212}, {5755, 214}, {19610, 214}, {47338, 214}, {1168, 212}}},
		{"randspd:320:8:5", 4, "pipelined", [][2]int{{895, 229}, {5161, 240}, {18930, 240}, {46658, 240}, {895, 229}}},
		{"randspd:320:8:5", 8, "pipelined", [][2]int{{450, 208}, {3630, 280}, {16758, 280}, {44486, 280}, {450, 208}}},
		{"laplace2d:32:32", 2, "pipelined", [][2]int{{2496, 32}, {7646, 64}, {18894, 128}, {45182, 256}, {2496, 32}}},
		{"laplace2d:32:32", 3, "pipelined", [][2]int{{1683, 64}, {5365, 128}, {14625, 256}, {40729, 512}, {1683, 64}}},
		{"laplace2d:32:32", 4, "pipelined", [][2]int{{1264, 64}, {4108, 128}, {11692, 256}, {34444, 512}, {1264, 64}}},
		{"laplace2d:32:32", 8, "pipelined", [][2]int{{632, 64}, {2212, 128}, {7268, 256}, {24964, 512}, {632, 64}}},
		{"laplace2d:128:128", 2, "plain", [][2]int{{40704, 128}, {122750, 256}, {290670, 512}, {641822, 1024}, {40704, 128}}},
		{"laplace2d:128:128", 3, "plain", [][2]int{{27219, 256}, {82933, 512}, {202017, 1024}, {470809, 2048}, {27219, 256}}},
		{"laplace2d:128:128", 4, "plain", [][2]int{{20416, 256}, {62524, 512}, {154396, 1024}, {368764, 2048}, {20416, 256}}},
		{"laplace2d:128:128", 8, "pipelined", [][2]int{{10208, 256}, {31900, 512}, {82940, 1024}, {215644, 2048}, {10208, 256}}},
		{"banded:512:4", 2, "pipelined", [][2]int{{2294, 4}, {6918, 8}, {16382, 16}, {36174, 32}, {2294, 4}}},
		{"banded:512:4", 3, "pipelined", [][2]int{{1539, 8}, {4689, 16}, {11421, 32}, {26613, 64}, {1539, 8}}},
		{"banded:512:4", 4, "pipelined", [][2]int{{1152, 8}, {3528, 16}, {8712, 32}, {20808, 64}, {1152, 8}}},
		{"banded:512:4", 8, "pipelined", [][2]int{{576, 8}, {1800, 16}, {4680, 32}, {12168, 64}, {576, 8}}},
		{"banded:768:2", 2, "pipelined", [][2]int{{1917, 2}, {5761, 4}, {13509, 8}, {29245, 16}, {1917, 2}}},
		{"banded:768:2", 3, "pipelined", [][2]int{{1280, 4}, {3860, 8}, {9140, 16}, {20180, 32}, {1280, 4}}},
		{"banded:768:2", 4, "pipelined", [][2]int{{960, 4}, {2900, 8}, {6900, 16}, {15380, 32}, {960, 4}}},
		{"banded:768:2", 8, "pipelined", [][2]int{{480, 4}, {1460, 8}, {3540, 16}, {8180, 32}, {480, 4}}},
		{"powerlaw:400:1", 2, "pipelined", [][2]int{{1553, 192}, {5814, 200}, {16724, 200}, {38596, 200}, {1553, 192}}},
		{"powerlaw:400:1", 3, "pipelined", [][2]int{{1059, 236}, {4726, 267}, {15536, 267}, {37408, 267}, {1059, 236}}},
		{"powerlaw:400:1", 4, "pipelined", [][2]int{{847, 244}, {4179, 300}, {14866, 300}, {36738, 300}, {847, 244}}},
		{"powerlaw:400:1", 8, "pipelined", [][2]int{{452, 216}, {2934, 346}, {13134, 350}, {35006, 350}, {452, 216}}},
	} {
		p, err := ParseProblem(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := Open(machine(c.np), p, "")
		if err != nil {
			t.Fatal(err)
		}
		rows := pr.Frontier()
		got := make([][2]int, len(rows))
		for i, r := range rows {
			got[i] = [2]int{r.BlockEntries, r.Ghosts}
		}
		if !slices.Equal(got, c.rows) {
			t.Errorf("%s np=%d: rows %v, want %v", c.spec, c.np, got, c.rows)
		}
		if v := Cheapest(rows).Variant.String(); v != c.choice {
			t.Errorf("%s np=%d: Cheapest chose %s, want %s", c.spec, c.np, v, c.choice)
		}
	}
}

// TestFrontierAllocs guards the price of pricing: Frontier on a
// serve_cold upload's matrix at the service's np walks one closure per
// rank for every depth, with one stamp array and two frontier buffers,
// in a constant handful of allocations (four closures per rank, each
// with its own visited array and sorted rings, took 312).
func TestFrontierAllocs(t *testing.T) {
	const want = 26
	p, err := ParseProblem("randspd:320:8:1")
	if err != nil {
		t.Fatal(err)
	}
	pr, err := Open(machine(4), p, "")
	if err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(20, func() { pr.Frontier() }); got != want {
		t.Errorf("Frontier allocated %.1f times per call, want %d", got, want)
	}
}
