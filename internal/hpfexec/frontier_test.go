package hpfexec

import (
	"fmt"
	"strings"
	"testing"

	"hpfcg/internal/core"
	"hpfcg/internal/sparse"
)

// TestAutoIsCheapestOnTheMachine: on every CSR key the service solves
// by default (the serve_hot generator keys and randspd:320:8 Matrix
// Market uploads, at the service's np 4 and tol 1e-8, for several
// seeds), Auto's solve is bit-for-bit the explicit run of the variant
// it resolved to, and the simulated machine charges it no more modeled
// solve time than plain, s-step(2) or pipelined CG. At np 1 there is no
// latency to hide, and Auto resolves to plain.
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
					if got.it != auto.it {
						t.Errorf("auto (%v) took %d iterations, the explicit run %d", auto.ran, auto.it, got.it)
					}
					for i := range got.x {
						if got.x[i] != auto.x[i] {
							t.Fatalf("auto (%v) x[%d] = %v, the explicit run %v", auto.ran, i, auto.x[i], got.x[i])
						}
					}
				}
				if got.span < auto.span {
					t.Errorf("auto chose %v (%.6g s), but %v is charged %.6g s", auto.ran, auto.span, v, got.span)
				}
			}
		})
	}
}
