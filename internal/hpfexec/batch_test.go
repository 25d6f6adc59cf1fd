package hpfexec

import (
	"math"
	"testing"

	"hpfcg/internal/comm"
	"hpfcg/internal/core"
	"hpfcg/internal/hpf"
	"hpfcg/internal/sparse"
)

// solveBatch is Prepare + SolveBatch on a fresh handle.
func solveBatch(m *comm.Machine, plan *hpf.Plan, A *sparse.CSR, rhs [][]float64, opts []core.Options) (*BatchResult, error) {
	pr, err := Prepare(m, plan, A)
	if err != nil {
		return nil, err
	}
	return pr.SolveBatch(rhs, opts)
}

// TestPlanForLayoutMatchesSolo: every canonical layout binds to a plan
// that solves, and the selected strategy matches the layout's intent.
func TestPlanForLayoutStrategies(t *testing.T) {
	const np = 4
	A := sparse.Banded(96, 3)
	b := sparse.RandomVector(96, 7)
	want := map[string]string{
		"csr":        "row-block CSR / local(ghost)",
		"csc-serial": "col-block CSC / serialized",
		"csc-merge":  "col-block CSC / private-merge",
		"balanced":   "row-block CSR / local(ghost) / balanced",
	}
	for _, layout := range Layouts() {
		plan, err := PlanForLayout(layout, np, A.NRows, A.NNZ())
		if err != nil {
			t.Fatalf("%s: %v", layout, err)
		}
		res, err := SolveCG(machine(np), plan, A, b, core.Options{Tol: 1e-10})
		if err != nil {
			t.Fatalf("%s: %v", layout, err)
		}
		if !res.Stats.Converged {
			t.Fatalf("%s: did not converge: %v", layout, res.Stats)
		}
		if got := res.Strategy.String(); got != want[layout] {
			t.Errorf("%s: strategy %q, want %q", layout, got, want[layout])
		}
	}
}

func TestPlanForLayoutUnknown(t *testing.T) {
	if _, err := PlanForLayout("btree", 4, 16, 64); err == nil {
		t.Fatal("unknown layout accepted")
	}
}

// TestBatchBitIdenticalToSolo is the service's core numerical
// guarantee: each right-hand side solved in a batch yields exactly the
// bits a solo SolveCG with the same spec produces — across layouts,
// including the balanced partitioner path.
func TestBatchBitIdenticalToSolo(t *testing.T) {
	const np, n = 4, 128
	A := sparse.Banded(n, 4)
	opt := core.Options{Tol: 1e-10}
	for _, layout := range Layouts() {
		layout := layout
		t.Run(layout, func(t *testing.T) {
			plan, err := PlanForLayout(layout, np, A.NRows, A.NNZ())
			if err != nil {
				t.Fatal(err)
			}
			rhs := make([][]float64, 6)
			for k := range rhs {
				rhs[k] = sparse.RandomVector(n, int64(100+k))
			}
			batch, err := solveBatch(machine(np), plan, A, rhs, []core.Options{opt})
			if err != nil {
				t.Fatal(err)
			}
			for k, b := range rhs {
				solo, err := SolveCG(machine(np), plan, A, b, opt)
				if err != nil {
					t.Fatalf("solo %d: %v", k, err)
				}
				br := batch.Results[k]
				if !br.Stats.Converged || br.Stats.Iterations != solo.Stats.Iterations {
					t.Fatalf("rhs %d: batch stats %v vs solo %v", k, br.Stats, solo.Stats)
				}
				for i := range solo.X {
					if br.X[i] != solo.X[i] {
						t.Fatalf("rhs %d: x[%d] batch %v != solo %v (bit-identity broken)",
							k, i, br.X[i], solo.X[i])
					}
				}
			}
		})
	}
}

// TestBatchAmortizesSetup: the batch's modeled setup span is paid once,
// and the per-stage spans tile the whole makespan.
func TestBatchAmortizesSetup(t *testing.T) {
	const np, n = 4, 256
	A := sparse.Banded(n, 4)
	plan, err := PlanForLayout("csr", np, A.NRows, A.NNZ())
	if err != nil {
		t.Fatal(err)
	}
	rhs := make([][]float64, 8)
	for k := range rhs {
		rhs[k] = sparse.RandomVector(n, int64(k+1))
	}
	batch, err := solveBatch(machine(np), plan, A, rhs, []core.Options{{Tol: 1e-10}})
	if err != nil {
		t.Fatal(err)
	}
	if batch.SetupModelTime <= 0 {
		t.Fatalf("setup model time %v, want > 0", batch.SetupModelTime)
	}
	sum := batch.SetupModelTime
	for k, s := range batch.SolveModelTime {
		if s <= 0 {
			t.Fatalf("solve %d model span %v, want > 0", k, s)
		}
		sum += s
	}
	if math.Abs(sum-batch.Run.ModelTime) > 1e-9*batch.Run.ModelTime {
		t.Fatalf("stage spans sum %v != makespan %v", sum, batch.Run.ModelTime)
	}
	// One solo run pays the same setup the whole batch paid once.
	solo, err := solveBatch(machine(np), plan, A, rhs[:1], []core.Options{{Tol: 1e-10}})
	if err != nil {
		t.Fatal(err)
	}
	perSoloSetup := solo.SetupModelTime
	perBatchSetup := batch.SetupModelTime / float64(len(rhs))
	if perBatchSetup >= perSoloSetup {
		t.Fatalf("batched setup/solve %v not below solo setup %v", perBatchSetup, perSoloSetup)
	}
}

func TestBatchValidation(t *testing.T) {
	const np = 2
	A := sparse.Laplace1D(16)
	plan, err := PlanForLayout("csr", np, A.NRows, A.NNZ())
	if err != nil {
		t.Fatal(err)
	}
	m := machine(np)
	if _, err := solveBatch(m, plan, A, nil, []core.Options{{}}); err == nil {
		t.Error("empty batch accepted")
	}
	if _, err := solveBatch(m, plan, A, [][]float64{make([]float64, 15)}, []core.Options{{}}); err == nil {
		t.Error("short rhs accepted")
	}
	rhs := [][]float64{make([]float64, 16), make([]float64, 16)}
	if _, err := solveBatch(m, plan, A, rhs, make([]core.Options, 3)); err == nil {
		t.Error("mismatched option count accepted")
	}
	for _, o := range []core.Options{{Tol: -1}, {MaxIter: -5}} {
		if _, err := solveBatch(m, plan, A, rhs, []core.Options{{}, o}); err == nil {
			t.Errorf("%+v accepted", o)
		}
	}
	bad, err := PlanForLayout("csr", np+1, A.NRows, A.NNZ())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Prepare(m, bad, A); err == nil {
		t.Error("np-mismatched plan accepted")
	}
}

// TestPreparedReuse: one Prepared handle serves several batches.
func TestPreparedReuse(t *testing.T) {
	const np, n = 2, 64
	A := sparse.Laplace1D(n)
	plan, err := PlanForLayout("csr", np, A.NRows, A.NNZ())
	if err != nil {
		t.Fatal(err)
	}
	pr, err := Prepare(machine(np), plan, A)
	if err != nil {
		t.Fatal(err)
	}
	if pr.N() != n {
		t.Fatalf("N = %d, want %d", pr.N(), n)
	}
	var first []float64
	for round := 0; round < 3; round++ {
		out, err := pr.SolveBatch([][]float64{sparse.RandomVector(n, 5)}, []core.Options{{Tol: 1e-10}})
		if err != nil {
			t.Fatal(err)
		}
		if round == 0 {
			first = out.Results[0].X
			continue
		}
		for i := range first {
			if out.Results[0].X[i] != first[i] {
				t.Fatalf("round %d: x[%d] drifted", round, i)
			}
		}
	}
	if s := pr.Strategy().String(); s == "" {
		t.Error("empty strategy")
	}
}
