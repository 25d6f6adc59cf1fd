package hpfexec

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"hpfcg/internal/comm"
	"hpfcg/internal/core"
	"hpfcg/internal/mfree"
	"hpfcg/internal/mg"
	"hpfcg/internal/seq"
	"hpfcg/internal/sparse"
)

// confBackend is one row of the conformance table: how to prepare a
// fresh handle on a machine, the sequential reference operator at that
// rank count, and the variants the legality table admits.
type confBackend struct {
	name     string
	prepare  func(m *comm.Machine) (*Prepared, error)
	matrix   func(np int) (*sparse.CSR, error)
	variants []string
	// coldSetupZero: the backend's cold build charges nothing, at any
	// rank count. inspects: it exchanges an inspector schedule, so at
	// np > 1 the cold build must charge something.
	coldSetupZero bool
	inspects      bool
}

func layoutBackend(layout string, A *sparse.CSR, variants []string) confBackend {
	return confBackend{
		name: layout,
		prepare: func(m *comm.Machine) (*Prepared, error) {
			plan, err := PlanForLayout(layout, m.NP(), A.NRows, A.NNZ())
			if err != nil {
				return nil, err
			}
			return Prepare(m, plan, A)
		},
		matrix:   func(int) (*sparse.CSR, error) { return A, nil },
		variants: variants,
		inspects: !strings.HasPrefix(layout, "csc"),
	}
}

func stencilBackendRow(name string, spec mfree.Spec) confBackend {
	return confBackend{
		name:          name,
		prepare:       func(m *comm.Machine) (*Prepared, error) { return PrepareStencil(m, spec) },
		matrix:        func(int) (*sparse.CSR, error) { return spec.Assemble() },
		variants:      []string{"plain", "pipelined"},
		coldSetupZero: true,
	}
}

func conformanceBackends() []confBackend {
	A := sparse.Laplace2D(12, 12)
	csrVariants := []string{"plain", "sstep-1", "sstep-4", "sstep-auto", "pipelined"}
	brick := mg.Spec{Nx: 4, Ny: 4, Nz: 4, Levels: 3}
	return []confBackend{
		layoutBackend("csr", A, csrVariants),
		layoutBackend("csc-merge", A, []string{"plain", "sstep-1", "sstep-auto"}),
		layoutBackend("balanced", A, csrVariants),
		{
			name:    "mg-3level",
			prepare: func(m *comm.Machine) (*Prepared, error) { return PrepareMG(m, brick) },
			// The hierarchy's fine grid is the 27-point stencil over np
			// stacked bricks.
			matrix: func(np int) (*sparse.CSR, error) {
				return mfree.Spec{Stencil: "27pt", Nx: brick.Nx, Ny: brick.Ny, Nz: brick.Nz * np}.WithDefaults().Assemble()
			},
			variants: []string{"plain"},
			// Levels, halos and transfers are geometry: nothing is
			// exchanged or factored to build them.
			coldSetupZero: true,
		},
		stencilBackendRow("stencil-5pt", mfree.Spec{Stencil: "5pt", Nx: 12, Ny: 16}),
		stencilBackendRow("stencil-27pt", mfree.Spec{Stencil: "27pt", Nx: 3, Ny: 3, Nz: 8}),
	}
}

// cellVariant is the variant a conformance cell's name spells: its
// canonical form with the colon written as a dash. sstep-1 is SStep(1),
// which is plain CG, so that cell holds the s = 1 factor to the plain
// cell's bits.
func cellVariant(t *testing.T, name string) Variant {
	t.Helper()
	if name == "sstep-1" {
		return SStep(1)
	}
	v, err := ParseVariant(strings.Replace(name, "-", ":", 1))
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// sameSolves fails unless got holds, right-hand side by right-hand
// side, exactly the bits and iteration counts of want.
func sameSolves(t *testing.T, what string, got, want []*Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", what, len(got), len(want))
	}
	for k := range want {
		if got[k].Err != nil || want[k].Err != nil {
			t.Fatalf("%s: rhs %d errors %v / %v", what, k, got[k].Err, want[k].Err)
		}
		if got[k].Stats.Iterations != want[k].Stats.Iterations {
			t.Fatalf("%s: rhs %d took %d iterations, want %d", what, k, got[k].Stats.Iterations, want[k].Stats.Iterations)
		}
		for i := range want[k].X {
			if got[k].X[i] != want[k].X[i] {
				t.Fatalf("%s: rhs %d x[%d] = %v, want %v (bit-identity broken)", what, k, i, got[k].X[i], want[k].X[i])
			}
		}
	}
}

// cancelAt cancels the run it is attached to from inside: once any
// rank's modeled clock passes at, it calls cancel. Its flop factor is
// 1, so no clock moves and the run is the plain one up to that point.
type cancelAt struct {
	at     float64
	cancel context.CancelFunc
}

func (c *cancelAt) StartRun(np int) []comm.RankInjector {
	out := make([]comm.RankInjector, np)
	for r := range out {
		out[r] = c
	}
	return out
}

func (c *cancelAt) CrashTime() (float64, bool) { return 0, false }

func (c *cancelAt) SendFault(int, float64, float64) (bool, float64) { return false, 0 }

func (c *cancelAt) FlopFactor(t float64) float64 {
	if t >= c.at {
		c.cancel()
	}
	return 1
}

// cancelMidSolve solves under a context the run itself cancels at
// modeled time at, and wants the cancellation diagnostic back.
func cancelMidSolve(t *testing.T, pr *Prepared, rhs [][]float64, opts []core.Options, at float64) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pr.m.AttachInjector(&cancelAt{at: at, cancel: cancel})
	defer pr.m.AttachInjector(nil)
	_, err := pr.SolveBatchContext(ctx, rhs, opts)
	if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "cancelled") {
		t.Fatalf("cancelled at modeled t=%g: %v, want the cancellation diagnostic", at, err)
	}
}

// TestSolvePathConformance holds every backend × legal variant × rank
// count to the sequential reference and to the bit-identities the one
// solve loop claims: a batch equals its right-hand sides solved one by
// one, a warm rerun equals the cold run with zero modeled setup and a
// repeatable modeled clock, a live deadline leaves the solve the plain
// one, and a cancellation mid-solve leaves the handle usable.
func TestSolvePathConformance(t *testing.T) {
	opts := []core.Options{{Tol: 1e-10}}
	for _, be := range conformanceBackends() {
		for _, name := range be.variants {
			for _, np := range []int{1, 2, 3, 4, 8} {
				be, name, np := be, name, np
				t.Run(fmt.Sprintf("%s/%s/np=%d", be.name, name, np), func(t *testing.T) {
					v := cellVariant(t, name)
					fresh := func() *Prepared {
						pr, err := be.prepare(machine(np))
						if err != nil {
							t.Fatal(err)
						}
						if err := pr.WithVariant(v); err != nil {
							t.Fatal(err)
						}
						return pr
					}
					pr := fresh()
					n := pr.N()
					rhs := [][]float64{sparse.RandomVector(n, 1), sparse.RandomVector(n, 2), sparse.RandomVector(n, 3)}

					cold, err := pr.SolveBatch(rhs, opts)
					if err != nil {
						t.Fatal(err)
					}
					if be.coldSetupZero && cold.SetupModelTime != 0 {
						t.Errorf("cold setup %g, want exactly 0", cold.SetupModelTime)
					}
					if be.inspects && np > 1 && cold.SetupModelTime <= 0 {
						t.Errorf("cold setup %g, want > 0 (inspector exchange)", cold.SetupModelTime)
					}

					// Against the sequential reference.
					A, err := be.matrix(np)
					if err != nil {
						t.Fatal(err)
					}
					for k, b := range rhs {
						r := cold.Results[k]
						if r.Err != nil || !r.Stats.Converged {
							t.Fatalf("rhs %d: err %v stats %v", k, r.Err, r.Stats)
						}
						xs := make([]float64, n)
						if _, err := seq.CG(A, b, xs, seq.Options{Tol: 1e-10}); err != nil {
							t.Fatal(err)
						}
						for i := range xs {
							if math.Abs(r.X[i]-xs[i]) > 1e-6 {
								t.Fatalf("rhs %d: x[%d] = %v, sequential %v", k, i, r.X[i], xs[i])
							}
						}
						if rr := relResidual(A, r.X, b); rr > 1e-8 {
							t.Fatalf("rhs %d: relative residual %g", k, rr)
						}
					}

					// A batch of 3 is three batches of 1.
					ones := make([]*Result, len(rhs))
					for k := range rhs {
						one, err := fresh().SolveBatch(rhs[k:k+1], opts)
						if err != nil {
							t.Fatal(err)
						}
						ones[k] = one.Results[0]
					}
					sameSolves(t, "batch of 3 vs batches of 1", cold.Results, ones)

					// Warm reruns: zero setup, same bits, same clock.
					if !pr.Warm() {
						t.Fatal("handle not warm after its first batch")
					}
					warm, err := pr.SolveBatch(rhs, opts)
					if err != nil {
						t.Fatal(err)
					}
					again, err := pr.SolveBatch(rhs, opts)
					if err != nil {
						t.Fatal(err)
					}
					if warm.SetupModelTime != 0 || again.SetupModelTime != 0 {
						t.Errorf("warm setup %g / %g, want exactly 0", warm.SetupModelTime, again.SetupModelTime)
					}
					sameSolves(t, "warm vs cold", warm.Results, cold.Results)
					sameSolves(t, "second warm vs cold", again.Results, cold.Results)
					if again.Run.ModelTime != warm.Run.ModelTime {
						t.Errorf("warm model time %v then %v, want a repeatable clock", warm.Run.ModelTime, again.Run.ModelTime)
					}
					if be.coldSetupZero && warm.Run.ModelTime != cold.Run.ModelTime {
						t.Errorf("setup-free backend: warm model time %v != cold %v", warm.Run.ModelTime, cold.Run.ModelTime)
					}

					// Under a deadline with room to spare it is the plain form.
					ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
					defer cancel()
					timed, err := fresh().SolveBatchContext(ctx, rhs, opts)
					if err != nil {
						t.Fatal(err)
					}
					sameSolves(t, "SolveBatchContext vs SolveBatch", timed.Results, cold.Results)
					if timed.Run.ModelTime != cold.Run.ModelTime || timed.SetupModelTime != cold.SetupModelTime {
						t.Errorf("SolveBatchContext clock %v/%v, SolveBatch %v/%v",
							timed.Run.ModelTime, timed.SetupModelTime, cold.Run.ModelTime, cold.SetupModelTime)
					}

					// Cancelled halfway through a warm run, it reports the
					// cancellation, and the handle solves on unharmed.
					cancelMidSolve(t, pr, rhs, opts, warm.Run.ModelTime/2)
					after, err := pr.SolveBatch(rhs, opts)
					if err != nil {
						t.Fatalf("handle unusable after a cancellation: %v", err)
					}
					sameSolves(t, "after cancellation vs cold", after.Results, cold.Results)
					if after.SetupModelTime != 0 || after.Run.ModelTime != warm.Run.ModelTime {
						t.Errorf("after cancellation: setup %g model %v, want 0 and %v",
							after.SetupModelTime, after.Run.ModelTime, warm.Run.ModelTime)
					}
				})
			}
		}
	}

	// A resilient variant takes one right-hand side per call, so it gets
	// a cell of its own: a cancellation ends its mission like any other
	// run, and the cancelled handle then solves bit-identically to a
	// fresh one.
	t.Run("csr/resilient/np=4", func(t *testing.T) {
		be := layoutBackend("csr", sparse.Laplace2D(12, 12), nil)
		fresh := func() *Prepared {
			pr, err := be.prepare(machine(4))
			if err != nil {
				t.Fatal(err)
			}
			if err := pr.WithVariant(Resilient(5, 0)); err != nil {
				t.Fatal(err)
			}
			return pr
		}
		pr := fresh()
		rhs := [][]float64{sparse.RandomVector(pr.N(), 1)}
		want, err := fresh().SolveBatch(rhs, opts)
		if err != nil {
			t.Fatal(err)
		}
		cancelMidSolve(t, pr, rhs, opts, want.Run.ModelTime/2)
		after, err := pr.SolveBatch(rhs, opts)
		if err != nil {
			t.Fatalf("resilient handle unusable after a cancellation: %v", err)
		}
		sameSolves(t, "after cancellation vs fresh", after.Results, want.Results)
		if rec := after.Recovery; rec == nil || rec.Attempts != 1 || len(rec.Failures) != 0 || rec.LostIterations != 0 {
			t.Errorf("after cancellation: recovery %+v, want one clean attempt", rec)
		}
	})
}

// breakdownSystem is a block-diagonal matrix of [[1,1],[1,1]] blocks
// with a right-hand side CG solves, (1,1,…), and one it breaks down
// on, (1,-1,…): p = r = b gives p·Ap = 0 at iteration 1.
func breakdownSystem(n int) (A *sparse.CSR, good, bad []float64) {
	coo := sparse.NewCOO(n, n)
	good, bad = make([]float64, n), make([]float64, n)
	for i := 0; i < n; i += 2 {
		coo.Add(i, i, 1)
		coo.Add(i, i+1, 1)
		coo.Add(i+1, i, 1)
		coo.Add(i+1, i+1, 1)
		good[i], good[i+1] = 1, 1
		bad[i], bad[i+1] = 1, -1
	}
	return coo.ToCSR(), good, bad
}

// TestBatchBreakdownIsolated: one right-hand side that breaks the
// solver down fails alone. Its neighbours in the batch come back
// converged and bit-identical to their solo solves.
func TestBatchBreakdownIsolated(t *testing.T) {
	A, good, bad := breakdownSystem(16)
	opts := []core.Options{{Tol: 1e-10}}
	for _, np := range []int{1, 2, 4} {
		prepare := func() *Prepared {
			plan, err := PlanForLayout("csr", np, A.NRows, A.NNZ())
			if err != nil {
				t.Fatal(err)
			}
			pr, err := Prepare(machine(np), plan, A)
			if err != nil {
				t.Fatal(err)
			}
			return pr
		}
		solo, err := prepare().SolveBatch([][]float64{good}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if solo.Results[0].Err != nil || !solo.Results[0].Stats.Converged {
			t.Fatalf("np=%d: the good right-hand side alone: err %v stats %v", np, solo.Results[0].Err, solo.Results[0].Stats)
		}

		out, err := prepare().SolveBatch([][]float64{good, bad, good}, opts)
		if err != nil {
			t.Fatalf("np=%d: batch with one breakdown failed as a whole: %v", np, err)
		}
		if e := out.Results[1].Err; !errors.Is(e, core.ErrBreakdown) || !strings.Contains(e.Error(), "rhs 1") {
			t.Fatalf("np=%d: rhs 1 error %v, want a core.ErrBreakdown naming rhs 1", np, e)
		}
		if out.Results[1].X != nil {
			t.Errorf("np=%d: broken-down rhs carries a solution", np)
		}
		sameSolves(t, fmt.Sprintf("np=%d neighbours vs solo", np),
			[]*Result{out.Results[0], out.Results[2]}, []*Result{solo.Results[0], solo.Results[0]})

		// The one-RHS front door reports the breakdown as its error.
		plan, err := PlanForLayout("csr", np, A.NRows, A.NNZ())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := SolveCG(machine(np), plan, A, bad, opts[0]); !errors.Is(err, core.ErrBreakdown) {
			t.Errorf("np=%d: SolveCG on the bad rhs: %v, want core.ErrBreakdown", np, err)
		}
	}
}

// TestVariantNegativeBounds: a negative checkpoint interval or restart
// budget is refused by name on every backend, and WithVariant acts on
// the same verdict — never a solve that checkpoints at |k| or gives up
// after one attempt.
func TestVariantNegativeBounds(t *testing.T) {
	A := sparse.Laplace2D(8, 8)
	plan, err := PlanForLayout("csr", 2, A.NRows, A.NNZ())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		v    Variant
		want string
	}{
		{Resilient(-3, 0), "field ckpt_interval: negative bound -3"},
		{Resilient(0, -2), "field max_restarts: negative bound -2"},
		{Resilient(-1, -1), "field ckpt_interval"},
	} {
		for _, backend := range []string{BackendCSR, BackendCSC, BackendHPCG, BackendStencil} {
			if err := CheckVariant(backend, c.v); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s %v: CheckVariant = %v, want %q", backend, c.v, err, c.want)
			}
		}
		pr, err := Prepare(machine(2), plan, A)
		if err != nil {
			t.Fatal(err)
		}
		if err := pr.WithVariant(c.v); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v: WithVariant = %v, want %q", c.v, err, c.want)
		}
	}
}

// TestVariantLegality enumerates every backend × variant kind cell, an
// out-of-range factor among them: CheckVariant's verdict is the one
// WithVariant acts on, field named.
func TestVariantLegality(t *testing.T) {
	A := sparse.Laplace2D(8, 8)
	handles := map[string]func() (*Prepared, error){
		BackendCSR: func() (*Prepared, error) {
			plan, err := PlanForLayout("csr", 2, A.NRows, A.NNZ())
			if err != nil {
				return nil, err
			}
			return Prepare(machine(2), plan, A)
		},
		BackendCSC: func() (*Prepared, error) {
			plan, err := PlanForLayout("csc-merge", 2, A.NRows, A.NNZ())
			if err != nil {
				return nil, err
			}
			return Prepare(machine(2), plan, A)
		},
		BackendHPCG:    func() (*Prepared, error) { return PrepareMG(machine(2), mg.Spec{Nx: 4, Ny: 4, Nz: 4}) },
		BackendStencil: func() (*Prepared, error) { return PrepareStencil(machine(2), mfree.Spec{Stencil: "5pt", Nx: 8, Ny: 8}) },
	}
	// legal[backend] lists the variants that run; everything else in
	// the enumeration must be refused, naming a field.
	legal := map[string]map[Variant]bool{
		BackendCSR:     {Plain(): true, SStep(4): true, SStepAuto(): true, Pipelined(): true, Resilient(0, 0): true},
		BackendCSC:     {Plain(): true, SStepAuto(): true, Resilient(0, 0): true},
		BackendHPCG:    {Plain(): true},
		BackendStencil: {Plain(): true, Pipelined(): true},
	}
	variants := []Variant{Plain(), SStep(4), SStepAuto(), SStep(MaxSStep + 1), Pipelined(), Resilient(0, 0)}
	for backend, prepare := range handles {
		for _, v := range variants {
			name := backend + "/" + v.String()
			want := legal[backend][v]
			err := CheckVariant(backend, v)
			if (err == nil) != want {
				t.Errorf("%s: CheckVariant = %v, want legal=%v", name, err, want)
				continue
			}
			if err != nil && !strings.Contains(err.Error(), "field ") {
				t.Errorf("%s: error %q names no field", name, err)
			}

			// The library acts on the same verdict.
			pr, perr := prepare()
			if perr != nil {
				t.Fatal(perr)
			}
			got := pr.WithVariant(v)
			switch {
			case want && got != nil:
				t.Errorf("%s: legal cell refused by the library: %v", name, got)
			case !want && got == nil:
				t.Errorf("%s: illegal cell ran", name)
			case !want && got.Error() != err.Error():
				t.Errorf("%s: WithVariant says %q, CheckVariant %q", name, got, err)
			}
		}
	}
}
