package hpfexec

import (
	"fmt"
	"math"
	"testing"

	"hpfcg/internal/comm"
	"hpfcg/internal/core"
	"hpfcg/internal/sparse"
	"hpfcg/internal/topology"
)

func prepLaplace(t *testing.T, nx, ny, np int, layout string) *Prepared {
	t.Helper()
	A := sparse.Laplace2D(nx, ny)
	plan, err := PlanForLayout(layout, np, A.NRows, A.NNZ())
	if err != nil {
		t.Fatal(err)
	}
	m := comm.NewMachine(np, topology.Hypercube{}, topology.DefaultCostParams())
	pr, err := Prepare(m, plan, A)
	if err != nil {
		t.Fatal(err)
	}
	return pr
}

// TestWarmBatchBitIdentical is the registry's core correctness claim:
// a second SolveBatch on the same Prepared — which reuses the cached
// per-rank operators and skips the inspector exchange — must return
// bit-identical solutions with zero modeled setup time.
func TestWarmBatchBitIdentical(t *testing.T) {
	for _, layout := range []string{"csr", "csc-merge", "balanced"} {
		t.Run(layout, func(t *testing.T) {
			pr := prepLaplace(t, 12, 12, 4, layout)
			n := pr.N()
			rhs := [][]float64{sparse.RandomVector(n, 7), sparse.RandomVector(n, 8)}
			opts := []core.Options{{}}

			cold, err := pr.SolveBatch(rhs, opts)
			if err != nil {
				t.Fatal(err)
			}
			// Every layout pays a modeled setup: the CSR layouts their
			// inspector exchange and executor-selection collective,
			// csc-merge the inspector over its strips' rows. A warm hit
			// pays none, and its np 4 solve runs the rebound schedule.
			if cold.SetupModelTime <= 0 {
				t.Fatalf("cold setup model time %g, want > 0", cold.SetupModelTime)
			}
			if !pr.Warm() {
				t.Fatal("Prepared not warm after first batch")
			}

			warm, err := pr.SolveBatch(rhs, opts)
			if err != nil {
				t.Fatal(err)
			}
			if warm.SetupModelTime != 0 {
				t.Fatalf("warm setup model time %g, want exactly 0", warm.SetupModelTime)
			}
			for k := range rhs {
				cx, wx := cold.Results[k].X, warm.Results[k].X
				if len(cx) != len(wx) {
					t.Fatalf("rhs %d: length %d vs %d", k, len(cx), len(wx))
				}
				for i := range cx {
					if cx[i] != wx[i] {
						t.Fatalf("rhs %d: x[%d] differs: %v vs %v", k, i, cx[i], wx[i])
					}
				}
				if cold.Results[k].Stats.Iterations != warm.Results[k].Stats.Iterations {
					t.Fatalf("rhs %d: iteration counts differ", k)
				}
				// The warm spans are the cold ones up to the rank skew the
				// cold setup leaves behind (≈ 4e-5 relative here): a
				// schedule left bound to the cold run would charge its
				// exchanges to that run's clocks and shrink them by far
				// more.
				if c, w := cold.SolveModelTime[k], warm.SolveModelTime[k]; math.Abs(c-w) > 1e-3*c {
					t.Fatalf("rhs %d: warm solve model time %g, cold %g", k, w, c)
				}
			}
			if cold.Results[0].Strategy != warm.Results[0].Strategy {
				t.Fatalf("strategy drifted warm: %v vs %v",
					cold.Results[0].Strategy, warm.Results[0].Strategy)
			}
		})
	}
}

func TestRegistryHitMissEvict(t *testing.T) {
	pr := prepLaplace(t, 8, 8, 2, "csr")
	unit := pr.MemoryBytes()
	reg := NewRegistry(2*unit + unit/2) // room for two entries

	if _, ok := reg.Get("a"); ok {
		t.Fatal("hit on empty registry")
	}
	if _, ok := reg.Put("a", pr); !ok {
		t.Fatal("put a failed")
	}
	if _, ok := reg.Get("a"); !ok {
		t.Fatal("miss after put")
	}
	prB := prepLaplace(t, 8, 8, 2, "csr")
	if _, ok := reg.Put("b", prB); !ok {
		t.Fatal("put b failed")
	}
	// Refresh a, then insert c: b must be the LRU victim.
	reg.Get("a")
	prC := prepLaplace(t, 8, 8, 2, "csr")
	if _, ok := reg.Put("c", prC); !ok {
		t.Fatal("put c failed")
	}
	if _, ok := reg.Get("b"); ok {
		t.Fatal("LRU victim b survived")
	}
	if _, ok := reg.Get("a"); !ok {
		t.Fatal("recently used a evicted")
	}
	st := reg.Stats()
	if st.Evictions != 1 {
		t.Fatalf("evictions %d, want 1", st.Evictions)
	}
	if st.Entries != 2 {
		t.Fatalf("entries %d, want 2", st.Entries)
	}
	if st.Bytes != 2*unit {
		t.Fatalf("bytes %d, want %d", st.Bytes, 2*unit)
	}
	// hits: a, a, a; misses: a(first), b, plus none else.
	if st.Hits != 3 || st.Misses != 2 {
		t.Fatalf("hits/misses %d/%d, want 3/2", st.Hits, st.Misses)
	}
}

func TestRegistryOversizedPlanNotCached(t *testing.T) {
	pr := prepLaplace(t, 8, 8, 2, "csr")
	reg := NewRegistry(pr.MemoryBytes() - 1)
	if _, ok := reg.Put("big", pr); ok {
		t.Fatal("oversized plan was cached")
	}
	if st := reg.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("registry not empty after oversized put: %+v", st)
	}
}

func TestRegistryDuplicatePutKeepsFirst(t *testing.T) {
	reg := NewRegistry(0)
	pr1 := prepLaplace(t, 8, 8, 2, "csr")
	pr2 := prepLaplace(t, 8, 8, 2, "csr")
	e1, _ := reg.Put("k", pr1)
	e2, _ := reg.Put("k", pr2)
	if e1 != e2 {
		t.Fatal("duplicate put created a second entry")
	}
	if e2.Prepared() != pr1 {
		t.Fatal("duplicate put replaced the cached plan")
	}
	if st := reg.Stats(); st.Entries != 1 {
		t.Fatalf("entries %d, want 1", st.Entries)
	}
}

// TestRegistryConcurrentSameKey: many goroutines racing Get/Put on one
// key must serialize batch runs through the entry lock and never lose
// the bit-identity of a solo solve. (Run under -race in make check.)
func TestRegistryConcurrentSameKey(t *testing.T) {
	reg := NewRegistry(0)
	A := sparse.Laplace2D(10, 10)
	n := A.NRows
	b := sparse.RandomVector(n, 3)
	plan, err := PlanForLayout("csr", 2, n, A.NNZ())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := SolveCG(comm.NewMachine(2, topology.Hypercube{}, topology.DefaultCostParams()), plan, A, b, core.Options{})
	if err != nil {
		t.Fatal(err)
	}

	errc := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			e, ok := reg.Get("k")
			if !ok {
				m := comm.NewMachine(2, topology.Hypercube{}, topology.DefaultCostParams())
				pr, err := Prepare(m, plan, A)
				if err != nil {
					errc <- err
					return
				}
				e, _ = reg.Put("k", pr)
			}
			e.Lock()
			out, err := e.Prepared().SolveBatch([][]float64{b}, []core.Options{{}})
			e.Unlock()
			if err != nil {
				errc <- err
				return
			}
			for i := range ref.X {
				if out.Results[0].X[i] != ref.X[i] {
					errc <- fmt.Errorf("x[%d] differs under concurrency", i)
					return
				}
			}
			errc <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}
