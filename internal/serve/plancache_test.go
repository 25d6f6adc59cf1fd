package serve

import (
	"context"
	"math"
	"testing"
	"time"
)

// TestPlanCacheWarmHit: two sequential submissions of the same matrix
// must produce a registry hit, a warm second solve with zero modeled
// setup, and bit-identical answers.
func TestPlanCacheWarmHit(t *testing.T) {
	s := New(Options{Workers: 1, MaxBatch: 1})
	defer s.Drain(testCtx(t))
	spec := JobSpec{Matrix: "laplace2d:12:12", NP: 4, Seed: 5}

	run := func() JobView {
		j, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		v, err := s.Wait(testCtx(t), j.ID)
		if err != nil {
			t.Fatal(err)
		}
		if v.State != StateDone {
			t.Fatalf("state %s (%s)", v.State, v.Error)
		}
		return v
	}

	cold := run()
	if cold.Result.PlanCacheHit {
		t.Fatal("first solve reported a plan-cache hit")
	}
	if cold.Result.SetupModelTime <= 0 {
		t.Fatalf("cold setup %g, want > 0", cold.Result.SetupModelTime)
	}

	warm := run()
	if !warm.Result.PlanCacheHit {
		t.Fatal("second solve missed the plan cache")
	}
	if warm.Result.SetupModelTime != 0 {
		t.Fatalf("warm setup %g, want exactly 0", warm.Result.SetupModelTime)
	}
	if len(cold.Result.X) != len(warm.Result.X) {
		t.Fatal("solution length changed")
	}
	for i := range cold.Result.X {
		if cold.Result.X[i] != warm.Result.X[i] {
			t.Fatalf("x[%d] differs on cache hit: %v vs %v", i, cold.Result.X[i], warm.Result.X[i])
		}
	}

	st := s.PlanCacheStats()
	if st.Hits < 1 || st.Misses < 1 {
		t.Fatalf("registry stats %+v, want >=1 hit and >=1 miss", st)
	}
}

// TestWarmPathZeroSetup: after one cold pass, every repeat of the same
// problem hits the registry, pays exactly zero modeled setup and
// replays the cold solve's modeled clock.
func TestWarmPathZeroSetup(t *testing.T) {
	s := New(Options{Workers: 1, MaxBatch: 1})
	defer s.Drain(testCtx(t))
	spec := JobSpec{Matrix: "laplace2d:10:10", NP: 4, Seed: 3}

	const passes = 3
	var cold JobResult
	for pass := 0; pass < passes; pass++ {
		j, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		v, err := s.Wait(testCtx(t), j.ID)
		if err != nil {
			t.Fatal(err)
		}
		if v.State != StateDone {
			t.Fatalf("pass %d: state %s (%s)", pass, v.State, v.Error)
		}
		r := *v.Result
		if pass == 0 {
			if r.PlanCacheHit {
				t.Fatal("cold pass reported a plan-cache hit")
			}
			if r.SetupModelTime <= 0 {
				t.Fatalf("cold pass setup %g, want > 0", r.SetupModelTime)
			}
			cold = r
			continue
		}
		if !r.PlanCacheHit {
			t.Fatalf("pass %d missed the plan cache", pass)
		}
		if r.SetupModelTime != 0 {
			t.Fatalf("pass %d warm setup %g, want exactly 0", pass, r.SetupModelTime)
		}
		// The warm plan replays the cold solve's modeled clock. Only to
		// rounding: the cold span is a difference of clocks that started
		// after setup, the warm one of clocks that started at zero.
		if c, w := cold.SolveModelTime, r.SolveModelTime; math.Abs(w-c) > 1e-12*c {
			t.Fatalf("pass %d solve model time %v differs from cold %v", pass, w, c)
		}
	}
	if st := s.PlanCacheStats(); st.Hits != passes-1 || st.Misses != 1 {
		t.Fatalf("registry stats %+v, want %d hits and 1 miss", st, passes-1)
	}
}

// TestPlanCacheHitAcrossMatrixMarketFormats: two uploads of the same
// matrix with different entry order must share one cached plan (the
// content hash is the canonical CSR digest, not the document bytes).
func TestPlanCacheHitAcrossMatrixMarketFormats(t *testing.T) {
	s := New(Options{Workers: 1, MaxBatch: 1})
	defer s.Drain(testCtx(t))
	doc1 := `%%MatrixMarket matrix coordinate real general
3 3 5
1 1 2.0
2 2 2.0
3 3 2.0
1 2 -1.0
2 1 -1.0
`
	doc2 := `%%MatrixMarket matrix coordinate real general
3 3 5
2 1 -1.0
1 1 2.0
3 3 2.0
1 2 -1.0
2 2 2.0
`
	for i, doc := range []string{doc1, doc2} {
		j, err := s.Submit(JobSpec{MatrixMarket: doc, NP: 2, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		v, err := s.Wait(testCtx(t), j.ID)
		if err != nil {
			t.Fatal(err)
		}
		if v.State != StateDone {
			t.Fatalf("upload %d: %s (%s)", i, v.State, v.Error)
		}
		if hit := v.Result.PlanCacheHit; hit != (i == 1) {
			t.Fatalf("upload %d: plan_cache_hit=%v", i, hit)
		}
	}
}

// TestPlacementKey: the router's key is computed without parsing — for
// generated problems it is the content hash, for uploads a digest of
// the text in a namespace of its own, so a malformed upload still has
// one, byte-identical uploads share it, and a re-encoded upload has a
// different key and the same content hash.
func TestPlacementKey(t *testing.T) {
	for _, sp := range []JobSpec{
		{Matrix: "laplace2d:12:12"},
		{Matrix: " laplace2d:12:12 ", Layout: "csc-merge"},
		{Method: "hpcg", MG: &MGSpec{Nx: 4, Ny: 4, Nz: 4}},
		{Method: "stencil", Stencil: &StencilSpec{Stencil: "5pt", Nx: 8, Ny: 8}},
	} {
		h, err := sp.ContentHash()
		if err != nil {
			t.Fatal(err)
		}
		if sp.PlacementKey() != h {
			t.Errorf("%+v: placement key %s, content hash %s", sp, sp.PlacementKey(), h)
		}
	}

	doc := "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 2.0\n2 2 2.0\n"
	reordered := "%%MatrixMarket matrix coordinate real general\n2 2 2\n2 2 2\n1 1 2\n"
	a, b, c := JobSpec{MatrixMarket: doc, Seed: 1}, JobSpec{MatrixMarket: doc, Seed: 2, NP: 2}, JobSpec{MatrixMarket: reordered}
	if a.PlacementKey() != b.PlacementKey() {
		t.Error("byte-identical uploads have different placement keys")
	}
	if a.PlacementKey() == c.PlacementKey() {
		t.Error("a re-encoded upload shares the placement key: the key is not of the text")
	}
	ha, _ := a.ContentHash()
	hc, _ := c.ContentHash()
	if ha == "" || ha != hc {
		t.Errorf("re-encoded upload: content hashes %q and %q, want equal", ha, hc)
	}
	if a.PlacementKey() == ha {
		t.Error("an upload's placement key collides with its content hash: the namespaces are not separate")
	}
	gen := JobSpec{Matrix: doc}
	if gen.PlacementKey() == a.PlacementKey() {
		t.Error("a generator spec and an upload of the same text share a placement key")
	}
	bad := JobSpec{MatrixMarket: "not a matrix market document"}
	if bad.PlacementKey() == "" {
		t.Error("malformed upload has no placement key")
	}
	if _, err := bad.ContentHash(); err == nil {
		t.Error("malformed upload has a content hash")
	}
}

// TestPlanCacheDisabled: PlanCacheBytes < 0 turns the registry off and
// the service still solves correctly through the uncached path.
func TestPlanCacheDisabled(t *testing.T) {
	s := New(Options{Workers: 1, PlanCacheBytes: -1})
	defer s.Drain(testCtx(t))
	for i := 0; i < 2; i++ {
		j, err := s.Submit(JobSpec{Matrix: "banded:64:3", NP: 2, Seed: int64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		v, err := s.Wait(testCtx(t), j.ID)
		if err != nil {
			t.Fatal(err)
		}
		if v.State != StateDone || !v.Result.Converged {
			t.Fatalf("job %d: %s (%s)", i, v.State, v.Error)
		}
		if v.Result.PlanCacheHit {
			t.Fatal("cache hit reported with cache disabled")
		}
	}
	if st := s.PlanCacheStats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("disabled cache counted traffic: %+v", st)
	}
}

// TestPlanCacheDistinctMatricesDistinctPlans: different content hashes
// must not collide in the registry.
func TestPlanCacheDistinctMatricesDistinctPlans(t *testing.T) {
	s := New(Options{Workers: 1, MaxBatch: 1})
	defer s.Drain(testCtx(t))
	for _, m := range []string{"laplace2d:8:8", "laplace2d:8:9", "banded:64:2"} {
		j, err := s.Submit(JobSpec{Matrix: m, NP: 2})
		if err != nil {
			t.Fatal(err)
		}
		v, err := s.Wait(testCtx(t), j.ID)
		if err != nil {
			t.Fatal(err)
		}
		if v.State != StateDone {
			t.Fatalf("%s: %s (%s)", m, v.State, v.Error)
		}
		if v.Result.PlanCacheHit {
			t.Fatalf("%s: unexpected cache hit", m)
		}
	}
	st := s.PlanCacheStats()
	if st.Entries != 3 || st.Hits != 0 {
		t.Fatalf("registry stats %+v, want 3 entries and 0 hits", st)
	}
}

// TestDrainKeepsPlanCacheReadable: draining must not deadlock against
// an in-flight registry run, and the batch that was already dispatched
// still finishes through the cached-plan path.
func TestDrainKeepsPlanCacheReadable(t *testing.T) {
	started := make(chan []*Job, 1)
	s := New(Options{
		Workers:     1,
		StartPaused: true,
		BatchStarted: func(jobs []*Job) {
			select {
			case started <- jobs:
			default:
			}
		},
	})
	var ids []string
	for i := 0; i < 4; i++ {
		j, err := s.Submit(JobSpec{Matrix: "laplace2d:10:10", NP: 2, Seed: int64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	s.resume()
	inflight := <-started
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	for _, j := range inflight {
		if v, ok := s.View(j.ID); !ok || v.State != StateDone {
			t.Fatalf("in-flight job %s did not finish across drain", j.ID)
		}
	}
	_ = ids
}
