package hpfexec

import (
	"fmt"
	"testing"

	"hpfcg/internal/core"
	"hpfcg/internal/sparse"
)

// BenchmarkWarmSolveBatch is the host cost of one warm SolveBatch — a
// cached handle, one right-hand side, every operator already built —
// on the keys a served job runs pipelined, plain beside pipelined at np
// 4, so their ratio comes from one run. ns/op is one whole solve: the
// machine's spin-up, the iterations and the result; allocs/op counts
// what the run and the batch allocate.
func BenchmarkWarmSolveBatch(b *testing.B) {
	for _, key := range []string{"stencil:5pt:48x48", "laplace2d:32:32", "banded:512:4"} {
		for _, v := range []Variant{Plain(), Pipelined()} {
			b.Run(fmt.Sprintf("%s/%s/np=4", key, v), func(b *testing.B) {
				prob, err := ParseProblem(key)
				if err != nil {
					b.Fatal(err)
				}
				pr, err := Open(machine(4), prob, "")
				if err != nil {
					b.Fatal(err)
				}
				if err := pr.WithVariant(v); err != nil {
					b.Fatal(err)
				}
				rhs := [][]float64{sparse.RandomVector(pr.N(), 1)}
				opts := []core.Options{{Tol: 1e-10}}
				// The cold solve builds the operators the warm ones reuse.
				if _, err := pr.SolveBatch(rhs, opts); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := pr.SolveBatch(rhs, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// TestWarmSolveBatchAllocs pins what one warm SolveBatch allocates at
// np 4: plain and pipelined on BenchmarkWarmSolveBatch's keys, s-step
// CG at s = 4, and multigrid-preconditioned CG. A machine keeps its
// processors between runs, so the warm run re-points nothing; these
// are the run's mailboxes, the rank goroutines, the per-run vectors and
// workspaces, and the result. A change that adds an allocation to the
// warm path moves a count.
func TestWarmSolveBatchAllocs(t *testing.T) {
	cases := []struct {
		key, variant string
		want         float64
	}{
		{"stencil:5pt:48x48", "plain", 145},
		{"stencil:5pt:48x48", "pipelined", 173},
		{"laplace2d:32:32", "plain", 145},
		{"laplace2d:32:32", "pipelined", 173},
		{"banded:512:4", "plain", 145},
		{"banded:512:4", "pipelined", 173},
		{"banded:512:4", "sstep:4", 323},
		{"hpcg:6x6x6", "plain", 153},
	}
	for _, c := range cases {
		prob, err := ParseProblem(c.key)
		if err != nil {
			t.Fatal(err)
		}
		v, err := ParseVariant(c.variant)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := Open(machine(4), prob, "")
		if err != nil {
			t.Fatal(err)
		}
		if err := pr.WithVariant(v); err != nil {
			t.Fatal(err)
		}
		rhs := [][]float64{sparse.RandomVector(pr.N(), 1)}
		opts := []core.Options{{Tol: 1e-10}}
		// AllocsPerRun's first call is the cold solve that builds what
		// the counted ones reuse.
		got := testing.AllocsPerRun(20, func() {
			if _, err := pr.SolveBatch(rhs, opts); err != nil {
				t.Fatal(err)
			}
		})
		if got != c.want {
			t.Errorf("%s %s: a warm SolveBatch allocated %v times, want %v", c.key, c.variant, got, c.want)
		}
	}
}
