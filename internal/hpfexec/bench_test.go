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
