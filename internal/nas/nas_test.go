package nas

import (
	"math"
	"testing"

	"hpfcg/internal/comm"
	"hpfcg/internal/sparse"
	"hpfcg/internal/topology"
)

// A small class for fast tests.
var tiny = sparse.NASCGClass{Name: "T", N: 200, Nonzer: 5, Shift: 8, NIter: 10}

func TestSequentialRun(t *testing.T) {
	res := RunWithMatrix(tiny, sparse.NASCGMatrix(tiny, 7))
	if res.OuterIts != tiny.NIter || len(res.Zetas) != tiny.NIter {
		t.Fatalf("trajectory length %d", len(res.Zetas))
	}
	if res.MatVecs != tiny.NIter*InnerIters {
		t.Errorf("MatVecs = %d, want %d", res.MatVecs, tiny.NIter*InnerIters)
	}
	if err := Verify(res); err != nil {
		t.Fatalf("Verify: %v (zetas %v)", err, res.Zetas)
	}
	// zeta must exceed the shift: A's eigenvalues are > shift by the
	// diagonally-dominant construction, so 1/(x·z) > 0.
	if res.FinalZeta() <= tiny.Shift {
		t.Errorf("final zeta %g <= shift %g", res.FinalZeta(), tiny.Shift)
	}
}

func TestRunDeterministic(t *testing.T) {
	a := RunWithMatrix(tiny, sparse.NASCGMatrix(tiny, 3))
	b := RunWithMatrix(tiny, sparse.NASCGMatrix(tiny, 3))
	if a.FinalZeta() != b.FinalZeta() {
		t.Errorf("same seed differs: %g vs %g", a.FinalZeta(), b.FinalZeta())
	}
	c := RunWithMatrix(tiny, sparse.NASCGMatrix(tiny, 4))
	if a.FinalZeta() == c.FinalZeta() {
		t.Errorf("different seeds should differ")
	}
}

func TestDistributedMatchesSequential(t *testing.T) {
	A := sparse.NASCGMatrix(tiny, 7)
	want := RunWithMatrix(tiny, A)
	for _, np := range []int{1, 2, 4} {
		m := comm.NewMachine(np, topology.Hypercube{}, topology.DefaultCostParams())
		var got Result
		m.Run(func(p *comm.Proc) {
			r := RunDistributed(p, tiny, A)
			if p.Rank() == 0 {
				got = r
			}
		})
		if err := Verify(got); err != nil {
			t.Fatalf("np=%d: %v", np, err)
		}
		for i := range want.Zetas {
			if math.Abs(got.Zetas[i]-want.Zetas[i]) > 1e-8*math.Abs(want.Zetas[i]) {
				t.Fatalf("np=%d outer %d: zeta %g vs sequential %g", np, i, got.Zetas[i], want.Zetas[i])
			}
		}
	}
}

func TestClassS(t *testing.T) {
	if testing.Short() {
		t.Skip("class S takes a few seconds")
	}
	res := RunWithMatrix(sparse.NASClassS, sparse.NASCGMatrix(sparse.NASClassS, 1))
	if err := Verify(res); err != nil {
		t.Fatal(err)
	}
	if res.FinalZeta() <= sparse.NASClassS.Shift {
		t.Errorf("zeta %g below shift", res.FinalZeta())
	}
}

func TestVerifyRejectsBadRuns(t *testing.T) {
	good := RunWithMatrix(tiny, sparse.NASCGMatrix(tiny, 2))
	cases := map[string]func(Result) Result{
		"short": func(r Result) Result {
			r.Zetas = r.Zetas[:1]
			return r
		},
		"unsettled": func(r Result) Result {
			z := append([]float64(nil), r.Zetas...)
			z[len(z)-1] *= 2
			r.Zetas = z
			return r
		},
		"residual-grew": func(r Result) Result {
			rn := append([]float64(nil), r.RNorms...)
			rn[len(rn)-1] = rn[0] * 10
			r.RNorms = rn
			return r
		},
	}
	for name, mutate := range cases {
		if err := Verify(mutate(good)); err == nil {
			t.Errorf("%s: Verify accepted a corrupted run", name)
		}
	}
}
