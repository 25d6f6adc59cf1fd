package serve

import (
	"slices"
	"testing"

	"hpfcg/internal/hpfexec"
	"hpfcg/internal/mfree"
	"hpfcg/internal/mg"
	"hpfcg/internal/sparse"
)

// FuzzJobSpec drives a request body through the admission path the
// HTTP handler runs — DecodeJobSpec, normalize, validate — and
// holds an accepted spec to the bounds admission promises the workers:
// np, every dimension, the iteration cap and the variant knobs are in
// range (sstep only where it is read: a resilient job runs plain), the
// variant the workers run is one the legality table admits on the
// job's backend and a CG kind (no §2.1 method), and a generator spec is one GeneratorByName will
// build.
func FuzzJobSpec(f *testing.F) {
	for _, s := range []string{
		`{"matrix":"laplace2d:32:32","np":4}`,
		`{"matrix":"laplace2d:-3:4"}`, `{"matrix":"laplace2d:32:32junk"}`, `{"matrix":"banded:512:4:99"}`,
		`{"matrix":"laplace2d:32:32:7"}`, `{"matrix":"laplace2d: 4:4"}`, `{"matrix":"banded:8:-1"}`,
		`{"matrix":"laplace2d:0:0"}`, `{"matrix":"laplace1d:0"}`,
		`{"matrix":"banded:96:3","np":9999}`, `{"matrix":"laplace1d:32","maxiter":-1}`,
		`{"matrix":"laplace1d:32","sstep":99}`, `{"matrix":"laplace1d:32","fault":"crash:rank=1@t=NaN"}`,
		`{"matrix_market":"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 3.5\n","np":2}`,
		`{"method":"hpcg","mg":{"nx":8,"ny":8,"nz":8,"levels":3},"np":2}`,
		`{"method":"hpcg","mg":{"nx":-8,"ny":8,"nz":100000}}`,
		`{"method":"stencil","stencil":{"stencil":"27pt","nx":8,"ny":8,"nz":8},"np":2}`,
		`{"method":"stencil","stencil":{"stencil":"5pt","nx":0,"ny":8},"pipelined":true}`,
		`{"matrix":"laplace1d:32","sstep":99,"resilient":true}`, `{"matrix":"laplace1d:32","unknown_field":1}`, `{`, ``, `null`, `[]`,
	} {
		f.Add([]byte(s))
	}
	const maxNP = 32
	f.Fuzz(func(t *testing.T, body []byte) {
		sp, err := DecodeJobSpec(body)
		if err != nil {
			return
		}
		sp.normalize()
		if sp.validate(maxNP) != nil {
			return
		}
		if sp.NP < 1 || sp.NP > maxNP {
			t.Fatalf("accepted np = %d", sp.NP)
		}
		if sp.MaxIter < 0 || !sp.Resilient && (sp.SStep < 0 || sp.SStep > hpfexec.MaxSStep) || sp.TimeoutMS < 0 ||
			sp.CkptInterval < 0 || sp.MaxRestarts < 0 || sp.Tol < 0 {
			t.Fatalf("accepted out-of-range knob: %+v", sp)
		}
		backend, err := sp.prob.Backend(sp.Layout)
		if err == nil {
			err = hpfexec.CheckVariant(backend, sp.variant)
		}
		if err != nil {
			t.Fatalf("accepted variant %v on %+v: %v", sp.variant, sp, err)
		}
		// The JSON spells no §2.1 method: a served job runs CG.
		if kind := sp.variant.Kind(); !slices.Contains([]string{"plain", "sstep", "auto", "pipelined", "resilient"}, kind) {
			t.Fatalf("accepted variant kind %q on %+v", kind, sp)
		}
		switch sp.Method {
		case "cg":
			if sp.MatrixMarket == "" {
				if err := sparse.CheckGeneratorSpec(sp.Matrix); err != nil {
					t.Fatalf("accepted generator spec %q: %v", sp.Matrix, err)
				}
			}
		case "hpcg":
			for _, d := range []int{sp.MG.Nx, sp.MG.Ny, sp.MG.Nz} {
				if d < 1 || d > mg.MaxDim {
					t.Fatalf("accepted mg dims %+v", *sp.MG)
				}
			}
			if sp.MG.Levels < 0 || sp.MG.Levels > mg.MaxLevels || sp.MG.Smooths < 0 || sp.MG.Smooths > mg.MaxSmooths {
				t.Fatalf("accepted mg depth %+v", *sp.MG)
			}
		case "stencil":
			st := mfree.Spec(*sp.Stencil)
			for _, d := range []int{st.Nx, st.Ny, max(st.Nz, 1)} {
				if d < 1 || d > mfree.MaxDim {
					t.Fatalf("accepted stencil dims %+v", st)
				}
			}
			if _, err := st.Brick(sp.NP); err != nil {
				t.Fatalf("accepted stencil %+v does not split over np=%d: %v", st, sp.NP, err)
			}
		default:
			t.Fatalf("accepted job type %q", sp.Method)
		}
	})
}
