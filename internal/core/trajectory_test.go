package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"hpfcg/internal/comm"
	"hpfcg/internal/darray"
	"hpfcg/internal/dist"
	"hpfcg/internal/mfree"
	"hpfcg/internal/sparse"
	"hpfcg/internal/spmv"
)

// trajectoryPin holds, per exported solver and processor count, the
// recorded outcome of one solve: an FNV-1a hash over the bits of the
// solution, the iteration count, the bits of the final relative
// residual, every operation counter and the bits of the modeled run
// time. The solvers share their prologue, stop test and residual step,
// so a change to any of those that moves an operation, a counter or a
// flop charge moves some row here. A deliberate change to a trajectory
// regenerates the rows from the failure messages, which print each run
// as its table line.
var trajectoryPin = map[string]string{
	"cg/np=1":                  "x=56fba3920a344112 iters=26 res=3dcf209f61b2cb73 mv=27 mvT=0 dot=54 axpy=78 red=53 ckpt=0 repl=0 model=3f38ee0d8f34bbc7",
	"cg/np=3":                  "x=1975a76bec1fcba3 iters=26 res=3dcf209f61b2cb79 mv=27 mvT=0 dot=54 axpy=78 red=53 ckpt=0 repl=0 model=3f6368c8407611cc",
	"cg/np=4":                  "x=de0aadcc6a36f50a iters=26 res=3dcf209f61b2cb8f mv=27 mvT=0 dot=54 axpy=78 red=53 ckpt=0 repl=0 model=3f67abfe4b1f0d10",
	"pcg-jacobi/np=1":          "x=aaaf9eeed46c0a6a iters=21 res=3dd5b193db8a8d4e mv=22 mvT=0 dot=66 axpy=63 red=44 ckpt=0 repl=0 model=3f36df3f961804d5",
	"pcg-jacobi/np=3":          "x=91fa953fe8b072c1 iters=21 res=3dd5b193db8a8d21 mv=22 mvT=0 dot=66 axpy=63 red=44 ckpt=0 repl=0 model=3f606b11f1c4fed2",
	"pcg-jacobi/np=4":          "x=b6775312ee8d8a09 iters=21 res=3dd5b193db8a8d67 mv=22 mvT=0 dot=66 axpy=63 red=44 ckpt=0 repl=0 model=3f64080f98fa3753",
	"cgunfused/np=1":           "x=56fba3920a344112 iters=26 res=3dcf209f61b2cb73 mv=27 mvT=0 dot=80 axpy=78 red=80 ckpt=0 repl=0 model=3f3af98089fe1b06",
	"cgunfused/np=3":           "x=1975a76bec1fcba3 iters=26 res=3dcf209f61b2cb79 mv=27 mvT=0 dot=80 axpy=78 red=80 ckpt=0 repl=0 model=3f6a3ac97f9058c1",
	"cgunfused/np=4":           "x=de0aadcc6a36f50a iters=26 res=3dcf209f61b2cb8f mv=27 mvT=0 dot=80 axpy=78 red=80 ckpt=0 repl=0 model=3f705f3b4ee08da0",
	"bicg/np=1":                "x=56fba3920a344112 iters=26 res=3dcf209f61b2cb73 mv=27 mvT=26 dot=80 axpy=129 red=53 ckpt=0 repl=0 model=3f467a95c853c141",
	"bicg/np=3":                "x=a44c550ed25a155c iters=26 res=3dcf209f61b2cb71 mv=27 mvT=26 dot=80 axpy=129 red=53 ckpt=0 repl=0 model=3f6955f224f60382",
	"bicg/np=4":                "x=b2f65d4e0294787d iters=26 res=3dcf209f61b2cb8d mv=27 mvT=26 dot=80 axpy=129 red=53 ckpt=0 repl=0 model=3f6f9a74b5df751e",
	"cgs/np=1":                 "x=fabb5e6d3c497553 iters=15 res=3dd19a3e9e177aa2 mv=31 mvT=0 dot=47 axpy=103 red=31 ckpt=0 repl=0 model=3f3c7ebbc7c1caf8",
	"cgs/np=3":                 "x=bb000476ef95c4cf iters=15 res=3dd19a3e9de108fd mv=31 mvT=0 dot=47 axpy=103 red=31 ckpt=0 repl=0 model=3f5db94e6ac71e4d",
	"cgs/np=4":                 "x=1bbd8e695f76d60a iters=15 res=3dd19a3e9df10420 mv=31 mvT=0 dot=47 axpy=103 red=31 ckpt=0 repl=0 model=3f6140ca7584916f",
	"bicgstab/np=1":            "x=8eb2550f436ecfb1 iters=17 res=3db61d0d91746778 mv=35 mvT=0 dot=87 axpy=101 red=52 ckpt=0 repl=0 model=3f40d1089baff43f",
	"bicgstab/np=3":            "x=395a4e6aa65f4cba iters=17 res=3db61d0d91724cee mv=35 mvT=0 dot=87 axpy=101 red=52 ckpt=0 repl=0 model=3f651e4a42ef3dcf",
	"bicgstab/np=4":            "x=4b980f19de6da164 iters=17 res=3db61d0d917492b8 mv=35 mvT=0 dot=87 axpy=101 red=52 ckpt=0 repl=0 model=3f693edb321550c2",
	"chebyshev/np=1":           "x=9d7454c45af25e07 iters=70 res=3dd9d5adf6b39077 mv=71 mvT=0 dot=9 axpy=211 red=8 ckpt=0 repl=0 model=3f469b77eb1e1b95",
	"chebyshev/np=3":           "x=9d7454c45af25e07 iters=70 res=3dd9d5adf6b39076 mv=71 mvT=0 dot=9 axpy=211 red=8 ckpt=0 repl=0 model=3f61a9501af579c6",
	"chebyshev/np=4":           "x=9d7454c45af25e07 iters=70 res=3dd9d5adf6b39077 mv=71 mvT=0 dot=9 axpy=211 red=8 ckpt=0 repl=0 model=3f6217ba5bdbf3ec",
	"cgsstep-4/np=1":           "x=5f632ef944d527cf iters=26 res=3dcf20a826ae5077 mv=50 mvT=0 dot=370 axpy=99 red=9 ckpt=0 repl=0 model=3f527a20578e5c54",
	"cgsstep-4/np=3":           "x=2972dda9704cebe6 iters=26 res=3dcf20a012e76762 mv=50 mvT=0 dot=370 axpy=99 red=9 ckpt=0 repl=0 model=3f53fe4469108fcc",
	"cgsstep-4/np=4":           "x=b3923afbb5f11510 iters=26 res=3dcf20a2ede33216 mv=50 mvT=0 dot=370 axpy=99 red=9 ckpt=0 repl=0 model=3f5661ec2e3bfd8e",
	"cgpipelined/np=1":         "x=557b834333d557f3 iters=26 res=3dcf209af9a428f4 mv=30 mvT=0 dot=57 axpy=155 red=29 ckpt=0 repl=0 model=3f406fb9cc3f083b",
	"cgpipelined/np=3":         "x=df541a5bf4cd2a81 iters=26 res=3dcf208cb00661c6 mv=30 mvT=0 dot=57 axpy=155 red=29 ckpt=0 repl=0 model=3f5144a0eecd7db1",
	"cgpipelined/np=4":         "x=e287b03c418dcad5 iters=26 res=3dcf209245c080ea mv=30 mvT=0 dot=57 axpy=155 red=29 ckpt=0 repl=0 model=3f55d1ce695a0ba9",
	"cgpipelined-mfree/np=1":   "x=b3d6effdf200712a iters=35 res=3dd0e7f481e5c614 mv=39 mvT=0 dot=75 axpy=209 red=38 ckpt=0 repl=0 model=3f43000ceb1ff40c",
	"cgpipelined-mfree/np=3":   "x=78a121b1b7fb4d19 iters=35 res=3dd0e80392371177 mv=39 mvT=0 dot=75 axpy=209 red=38 ckpt=0 repl=0 model=3f5637e5499b54b4",
	"cgpipelined-mfree/np=4":   "x=519ebc1d2eb2236f iters=35 res=3dd0e7fb8d85bc90 mv=39 mvT=0 dot=75 axpy=209 red=38 ckpt=0 repl=0 model=3f5ca10afd092aef",
	"cgresilient/np=1":         "x=56fba3920a344112 iters=26 res=3dcf209f61b2cb73 mv=27 mvT=0 dot=54 axpy=78 red=53 ckpt=5 repl=0 model=3f40766fc8e5b77d",
	"cgresilient/np=3":         "x=1975a76bec1fcba3 iters=26 res=3dcf209f61b2cb79 mv=27 mvT=0 dot=54 axpy=78 red=53 ckpt=5 repl=0 model=3f6403f8b304a4a1",
	"cgresilient/np=4":         "x=de0aadcc6a36f50a iters=26 res=3dcf209f61b2cb8f mv=27 mvT=0 dot=54 axpy=78 red=53 ckpt=5 repl=0 model=3f683a9983f51770",
	"cgresilient-restore/np=1": "x=56fba3920a344112 iters=26 res=3dcf209f61b2cb73 mv=17 mvT=0 dot=35 axpy=48 red=34 ckpt=3 repl=0 model=3f41dbca9691a75a",
	"cgresilient-restore/np=3": "x=1975a76bec1fcba3 iters=26 res=3dcf209f61b2cb79 mv=17 mvT=0 dot=35 axpy=48 red=34 ckpt=3 repl=0 model=3f6633d3c2097a42",
	"cgresilient-restore/np=4": "x=de0aadcc6a36f50a iters=26 res=3dcf209f61b2cb8f mv=17 mvT=0 dot=35 axpy=48 red=34 ckpt=3 repl=0 model=3f6ae62ff53b2ac4",
}

// pinSolve runs one solver on rank p. store is shared by the machine's
// ranks, for CGResilient.
type pinSolve func(p *comm.Proc, A *sparse.CSR, d dist.Block, b, x *darray.Vector, store *CheckpointStore) (Stats, error)

// pinRuns are the solves the pin records: every exported solver on one
// SPD system (Chebyshev on the 2-D Laplacian, whose spectrum is known),
// and CGResilient both from a clean start and restored from a
// checkpoint.
var pinRuns = []struct {
	name  string
	solve pinSolve
}{
	{"cg", func(p *comm.Proc, A *sparse.CSR, d dist.Block, b, x *darray.Vector, _ *CheckpointStore) (Stats, error) {
		return CG(p, spmv.NewRowBlockCSR(p, A, d), b, x, Options{Tol: 1e-10})
	}},
	{"pcg-jacobi", func(p *comm.Proc, A *sparse.CSR, d dist.Block, b, x *darray.Vector, _ *CheckpointStore) (Stats, error) {
		M, err := NewJacobi(p, A, d)
		if err != nil {
			return Stats{}, err
		}
		return PCG(p, spmv.NewRowBlockCSR(p, A, d), M, b, x, Options{Tol: 1e-10})
	}},
	{"cgunfused", func(p *comm.Proc, A *sparse.CSR, d dist.Block, b, x *darray.Vector, _ *CheckpointStore) (Stats, error) {
		return CGUnfused(p, spmv.NewRowBlockCSR(p, A, d), b, x, Options{Tol: 1e-10})
	}},
	{"bicg", func(p *comm.Proc, A *sparse.CSR, d dist.Block, b, x *darray.Vector, _ *CheckpointStore) (Stats, error) {
		return BiCG(p, spmv.NewRowBlockCSR(p, A, d), b, x, Options{Tol: 1e-10})
	}},
	{"cgs", func(p *comm.Proc, A *sparse.CSR, d dist.Block, b, x *darray.Vector, _ *CheckpointStore) (Stats, error) {
		return CGS(p, spmv.NewRowBlockCSR(p, A, d), b, x, Options{Tol: 1e-10})
	}},
	{"bicgstab", func(p *comm.Proc, A *sparse.CSR, d dist.Block, b, x *darray.Vector, _ *CheckpointStore) (Stats, error) {
		return BiCGSTAB(p, spmv.NewRowBlockCSR(p, A, d), b, x, Options{Tol: 1e-10})
	}},
	{"chebyshev", func(p *comm.Proc, A *sparse.CSR, d dist.Block, b, x *darray.Vector, _ *CheckpointStore) (Stats, error) {
		// The 8×8 Laplacian's extreme eigenvalues, 4 ∓ 4·cos(π/9).
		c := 4 * math.Cos(math.Pi/9)
		return Chebyshev(p, spmv.NewRowBlockCSR(p, A, d), b, x, 4-c, 4+c, Options{Tol: 1e-10})
	}},
	{"cgsstep-4", func(p *comm.Proc, A *sparse.CSR, d dist.Block, b, x *darray.Vector, _ *CheckpointStore) (Stats, error) {
		return CGSStep(p, spmv.NewRowBlockCSRPowers(p, A, d, 4), b, x, Options{Tol: 1e-10}, 4)
	}},
	{"cgpipelined", func(p *comm.Proc, A *sparse.CSR, d dist.Block, b, x *darray.Vector, _ *CheckpointStore) (Stats, error) {
		return CGPipelined(p, spmv.NewRowBlockCSR(p, A, d), b, x, Options{Tol: 1e-10})
	}},
	{"cgresilient", func(p *comm.Proc, A *sparse.CSR, d dist.Block, b, x *darray.Vector, store *CheckpointStore) (Stats, error) {
		return CGResilient(p, spmv.NewRowBlockCSR(p, A, d), b, x, Options{Tol: 1e-10},
			Resilience{Store: store, Interval: 5})
	}},
	{"cgresilient-restore", func(p *comm.Proc, A *sparse.CSR, d dist.Block, b, x *darray.Vector, store *CheckpointStore) (Stats, error) {
		// A first attempt stops at iteration 12 with checkpoints at 5
		// and 10; the second restores iteration 10 and finishes.
		op := spmv.NewRowBlockCSR(p, A, d)
		res := Resilience{Store: store, Interval: 5}
		if _, err := CGResilient(p, op, b, x, Options{Tol: 1e-10, MaxIter: 12}, res); err != nil {
			return Stats{}, err
		}
		x.Fill(0)
		return CGResilient(p, op, b, x, Options{Tol: 1e-10}, res)
	}},
}

// pinLine formats one run as its trajectoryPin value.
func pinLine(st Stats, x []float64, model float64) string {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range x {
		bits := math.Float64bits(v)
		for i := range buf {
			buf[i] = byte(bits >> (8 * i))
		}
		h.Write(buf[:])
	}
	return fmt.Sprintf("x=%016x iters=%d res=%016x mv=%d mvT=%d dot=%d axpy=%d red=%d ckpt=%d repl=%d model=%016x",
		h.Sum64(), st.Iterations, math.Float64bits(st.Residual), st.MatVecs, st.TransMatVecs,
		st.DotProducts, st.AXPYs, st.Reductions, st.Checkpoints, st.Replacements, math.Float64bits(model))
}

// mfreePinSpec is the operator of the cgpipelined-mfree rows: a
// matrix-free 5-point stencil of 9 planes of 7 points, so no rank's
// block (63 points at np 1, 21 at np 3, 21 and 14 at np 4) is a
// multiple of four.
var mfreePinSpec = mfree.Spec{Stencil: "5pt", Nx: 9, Ny: 7}

// TestSolverTrajectoriesPinned runs every exported solver at np 1, 3
// and 4 and holds each run to its recorded line in trajectoryPin, then
// CGPipelined on the matrix-free mfreePinSpec.
func TestSolverTrajectoriesPinned(t *testing.T) {
	for _, run := range pinRuns {
		A := sparse.RandomSPD(60, 5, 21)
		if run.name == "chebyshev" {
			A = sparse.Laplace2D(8, 8)
		}
		b := sparse.RandomVector(A.NRows, 8)
		for _, np := range []int{1, 3, 4} {
			d := dist.NewBlock(A.NRows, np)
			store := NewCheckpointStore(np)
			pinRun(t, fmt.Sprintf("%s/np=%d", run.name, np), np, d, b, func(p *comm.Proc, bv, xv *darray.Vector) (Stats, error) {
				return run.solve(p, A, d, bv, xv, store)
			})
		}
	}
	b := sparse.RandomVector(mfreePinSpec.N(), 8)
	for _, np := range []int{1, 3, 4} {
		brick, err := mfreePinSpec.Brick(np)
		if err != nil {
			t.Fatal(err)
		}
		pinRun(t, fmt.Sprintf("cgpipelined-mfree/np=%d", np), np, brick.VectorDist(), b, func(p *comm.Proc, bv, xv *darray.Vector) (Stats, error) {
			A, err := mfree.New(p, mfreePinSpec)
			if err != nil {
				return Stats{}, err
			}
			return CGPipelined(p, A, bv, xv, Options{Tol: 1e-10})
		})
	}
}

// pinRun runs solve on an np-rank machine, over vectors distributed by
// d with right-hand side b, and holds the run to trajectoryPin[key].
func pinRun(t *testing.T, key string, np int, d dist.Dist, b []float64, solve func(p *comm.Proc, bv, xv *darray.Vector) (Stats, error)) {
	t.Helper()
	x := make([]float64, len(b))
	var st Stats
	rs := machine(np).Run(func(p *comm.Proc) {
		bv := darray.New(p, d)
		bv.SetGlobal(func(g int) float64 { return b[g] })
		xv := darray.New(p, d)
		s, err := solve(p, bv, xv)
		if err != nil {
			t.Errorf("%s: %v", key, err)
		}
		// Each rank writes its own block: no gather, so no
		// communication joins the modeled clock.
		for off, v := range xv.Local() {
			x[d.Global(p.Rank(), off)] = v
		}
		if p.Rank() == 0 {
			st = s
		}
	})
	if !st.Converged {
		t.Errorf("%s: did not converge: %v", key, st)
	}
	got := pinLine(st, x, rs.ModelTime)
	if want := trajectoryPin[key]; got != want {
		t.Errorf("%s moved:\n\t%q: %q,\nwant %q", key, key, got, want)
	}
}
