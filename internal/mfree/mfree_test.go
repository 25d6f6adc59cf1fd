package mfree

import (
	"context"
	"math"
	"strings"
	"testing"

	"hpfcg/internal/comm"
	"hpfcg/internal/darray"
	"hpfcg/internal/sparse"
	"hpfcg/internal/spmv"
	"hpfcg/internal/topology"
)

func machine(np int) *comm.Machine {
	return comm.NewMachine(np, topology.Hypercube{}, topology.DefaultCostParams())
}

// specs5 and specs27 are the cross-np test shapes: slab dimensions
// chosen so np∈{2,3,4,8} all produce uneven brick splits.
var (
	spec5  = Spec{Stencil: "5pt", Nx: 11, Ny: 5}
	spec27 = Spec{Stencil: "27pt", Nx: 3, Ny: 4, Nz: 9}
)

// TestAssembleMatchesLaplace2D: the 5pt assembled comparator with
// canonical coefficients must be bit-for-bit the generator the rest of
// the repo solves — same structure arrays, same value bits.
func TestAssembleMatchesLaplace2D(t *testing.T) {
	s := Spec{Stencil: "5pt", Nx: 9, Ny: 6}
	A, err := s.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	B := sparse.Laplace2D(9, 6)
	if A.NRows != B.NRows || A.NNZ() != B.NNZ() {
		t.Fatalf("shape %d/%d vs %d/%d", A.NRows, A.NNZ(), B.NRows, B.NNZ())
	}
	for i := range B.RowPtr {
		if A.RowPtr[i] != B.RowPtr[i] {
			t.Fatalf("RowPtr[%d] = %d, want %d", i, A.RowPtr[i], B.RowPtr[i])
		}
	}
	for k := range B.Val {
		if A.Col[k] != B.Col[k] || A.Val[k] != B.Val[k] {
			t.Fatalf("entry %d = (%d,%g), want (%d,%g)", k, A.Col[k], A.Val[k], B.Col[k], B.Val[k])
		}
	}
	if got, want := s.NNZ(), A.NNZ(); got != want {
		t.Errorf("analytic NNZ = %d, assembled %d", got, want)
	}
}

// TestNNZAnalytic: the analytic entry count matches the assembled form
// for both stencils.
func TestNNZAnalytic(t *testing.T) {
	for _, s := range []Spec{spec5, spec27} {
		A, err := s.Assemble()
		if err != nil {
			t.Fatal(err)
		}
		if s.NNZ() != A.NNZ() {
			t.Errorf("%s: analytic NNZ %d != assembled %d", s.Stencil, s.NNZ(), A.NNZ())
		}
	}
}

// TestMulVecMatchesAssembled: the sequential matrix-free reference
// apply is bitwise the assembled CSR product.
func TestMulVecMatchesAssembled(t *testing.T) {
	for _, s := range []Spec{spec5, spec27, {Stencil: "5pt", Nx: 6, Ny: 6, Center: 1.8, Off: -0.2}} {
		A, err := s.Assemble()
		if err != nil {
			t.Fatal(err)
		}
		n := s.N()
		x := sparse.RandomVector(n, 11)
		want := make([]float64, n)
		got := make([]float64, n)
		A.MulVec(x, want)
		s.MulVec(x, got)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: MulVec[%d] = %v, want %v", s.Stencil, i, got[i], want[i])
			}
		}
	}
}

// bitIdentitySpecs is the edge table of TestBitIdenticalToAssembled:
// every in-plane shape that selects a different kernel path (X, Y of 1
// and 2 have no x- or y-interior, 3 has a one-point interior, 5 a real
// one), slab dimensions that give ranks one plane, two planes and mixed
// thicknesses at np ∈ {1,2,3,4,8}, and coefficient pairs of every sign
// pattern — with Center and Off both negative every product of the zero
// vector is -0, so a kernel that did not start its sum from +0 shows.
func bitIdentitySpecs() []Spec {
	coefs := [][2]float64{{0, 0}, {7.5, -0.25}, {-3.5, 0.5}, {-2, -0.5}}
	var specs []Spec
	for _, co := range coefs {
		for _, nx := range []int{1, 2, 3, 5} {
			for _, ny := range []int{1, 2, 3, 5} {
				for _, nz := range []int{1, 2, 3, 8, 9, 16} {
					specs = append(specs, Spec{Stencil: "27pt", Nx: nx, Ny: ny, Nz: nz, Center: co[0], Off: co[1]})
				}
			}
		}
		for _, nx := range []int{1, 2, 3, 8, 11, 16} {
			for _, ny := range []int{1, 2, 3, 7} {
				specs = append(specs, Spec{Stencil: "5pt", Nx: nx, Ny: ny, Center: co[0], Off: co[1]})
			}
		}
	}
	return append(specs, spec5, spec27)
}

// TestBitIdenticalToAssembled is the subsystem's ground truth: on every
// kernel edge and at every rank count (including uneven slab splits)
// the matrix-free Apply and ApplyDot must produce bit-identical vectors
// — and bit-identical local dot partials — to the assembled-CSR ghost
// executor over the same brick layout, with the same local entry counts
// feeding the flop charges. Values compare by math.Float64bits, which
// tells -0 from +0 where != cannot.
func TestBitIdenticalToAssembled(t *testing.T) {
	for _, s := range bitIdentitySpecs() {
		A, err := s.Assemble()
		if err != nil {
			t.Fatal(err)
		}
		// A slice, not a map: every rank must walk the inputs in the
		// same order or the halo exchanges pair different vectors.
		inputs := []struct {
			name string
			xs   []float64
		}{
			{"random", sparse.RandomVector(s.N(), 3)},
			{"zero", make([]float64, s.N())},
		}
		for _, np := range []int{1, 2, 3, 4, 8} {
			if _, err := s.Brick(np); err != nil {
				continue // slab dimension thinner than np
			}
			if _, err := machine(np).RunContext(context.Background(), func(p *comm.Proc) {
				op, err := New(p, s)
				if err != nil {
					t.Error(err)
					return
				}
				ref := spmv.NewRowBlockCSRGhost(p, A, op.Dist())
				if op.N() != ref.N() || op.NNZ() != ref.NNZ() {
					t.Errorf("%s np=%d: shape %d/%d vs %d/%d", s.Key(), np, op.N(), op.NNZ(), ref.N(), ref.NNZ())
				}
				if op.LocalNNZ() != ref.LocalNNZ() {
					t.Errorf("%s np=%d rank %d: local nnz %d, assembled %d", s.Key(), np, p.Rank(), op.LocalNNZ(), ref.LocalNNZ())
				}
				x := darray.New(p, op.Dist())
				ym := darray.New(p, op.Dist())
				ya := darray.New(p, op.Dist())
				sameBits := func(what string) bool {
					ml, al := ym.Local(), ya.Local()
					for i := range ml {
						if math.Float64bits(ml[i]) != math.Float64bits(al[i]) {
							t.Errorf("%s np=%d rank %d: %s y[%d] = %v, assembled %v", s.Key(), np, p.Rank(), what, i, ml[i], al[i])
							return false
						}
					}
					return true
				}
				for _, in := range inputs {
					name, xs := in.name, in.xs
					x.SetGlobal(func(g int) float64 { return xs[g] })
					op.Apply(x, ym)
					ref.Apply(x, ya)
					if !sameBits(name + " Apply") {
						return
					}
					// Poison y so a point ApplyDot skipped cannot pass on
					// what Apply left behind.
					ym.Fill(math.NaN())
					dm := op.ApplyDot(x, ym)
					da := ref.ApplyDot(x, ya)
					if math.Float64bits(dm) != math.Float64bits(da) {
						t.Errorf("%s np=%d rank %d: %s ApplyDot partial %v, assembled %v", s.Key(), np, p.Rank(), name, dm, da)
					}
					if !sameBits(name + " ApplyDot") {
						return
					}
				}
			}); err != nil {
				t.Fatalf("%s np=%d: %v", s.Key(), np, err)
			}
		}
	}
}

// TestGhostCountMatchesInspector: the geometric schedule fetches
// exactly the ghost set the inspector would discover — same remote
// element count per rank, so per-iteration modeled communication is
// identical and only setup differs.
func TestGhostCountMatchesInspector(t *testing.T) {
	for _, s := range []Spec{spec5, spec27} {
		A, err := s.Assemble()
		if err != nil {
			t.Fatal(err)
		}
		for _, np := range []int{1, 2, 3, 4} {
			machine(np).Run(func(p *comm.Proc) {
				op, err := New(p, s)
				if err != nil {
					t.Error(err)
					return
				}
				ref := spmv.NewRowBlockCSRGhost(p, A, op.Dist())
				if op.NGhosts() != ref.NGhosts() {
					t.Errorf("%s np=%d rank %d: geometric ghosts %d, inspector %d",
						s.Stencil, np, p.Rank(), op.NGhosts(), ref.NGhosts())
				}
			})
		}
	}
}

// TestHaloTrafficMatchesAssembled pins the per-apply traffic: K applies
// of the matrix-free operator and K applies of the assembled halo
// executor over the same layout move the same messages and bytes, sent
// and received, and charge the same flops, on every rank. Counted after
// construction, so the inspector's request exchange is not part of the
// comparison.
func TestHaloTrafficMatchesAssembled(t *testing.T) {
	const K = 3
	for _, s := range []Spec{spec5, spec27} {
		A, err := s.Assemble()
		if err != nil {
			t.Fatal(err)
		}
		for np := 1; np <= 8; np++ {
			if _, err := s.Brick(np); err != nil {
				continue
			}
			machine(np).Run(func(p *comm.Proc) {
				op, err := New(p, s)
				if err != nil {
					t.Error(err)
					return
				}
				ref := spmv.NewRowBlockCSRGhost(p, A, op.Dist())
				x := darray.New(p, op.Dist())
				y := darray.New(p, op.Dist())
				x.Fill(1)
				delta := func(o spmv.Operator) comm.ProcStats {
					before := p.Stats()
					for i := 0; i < K; i++ {
						o.Apply(x, y)
					}
					after := p.Stats()
					return comm.ProcStats{
						MsgsSent:  after.MsgsSent - before.MsgsSent,
						BytesSent: after.BytesSent - before.BytesSent,
						MsgsRecv:  after.MsgsRecv - before.MsgsRecv,
						BytesRecv: after.BytesRecv - before.BytesRecv,
						Flops:     after.Flops - before.Flops,
					}
				}
				got, want := delta(op), delta(ref)
				if got != want {
					t.Errorf("%s np=%d rank %d: matrix-free traffic %+v, assembled %+v", s.Key(), np, p.Rank(), got, want)
				}
			})
		}
	}
}

// TestApplyAllocFree: the stencil hot path allocates nothing in steady
// state. AllocsPerRun counts process-wide allocations, so every rank
// runs the measured loop in lockstep (the halo exchange keeps them
// aligned) and the total must still be zero.
func TestApplyAllocFree(t *testing.T) {
	for _, s := range []Spec{spec5, spec27} {
		for _, np := range []int{1, 4} {
			var allocs float64
			machine(np).Run(func(p *comm.Proc) {
				op, err := New(p, s)
				if err != nil {
					t.Error(err)
					return
				}
				x := darray.New(p, op.Dist())
				y := darray.New(p, op.Dist())
				x.SetGlobal(func(g int) float64 { return float64(g%5) - 2 })
				op.Apply(x, y) // warm-up: pools fill
				op.ApplyDot(x, y)
				const runs = 10
				if p.Rank() == 0 {
					allocs = testing.AllocsPerRun(runs, func() {
						op.Apply(x, y)
						op.ApplyDot(x, y)
					})
				} else {
					// AllocsPerRun calls f runs+1 times; match it so
					// the halo exchanges stay aligned across ranks.
					for i := 0; i < runs+1; i++ {
						op.Apply(x, y)
						op.ApplyDot(x, y)
					}
				}
			})
			if allocs != 0 {
				t.Errorf("%s np=%d: Apply+ApplyDot allocates %v in steady state", s.Stencil, np, allocs)
			}
		}
	}
}

// TestRebindBitIdentical: rebinding a cached operator onto a fresh
// run's Proc (the warm plan-registry path) reproduces the cold Apply
// bit for bit.
func TestRebindBitIdentical(t *testing.T) {
	s := spec27
	np := 3
	xs := sparse.RandomVector(s.N(), 5)
	ops := make([]*Operator, np)
	cold := make([]float64, 0, s.N())
	machine(np).Run(func(p *comm.Proc) {
		op, err := New(p, s)
		if err != nil {
			t.Error(err)
			return
		}
		ops[p.Rank()] = op
		x := darray.New(p, op.Dist())
		y := darray.New(p, op.Dist())
		x.SetGlobal(func(g int) float64 { return xs[g] })
		op.Apply(x, y)
		full := y.Gather()
		if p.Rank() == 0 {
			cold = append(cold, full...)
		}
	})
	machine(np).Run(func(p *comm.Proc) {
		op := ops[p.Rank()]
		op.Rebind(p)
		x := darray.New(p, op.Dist())
		y := darray.New(p, op.Dist())
		x.SetGlobal(func(g int) float64 { return xs[g] })
		op.Apply(x, y)
		full := y.Gather()
		if p.Rank() == 0 {
			for i := range full {
				if full[i] != cold[i] {
					t.Errorf("warm Apply[%d] = %v, cold %v", i, full[i], cold[i])
					return
				}
			}
		}
	})
}

// TestSpecValidate covers the admission-time bounds the serving tier
// relies on, and the slab-vs-np check at brick time.
func TestSpecValidate(t *testing.T) {
	cases := []struct {
		spec Spec
		frag string
	}{
		{Spec{Stencil: "9pt", Nx: 4, Ny: 4}, "stencil"},
		{Spec{Stencil: "5pt", Nx: 0, Ny: 4}, "nx"},
		{Spec{Stencil: "5pt", Nx: 4, Ny: MaxDim + 1}, "ny"},
		{Spec{Stencil: "5pt", Nx: 4, Ny: 4, Nz: 2}, "nz"},
		{Spec{Stencil: "27pt", Nx: 4, Ny: 4, Nz: 0}, "nz"},
		{Spec{Stencil: "5pt", Nx: 4, Ny: 4, Center: 0, Off: -2}, "center"},
	}
	for _, c := range cases {
		err := c.spec.WithDefaults().Validate()
		if err == nil || !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%+v: error %v, want mention of %q", c.spec, err, c.frag)
		}
	}
	for _, ok := range []Spec{spec5, spec27} {
		if err := ok.WithDefaults().Validate(); err != nil {
			t.Errorf("%+v: unexpected %v", ok, err)
		}
	}
	// Slab thinner than the rank count is a brick-time error.
	if _, err := (Spec{Stencil: "5pt", Nx: 2, Ny: 8}).Brick(4); err == nil {
		t.Error("5pt Nx=2 over np=4: expected brick error")
	}
	if _, err := New(nil, Spec{Stencil: "tri"}); err == nil {
		t.Error("New with bad spec: expected error")
	}
}

// TestKeyAndDefaults: the cache key carries the coefficients (they are
// the operator's values) and defaulting picks the canonical pair.
func TestKeyAndDefaults(t *testing.T) {
	if k := spec5.Key(); k != "5pt:11x5:c4:o-1" {
		t.Errorf("key = %q", k)
	}
	if k := (Spec{Stencil: "5pt", Nx: 8, Ny: 8, Center: 1.8, Off: -0.2}).Key(); k != "5pt:8x8:c1.8:o-0.2" {
		t.Errorf("key = %q", k)
	}
	if k := spec27.Key(); k != "27pt:3x4x9:c26:o-1" {
		t.Errorf("key = %q", k)
	}
	d := spec27.WithDefaults()
	if d.Center != Center27pt || d.Off != OffDefault {
		t.Errorf("defaults = %g/%g", d.Center, d.Off)
	}
	// Off = 0 with a nonzero center is a valid (diagonal) operator,
	// not a trigger for defaulting.
	nd := Spec{Stencil: "5pt", Nx: 4, Ny: 4, Center: 2}.WithDefaults()
	if nd.Off != 0 || nd.Center != 2 {
		t.Errorf("explicit coefficients rewritten: %+v", nd)
	}
}

// TestModelBytesTiny: the matrix-free plan's registry footprint is
// orders of magnitude below the assembled CSR's for the same grid.
func TestModelBytesTiny(t *testing.T) {
	s := Spec{Stencil: "27pt", Nx: 32, Ny: 32, Nz: 32}
	mb := s.ModelBytes(4)
	if mb <= 0 {
		t.Fatalf("ModelBytes = %d", mb)
	}
	csrBytes := int64(s.NNZ()) * 16 // value + column index per entry
	if mb*100 > csrBytes {
		t.Errorf("ModelBytes %d not well below assembled %d", mb, csrBytes)
	}
}
