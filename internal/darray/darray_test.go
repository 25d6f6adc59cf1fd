package darray

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hpfcg/internal/comm"
	"hpfcg/internal/dist"
	"hpfcg/internal/topology"
)

func machine(np int) *comm.Machine {
	return comm.NewMachine(np, topology.Hypercube{}, topology.DefaultCostParams())
}

var testNPs = []int{1, 2, 3, 4, 7, 8}

func TestSetGlobalAndGather(t *testing.T) {
	for _, np := range testNPs {
		n := 5*np + 3
		for _, d := range []dist.Dist{dist.NewBlock(n, np), dist.NewCyclic(n, np)} {
			m := machine(np)
			m.Run(func(p *comm.Proc) {
				v := New(p, d)
				v.SetGlobal(func(g int) float64 { return float64(g * g) })
				full := v.Gather()
				if len(full) != n {
					t.Errorf("np=%d %s: Gather length %d", np, d.Name(), len(full))
					return
				}
				for g := 0; g < n; g++ {
					if full[g] != float64(g*g) {
						t.Errorf("np=%d %s: full[%d] = %g", np, d.Name(), g, full[g])
						return
					}
				}
			})
		}
	}
}

func TestScatterGatherInverse(t *testing.T) {
	for _, np := range testNPs {
		n := 4*np + 1
		want := make([]float64, n)
		for i := range want {
			want[i] = math.Sin(float64(i))
		}
		for _, d := range []dist.Dist{dist.NewBlock(n, np), dist.NewCyclic(n, np)} {
			m := machine(np)
			m.Run(func(p *comm.Proc) {
				v := New(p, d)
				var full []float64
				if p.Rank() == 0 {
					full = want
				}
				v.ScatterFrom(0, full)
				got := v.Gather()
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("np=%d %s: elem %d = %g, want %g", np, d.Name(), i, got[i], want[i])
						return
					}
				}
			})
		}
	}
}

func TestAXPYAndAYPX(t *testing.T) {
	for _, np := range testNPs {
		n := 3*np + 2
		d := dist.NewBlock(n, np)
		m := machine(np)
		m.Run(func(p *comm.Proc) {
			v := New(p, d)
			x := New(p, d)
			v.SetGlobal(func(g int) float64 { return float64(g) })
			x.SetGlobal(func(g int) float64 { return 2 * float64(g) })
			v.AXPY(3, x) // v = g + 6g = 7g
			full := v.Gather()
			for g := range full {
				if full[g] != 7*float64(g) {
					t.Errorf("AXPY wrong at %d: %g", g, full[g])
					return
				}
			}
			v.AYPX(0.5, x) // v = 3.5g + 2g = 5.5g
			full = v.Gather()
			for g := range full {
				if full[g] != 5.5*float64(g) {
					t.Errorf("AYPX wrong at %d: %g", g, full[g])
					return
				}
			}
			v.Scale(2)
			full = v.Gather()
			for g := range full {
				if full[g] != 11*float64(g) {
					t.Errorf("Scale wrong at %d: %g", g, full[g])
					return
				}
			}
		})
	}
}

func TestDotNormSum(t *testing.T) {
	for _, np := range testNPs {
		n := 6*np + 5
		d := dist.NewBlock(n, np)
		ref := make([]float64, n)
		rng := rand.New(rand.NewSource(4))
		for i := range ref {
			ref[i] = rng.NormFloat64()
		}
		wantDot, wantSum := 0.0, 0.0
		for _, x := range ref {
			wantDot += x * x
			wantSum += x
		}
		m := machine(np)
		m.Run(func(p *comm.Proc) {
			v := New(p, d)
			v.SetGlobal(func(g int) float64 { return ref[g] })
			if got := v.Dot(v); math.Abs(got-wantDot) > 1e-9 {
				t.Errorf("np=%d Dot = %g, want %g", np, got, wantDot)
			}
			if got := v.Norm2(); math.Abs(got-math.Sqrt(wantDot)) > 1e-9 {
				t.Errorf("np=%d Norm2 = %g", np, got)
			}
			if got := v.Sum(); math.Abs(got-wantSum) > 1e-9 {
				t.Errorf("np=%d Sum = %g, want %g", np, got, wantSum)
			}
		})
	}
}

func TestCloneCopyFill(t *testing.T) {
	np := 3
	d := dist.NewBlock(10, np)
	m := machine(np)
	m.Run(func(p *comm.Proc) {
		v := New(p, d)
		v.Fill(2.5)
		c := v.Clone()
		c.Scale(2)
		if v.Local()[0] != 2.5 {
			t.Error("Clone aliases original")
		}
		w := NewAligned(v)
		w.CopyFrom(c)
		if w.Local()[0] != 5 {
			t.Errorf("CopyFrom = %g", w.Local()[0])
		}
		if v.Len() != 10 {
			t.Errorf("Len = %d", v.Len())
		}
		if v.Dist().Name() != "BLOCK" {
			t.Errorf("Dist name %q", v.Dist().Name())
		}
		if v.Proc() != p {
			t.Error("Proc() identity lost")
		}
		_ = v.String()
	})
}

func TestAlignmentEnforced(t *testing.T) {
	m := machine(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected misalignment panic")
		}
	}()
	m.Run(func(p *comm.Proc) {
		a := New(p, dist.NewBlock(10, 2))
		b := New(p, dist.NewCyclic(10, 2))
		a.AXPY(1, b)
	})
}

func TestMisalignedSameName(t *testing.T) {
	// Two Irregular descriptors with different cuts share a Name; Same
	// must still distinguish them.
	m := machine(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected misalignment panic")
		}
	}()
	m.Run(func(p *comm.Proc) {
		a := New(p, dist.NewIrregular([]int{0, 3, 10}))
		b := New(p, dist.NewIrregular([]int{0, 7, 10}))
		a.Dot(b)
	})
}

func TestDescriptorNPMismatch(t *testing.T) {
	m := machine(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected NP mismatch panic")
		}
	}()
	m.Run(func(p *comm.Proc) {
		New(p, dist.NewBlock(10, 3))
	})
}

// DOT must cost a local O(n/NP) compute plus a log NP startup-dominated
// merge — the §4 cost claim.
func TestDotCostModel(t *testing.T) {
	cost := topology.CostParams{TStartup: 1e-4, THop: 0, TByte: 0, TFlop: 1e-9}
	n := 1 << 12
	for _, np := range []int{2, 4, 8} {
		m := comm.NewMachine(np, topology.FullyConnected{}, cost)
		d := dist.NewBlock(n, np)
		st := m.Run(func(p *comm.Proc) {
			v := New(p, d)
			v.Fill(1)
			v.Dot(v)
		})
		local := 2 * float64(n/np) * cost.TFlop
		// reduce: log np sends; bcast: log np sends; plus 1 combine flop
		// per reduce step.
		steps := float64(topology.Log2Ceil(np))
		comb := steps * cost.TFlop
		want := local + 2*steps*cost.TStartup + comb
		if math.Abs(st.ModelTime-want) > want*0.5 {
			t.Errorf("np=%d Dot model time %g, want about %g", np, st.ModelTime, want)
		}
		// The merge phase must be startup-dominated (scalar payload).
		if st.CommTime() < steps*cost.TStartup {
			t.Errorf("np=%d comm time %g below %g", np, st.CommTime(), steps*cost.TStartup)
		}
	}
}

// Property: Gather∘SetGlobal is the identity for random distributions.
func TestGatherQuick(t *testing.T) {
	f := func(seed int64, nRaw, npRaw, kindRaw uint8) bool {
		np := int(npRaw%4) + 1
		n := int(nRaw%40) + 1
		var d dist.Dist
		switch kindRaw % 3 {
		case 0:
			d = dist.NewBlock(n, np)
		case 1:
			d = dist.NewCyclic(n, np)
		default:
			d = dist.NewCyclicK(n, np, 2)
		}
		rng := rand.New(rand.NewSource(seed))
		ref := make([]float64, n)
		for i := range ref {
			ref[i] = rng.NormFloat64()
		}
		ok := true
		machine(np).Run(func(p *comm.Proc) {
			v := New(p, d)
			v.SetGlobal(func(g int) float64 { return ref[g] })
			got := v.Gather()
			for i := range ref {
				if got[i] != ref[i] {
					ok = false
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
