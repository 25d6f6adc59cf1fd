package topology

import (
	"math"
	"testing"
	"testing/quick"
)

func TestHypercubeDistance(t *testing.T) {
	h := Hypercube{}
	cases := []struct{ a, b, np, want int }{
		{0, 0, 8, 0},
		{0, 1, 8, 1},
		{0, 7, 8, 3},
		{5, 6, 8, 2}, // 101 ^ 110 = 011
		{0, 15, 16, 4},
	}
	for _, c := range cases {
		if got := h.Distance(c.a, c.b, c.np); got != c.want {
			t.Errorf("Hypercube.Distance(%d,%d,%d) = %d, want %d", c.a, c.b, c.np, got, c.want)
		}
	}
	if d := h.Diameter(8); d != 3 {
		t.Errorf("Hypercube.Diameter(8) = %d, want 3", d)
	}
	if d := h.Diameter(9); d != 4 {
		t.Errorf("Hypercube.Diameter(9) = %d, want 4", d)
	}
}

func TestRingDistance(t *testing.T) {
	r := Ring{}
	cases := []struct{ a, b, np, want int }{
		{0, 0, 8, 0},
		{0, 1, 8, 1},
		{0, 7, 8, 1}, // wraps
		{0, 4, 8, 4},
		{2, 6, 8, 4},
		{1, 5, 6, 2},
	}
	for _, c := range cases {
		if got := r.Distance(c.a, c.b, c.np); got != c.want {
			t.Errorf("Ring.Distance(%d,%d,%d) = %d, want %d", c.a, c.b, c.np, got, c.want)
		}
	}
	if d := r.Diameter(8); d != 4 {
		t.Errorf("Ring.Diameter(8) = %d, want 4", d)
	}
}

func TestMesh2DDistance(t *testing.T) {
	m := Mesh2D{}
	// np=6 -> 2x3 grid, row-major: rank 0=(0,0), rank 5=(1,2).
	if got := m.Distance(0, 5, 6); got != 3 {
		t.Errorf("Mesh2D.Distance(0,5,6) = %d, want 3", got)
	}
	if got := m.Distance(0, 2, 6); got != 2 {
		t.Errorf("Mesh2D.Distance(0,2,6) = %d, want 2", got)
	}
	if d := m.Diameter(6); d != 3 {
		t.Errorf("Mesh2D.Diameter(6) = %d, want 3", d)
	}
}

func TestFullyConnected(t *testing.T) {
	f := FullyConnected{}
	if got := f.Distance(3, 3, 8); got != 0 {
		t.Errorf("self distance = %d, want 0", got)
	}
	if got := f.Distance(0, 7, 8); got != 1 {
		t.Errorf("distance = %d, want 1", got)
	}
	if d := f.Diameter(1); d != 0 {
		t.Errorf("Diameter(1) = %d, want 0", d)
	}
}

func TestByName(t *testing.T) {
	for name, want := range map[string]Topology{"hypercube": Hypercube{}, "ring": Ring{}, "mesh2d": Mesh2D{}, "full": FullyConnected{}} {
		topo, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if topo != want {
			t.Errorf("ByName(%q) = %T, want %T", name, topo, want)
		}
	}
	if _, err := ByName("torus9d"); err == nil {
		t.Error("ByName(torus9d) should fail")
	}
}

func TestDims(t *testing.T) {
	cases := []struct{ np, rows, cols int }{
		{1, 1, 1}, {2, 1, 2}, {4, 2, 2}, {6, 2, 3}, {12, 3, 4}, {7, 1, 7}, {16, 4, 4},
	}
	for _, c := range cases {
		r, co := Dims(c.np)
		if r != c.rows || co != c.cols {
			t.Errorf("Dims(%d) = (%d,%d), want (%d,%d)", c.np, r, co, c.rows, c.cols)
		}
	}
}

func TestLog2Ceil(t *testing.T) {
	cases := []struct{ n, want int }{{1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4}, {1024, 10}}
	for _, c := range cases {
		if got := Log2Ceil(c.n); got != c.want {
			t.Errorf("Log2Ceil(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

// Property: all distances are symmetric, non-negative, zero iff equal,
// and bounded by the diameter.
func TestDistanceProperties(t *testing.T) {
	topos := []Topology{Hypercube{}, Ring{}, Mesh2D{}, FullyConnected{}}
	f := func(a, b uint8, npRaw uint8) bool {
		np := int(npRaw%16) + 1
		ra, rb := int(a)%np, int(b)%np
		for _, topo := range topos {
			d := topo.Distance(ra, rb, np)
			if d != topo.Distance(rb, ra, np) {
				return false
			}
			if d < 0 {
				return false
			}
			if (d == 0) != (ra == rb) {
				return false
			}
			if d > topo.Diameter(np) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCostFormulas(t *testing.T) {
	c := CostParams{TStartup: 100e-6, THop: 1e-6, TByte: 1e-8, TFlop: 1e-9}
	// Point to point: t_s + h t_h + b t_w.
	got := c.PtToPtTime(3, 1000)
	want := 100e-6 + 3e-6 + 1000e-8
	if math.Abs(got-want) > 1e-15 {
		t.Errorf("PtToPtTime = %g, want %g", got, want)
	}
	// Hypercube allgather of 8 procs, 8-byte blocks:
	// steps k=0..2 with blocks 8,16,32 bytes.
	got = HypercubeAllgatherTime(c, 8, 8)
	want = 0
	h := Hypercube{}
	_ = h
	for _, blk := range []int{8, 16, 32} {
		want += c.PtToPtTime(1, blk)
	}
	if math.Abs(got-want) > 1e-15 {
		t.Errorf("HypercubeAllgatherTime = %g, want %g", got, want)
	}
	// Ring allgather: (np-1) fixed-size steps.
	got = RingAllgatherTime(c, 5, 64)
	want = 4 * c.PtToPtTime(1, 64)
	if math.Abs(got-want) > 1e-15 {
		t.Errorf("RingAllgatherTime = %g, want %g", got, want)
	}
	if RingAllgatherTime(c, 1, 64) != 0 {
		t.Error("RingAllgatherTime(np=1) should be 0")
	}
	// Broadcast grows with log np.
	b4 := TreeBcastTime(Hypercube{}, c, 4, 100)
	b8 := TreeBcastTime(Hypercube{}, c, 8, 100)
	if b8 <= b4 {
		t.Errorf("TreeBcastTime should grow with np: b4=%g b8=%g", b4, b8)
	}
	// Allreduce = reduce + bcast.
	ar := AllreduceTime(Hypercube{}, c, 8, 4)
	if math.Abs(ar-(ReduceTime(Hypercube{}, c, 8, 4)+TreeBcastTime(Hypercube{}, c, 8, 32))) > 1e-15 {
		t.Error("AllreduceTime != ReduceTime + TreeBcastTime")
	}
}

func TestDefaultCostParams(t *testing.T) {
	c := DefaultCostParams()
	if c.TStartup <= 0 || c.TByte <= 0 || c.TFlop <= 0 || c.THop <= 0 {
		t.Errorf("DefaultCostParams has non-positive entries: %+v", c)
	}
	// Startup must dominate per-byte cost for small messages (the regime
	// the paper's analysis assumes).
	if c.TStartup < 1000*c.TByte {
		t.Errorf("expected startup-dominated small messages: %+v", c)
	}
}
