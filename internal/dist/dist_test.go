package dist

import (
	"testing"
	"testing/quick"
)

// roundTrip checks the fundamental descriptor invariants for every
// global index of d: Local/Global are inverses, Owner agrees with
// Local, counts sum to N, and local offsets are dense in [0, Count).
func roundTrip(t *testing.T, d Dist) {
	t.Helper()
	n, np := d.N(), d.NP()
	total := 0
	for r := 0; r < np; r++ {
		c := d.Count(r)
		if c < 0 {
			t.Fatalf("%s n=%d np=%d: Count(%d) = %d < 0", d.Name(), n, np, r, c)
		}
		total += c
	}
	if total != n {
		t.Fatalf("%s n=%d np=%d: counts sum to %d", d.Name(), n, np, total)
	}
	seen := make(map[[2]int]bool)
	for g := 0; g < n; g++ {
		owner := d.Owner(g)
		if owner < 0 || owner >= np {
			t.Fatalf("%s: Owner(%d) = %d out of range", d.Name(), g, owner)
		}
		r, off := d.Local(g)
		if r != owner {
			t.Fatalf("%s: Local(%d) proc %d != Owner %d", d.Name(), g, r, owner)
		}
		if off < 0 || off >= d.Count(r) {
			t.Fatalf("%s: Local(%d) offset %d out of [0,%d)", d.Name(), g, off, d.Count(r))
		}
		if back := d.Global(r, off); back != g {
			t.Fatalf("%s: Global(Local(%d)) = %d", d.Name(), g, back)
		}
		key := [2]int{r, off}
		if seen[key] {
			t.Fatalf("%s: duplicate (proc,off) = %v", d.Name(), key)
		}
		seen[key] = true
	}
}

func TestBlockRoundTrip(t *testing.T) {
	for _, np := range []int{1, 2, 3, 4, 7, 8} {
		for _, n := range []int{0, 1, 5, 16, 17, 100} {
			roundTrip(t, NewBlock(n, np))
		}
	}
}

func TestBlockShape(t *testing.T) {
	b := NewBlock(10, 4)
	// 10/4: blocks of sizes 2,3,2,3 by the floor formula (r*n/np).
	wantLo := []int{0, 2, 5, 7}
	for r, lo := range wantLo {
		if b.Lo(r) != lo {
			t.Errorf("Lo(%d) = %d, want %d", r, b.Lo(r), lo)
		}
	}
	sizes := Counts(b)
	wantSizes := []int{2, 3, 2, 3}
	for r := range wantSizes {
		if sizes[r] != wantSizes[r] {
			t.Errorf("Count(%d) = %d, want %d", r, sizes[r], wantSizes[r])
		}
	}
	// Max and min block sizes differ by at most one (HPF BLOCK evenness).
	for _, np := range []int{2, 3, 5, 8} {
		for _, n := range []int{np, 2*np - 1, 1000} {
			bb := NewBlock(n, np)
			mn, mx := n, 0
			for r := 0; r < np; r++ {
				c := bb.Count(r)
				if c < mn {
					mn = c
				}
				if c > mx {
					mx = c
				}
			}
			if mx-mn > 1 {
				t.Errorf("BLOCK(%d over %d) block sizes range [%d,%d]", n, np, mn, mx)
			}
		}
	}
}

func TestBlockSize(t *testing.T) {
	// The paper's BLOCK((n+NP-1)/NP) for the n+1 pointer array: n=10,
	// NP=4 -> k=3; the 11 elements land as 3,3,3,2.
	n, np := 11, 4
	k := (10 + np - 1) / np
	b := NewBlockSize(n, np, k)
	roundTrip(t, b)
	want := []int{3, 3, 3, 2}
	for r, w := range want {
		if b.Count(r) != w {
			t.Errorf("Count(%d) = %d, want %d", r, b.Count(r), w)
		}
	}
	// The last element must be on the last processor holding data —
	// exactly what the paper's explicit block size arranges.
	if owner := b.Owner(n - 1); owner != np-1 {
		t.Errorf("Owner(last) = %d, want %d", owner, np-1)
	}
	if b.Name() != "BLOCK(3)" {
		t.Errorf("Name = %q", b.Name())
	}
	// Trailing processors may be empty.
	b2 := NewBlockSize(5, 4, 5)
	roundTrip(t, b2)
	if b2.Count(0) != 5 || b2.Count(1) != 0 || b2.Count(3) != 0 {
		t.Errorf("BLOCK(5) of 5 over 4: counts %v", Counts(b2))
	}
}

func TestBlockSizeValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { NewBlockSize(10, 4, 0) },
		func() { NewBlockSize(10, 2, 4) }, // 2*4 < 10
		func() { NewBlock(-1, 4) },
		func() { NewBlock(4, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected constructor panic")
				}
			}()
			fn()
		}()
	}
}

func TestCyclicRoundTrip(t *testing.T) {
	for _, np := range []int{1, 2, 3, 4, 5} {
		for _, n := range []int{0, 1, 7, 16, 23} {
			for _, k := range []int{1, 2, 3} {
				roundTrip(t, NewCyclicK(n, np, k))
			}
		}
	}
}

func TestCyclicShape(t *testing.T) {
	c := NewCyclic(10, 3)
	// indices 0..9 cyclic over 3: owner = g % 3.
	for g := 0; g < 10; g++ {
		if c.Owner(g) != g%3 {
			t.Errorf("Owner(%d) = %d, want %d", g, c.Owner(g), g%3)
		}
	}
	if c.Count(0) != 4 || c.Count(1) != 3 || c.Count(2) != 3 {
		t.Errorf("CYCLIC counts = %v", Counts(c))
	}
	if c.Name() != "CYCLIC" {
		t.Errorf("Name = %q", c.Name())
	}
	ck := NewCyclicK(10, 2, 3)
	// blocks: [0..2]->0, [3..5]->1, [6..8]->0, [9]->1
	if ck.Owner(7) != 0 || ck.Owner(9) != 1 {
		t.Errorf("CYCLIC(3) owners wrong: %d %d", ck.Owner(7), ck.Owner(9))
	}
	if ck.Name() != "CYCLIC(3)" {
		t.Errorf("Name=%q", ck.Name())
	}
}

func TestIrregular(t *testing.T) {
	ir := NewIrregular([]int{0, 4, 4, 9, 12})
	roundTrip(t, ir)
	if ir.N() != 12 || ir.NP() != 4 {
		t.Fatalf("N=%d NP=%d", ir.N(), ir.NP())
	}
	if ir.Count(1) != 0 {
		t.Errorf("empty processor Count = %d", ir.Count(1))
	}
	if ir.Owner(4) != 2 { // proc 1 is empty so index 4 belongs to proc 2
		t.Errorf("Owner(4) = %d, want 2", ir.Owner(4))
	}
	if ir.Owner(11) != 3 || ir.Owner(0) != 0 {
		t.Errorf("boundary owners wrong")
	}
}

func TestIrregularValidation(t *testing.T) {
	for _, cuts := range [][]int{
		{0},
		{1, 5},
		{0, 3, 2},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("cuts %v should panic", cuts)
				}
			}()
			NewIrregular(cuts)
		}()
	}
}

func TestOutOfRangePanics(t *testing.T) {
	dists := []Dist{NewBlock(10, 3), NewBlockSize(10, 3, 4), NewCyclic(10, 3), NewIrregular([]int{0, 5, 10})}
	for _, d := range dists {
		for _, g := range []int{-1, 10} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: Owner(%d) should panic", d.Name(), g)
					}
				}()
				d.Owner(g)
			}()
		}
	}
}

// Property: round-trip invariants hold for random shapes.
func TestDistQuick(t *testing.T) {
	f := func(nRaw, npRaw, kRaw uint8) bool {
		n := int(nRaw % 60)
		np := int(npRaw%8) + 1
		k := int(kRaw%4) + 1
		for _, d := range []Dist{
			NewBlock(n, np),
			NewCyclicK(n, np, k),
		} {
			total := 0
			for r := 0; r < np; r++ {
				total += d.Count(r)
			}
			if total != n {
				return false
			}
			for g := 0; g < n; g++ {
				r, off := d.Local(g)
				if d.Global(r, off) != g || d.Owner(g) != r {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestContiguousInterface(t *testing.T) {
	var _ Contiguous = NewBlock(10, 2)
	var _ Contiguous = NewBlockSize(10, 2, 5)
	var _ Contiguous = NewIrregular([]int{0, 3, 10})
	// Cyclic must NOT be contiguous.
	var d Dist = NewCyclic(10, 2)
	if _, ok := d.(Contiguous); ok {
		t.Error("Cyclic should not satisfy Contiguous")
	}
}

func TestSameDirect(t *testing.T) {
	shared := NewIrregular([]int{0, 4, 10})
	cases := []struct {
		a, b Dist
		want bool
	}{
		{shared, shared, true}, // one cut array: the fast path
		{NewIrregular([]int{0, 4, 7, 10}), NewIrregular([]int{0, 4, 7, 10}), true},  // distinct but equal cuts
		{NewIrregular([]int{0, 4, 7, 10}), NewIrregular([]int{0, 4, 8, 10}), false}, // unequal cuts
		{NewIrregular([]int{0, 4, 10}), NewIrregular([]int{0, 2, 4, 10}), false},    // unequal np
		{NewBlock(10, 2), NewBlock(10, 2), true},
		{NewBlock(10, 2), NewBlock(11, 2), false},
		{NewBlock(10, 2), NewBlock(10, 5), false},
		{NewBlock(10, 2), NewCyclic(10, 2), false},
		{NewCyclicK(10, 2, 2), NewCyclicK(10, 2, 2), true},
		{NewCyclicK(10, 2, 2), NewCyclicK(10, 2, 3), false},
		{NewIrregular([]int{0, 4, 10}), NewIrregular([]int{0, 4, 10}), true},
		{NewIrregular([]int{0, 4, 10}), NewIrregular([]int{0, 6, 10}), false},
		{NewIrregular([]int{0, 5, 10}), NewBlock(10, 2), false}, // same mapping, different name: Same is conservative
	}
	for i, c := range cases {
		if got := Same(c.a, c.b); got != c.want {
			t.Errorf("case %d: Same(%s, %s) = %v, want %v", i, c.a.Name(), c.b.Name(), got, c.want)
		}
	}
}

// BenchmarkSame is the alignment check every vector operation runs:
// one descriptor against itself (the fast path), against a copy, and
// a Block against an equal Block.
func BenchmarkSame(b *testing.B) {
	cuts := make([]int, 9)
	for r := range cuts {
		cuts[r] = r * 288
	}
	ir := NewIrregular(cuts)
	for _, c := range []struct {
		name string
		a, b Dist
	}{
		{"irregular/shared", ir, ir},
		{"irregular/copy", ir, NewIrregular(cuts)},
		{"block", NewBlock(2304, 8), NewBlock(2304, 8)},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if !Same(c.a, c.b) {
					b.Fatal("not the same")
				}
			}
		})
	}
}
