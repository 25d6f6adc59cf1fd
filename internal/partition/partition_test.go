package partition

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hpfcg/internal/sparse"
)

func TestAtomsFromPtr(t *testing.T) {
	// The Figure 1 CSC matrix: column pointer array defines 6 atoms.
	m := sparse.Figure1Matrix().ToCSC()
	a := AtomsFromPtr(m.ColPtr)
	if a.NAtoms() != 6 {
		t.Fatalf("NAtoms = %d", a.NAtoms())
	}
	if a.NElems() != 15 {
		t.Fatalf("NElems = %d", a.NElems())
	}
	// Column 0 has 4 entries (a11,a21,a31,a51).
	if a.Weight(0) != 4 {
		t.Errorf("Weight(0) = %d, want 4", a.Weight(0))
	}
	w := a.Weights()
	total := 0
	for _, x := range w {
		total += x
	}
	if total != 15 {
		t.Errorf("weights sum to %d", total)
	}
}

func TestAtomsValidation(t *testing.T) {
	for _, ptr := range [][]int{{}, {0, 3, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ptr %v should panic", ptr)
				}
			}()
			AtomsFromPtr(ptr)
		}()
	}
}

func TestElemDistNeverSplitsAtoms(t *testing.T) {
	m := sparse.PowerLaw(200, 1.1, 50, 9)
	a := AtomsFromPtr(m.RowPtr)
	np := 4
	cuts := UniformAtomBlock(a.NAtoms(), np)
	ed := a.ElemDist(cuts)
	if ed.N() != a.NElems() {
		t.Fatalf("element dist length %d != %d", ed.N(), a.NElems())
	}
	// Every atom's elements must land on a single processor.
	for i := 0; i < a.NAtoms(); i++ {
		lo, hi := a.Bounds[i], a.Bounds[i+1]
		if hi == lo {
			continue
		}
		owner := ed.Owner(lo)
		for e := lo; e < hi; e++ {
			if ed.Owner(e) != owner {
				t.Fatalf("atom %d split across processors", i)
			}
		}
	}
}

func TestElemDistValidation(t *testing.T) {
	a := AtomsFromPtr([]int{0, 2, 5})
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range atom cut should panic")
		}
	}()
	a.ElemDist([]int{0, 3})
}

func TestUniformAtomBlock(t *testing.T) {
	cuts := UniformAtomBlock(10, 4)
	want := []int{0, 2, 5, 7, 10}
	for i := range want {
		if cuts[i] != want[i] {
			t.Fatalf("cuts = %v, want %v", cuts, want)
		}
	}
}

func TestSplitCount(t *testing.T) {
	// 3 atoms of 4 elements each over 2 procs: element BLOCK cuts at 6,
	// splitting the middle atom only.
	a := AtomsFromPtr([]int{0, 4, 8, 12})
	if got := SplitCount(a, 2); got != 1 {
		t.Errorf("SplitCount = %d, want 1", got)
	}
	if got := SplitCount(a, 1); got != 0 {
		t.Errorf("np=1 SplitCount = %d, want 0", got)
	}
	// More processors than atoms: every multi-element atom gets split.
	if got := SplitCount(a, 12); got != 3 {
		t.Errorf("np=12 SplitCount = %d, want 3", got)
	}
	// Singleton atoms can never split.
	ones := AtomsFromPtr([]int{0, 1, 2, 3, 4})
	if got := SplitCount(ones, 3); got != 0 {
		t.Errorf("singleton SplitCount = %d", got)
	}
}

func TestBalancedContiguousOptimal(t *testing.T) {
	cases := []struct {
		weights    []int
		np         int
		bottleneck int
	}{
		{[]int{1, 1, 1, 1}, 2, 2},
		{[]int{5, 1, 1, 1, 1, 1}, 2, 5},
		{[]int{1, 2, 3, 4, 5}, 3, 6}, // {1,2,3},{4},{5} -> 6
		{[]int{9, 1, 1, 1}, 4, 9},    // big head
		{[]int{1, 1, 1, 9}, 4, 9},    // big tail
		{[]int{2, 2, 2, 2, 2}, 5, 2}, // exact
		{[]int{10}, 3, 10},           // fewer atoms than procs
		{[]int{0, 0, 0}, 2, 0},       // all-zero
	}
	for _, c := range cases {
		cuts := BalancedContiguous(c.weights, c.np)
		if len(cuts) != c.np+1 {
			t.Fatalf("weights %v np %d: %d cuts", c.weights, c.np, len(cuts))
		}
		if cuts[0] != 0 || cuts[c.np] != len(c.weights) {
			t.Fatalf("weights %v: cuts %v don't cover", c.weights, cuts)
		}
		if got := Bottleneck(c.weights, cuts); got != c.bottleneck {
			t.Errorf("weights %v np %d: bottleneck %d, want %d (cuts %v)",
				c.weights, c.np, got, c.bottleneck, cuts)
		}
	}
}

// Property: the binary-search bottleneck is never worse than greedy,
// never better than total/np (rounded up), and cuts are valid.
func TestBalancedQuick(t *testing.T) {
	f := func(seed int64, nRaw, npRaw uint8) bool {
		n := int(nRaw%40) + 1
		np := int(npRaw%8) + 1
		rng := rand.New(rand.NewSource(seed))
		weights := make([]int, n)
		total := 0
		for i := range weights {
			weights[i] = rng.Intn(20)
			total += weights[i]
		}
		opt := BalancedContiguous(weights, np)
		gre := GreedyContiguous(weights, np)
		for _, cuts := range [][]int{opt, gre} {
			if cuts[0] != 0 || cuts[np] != n {
				return false
			}
			for i := 1; i <= np; i++ {
				if cuts[i] < cuts[i-1] {
					return false
				}
			}
		}
		bOpt := Bottleneck(weights, opt)
		bGre := Bottleneck(weights, gre)
		if bOpt > bGre {
			return false
		}
		lower := (total + np - 1) / np
		maxW := 0
		for _, w := range weights {
			if w > maxW {
				maxW = w
			}
		}
		if lower < maxW {
			lower = maxW
		}
		return bOpt >= lower
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBalancedBeatsUniformOnSkew(t *testing.T) {
	// The §5.2.2 scenario: power-law rows make uniform atom blocks
	// unbalanced; the partitioner must fix it.
	m := sparse.PowerLaw(600, 1.0, 150, 17)
	a := AtomsFromPtr(m.RowPtr)
	np := 8
	uni := UniformAtomBlock(a.NAtoms(), np)
	bal := BalancedContiguous(a.Weights(), np)
	iu := Imbalance(a.Weights(), uni)
	ib := Imbalance(a.Weights(), bal)
	if ib > iu {
		t.Errorf("balanced imbalance %.3f worse than uniform %.3f", ib, iu)
	}
	if ib > 1.5 {
		t.Errorf("balanced imbalance %.3f still large", ib)
	}
}

func TestImbalanceAndBottleneck(t *testing.T) {
	w := []int{4, 4, 4, 4}
	cuts := []int{0, 2, 4}
	if got := Imbalance(w, cuts); got != 1 {
		t.Errorf("Imbalance = %g, want 1", got)
	}
	if got := Bottleneck(w, cuts); got != 8 {
		t.Errorf("Bottleneck = %d, want 8", got)
	}
	skew := []int{10, 1, 1}
	cuts = []int{0, 1, 3}
	// groups: 10 and 2; mean 6 -> imbalance 10/6.
	if got := Imbalance(skew, cuts); got < 1.66 || got > 1.67 {
		t.Errorf("Imbalance = %g", got)
	}
	if got := Imbalance([]int{0, 0}, []int{0, 1, 2}); got != 1 {
		t.Errorf("all-zero Imbalance = %g, want 1", got)
	}
}

func TestPartitionValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { BalancedContiguous([]int{1}, 0) },
		func() { BalancedContiguous([]int{-1}, 2) },
		func() { GreedyContiguous([]int{1}, 0) },
		func() { UniformAtomBlock(5, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

// TestMoreProcessorsThanRows: np > nAtoms leaves processors empty but
// every partitioner must still produce valid monotone cuts covering
// all atoms, and the distributions must round-trip.
func TestMoreProcessorsThanRows(t *testing.T) {
	m := sparse.Banded(3, 1) // 3 rows, np up to 8
	a := AtomsFromPtr(m.RowPtr)
	for _, np := range []int{4, 8} {
		for name, cuts := range map[string][]int{
			"uniform":  UniformAtomBlock(a.NAtoms(), np),
			"balanced": BalancedContiguous(a.Weights(), np),
			"greedy":   GreedyContiguous(a.Weights(), np),
		} {
			if len(cuts) != np+1 || cuts[0] != 0 || cuts[np] != a.NAtoms() {
				t.Fatalf("np=%d %s: bad cuts %v", np, name, cuts)
			}
			for r := 0; r < np; r++ {
				if cuts[r] > cuts[r+1] {
					t.Fatalf("np=%d %s: cuts not monotone %v", np, name, cuts)
				}
			}
			ed := a.ElemDist(cuts)
			total := 0
			for r := 0; r < np; r++ {
				total += ed.Count(r)
			}
			if total != a.NElems() {
				t.Fatalf("np=%d %s: element counts sum %d != %d", np, name, total, a.NElems())
			}
		}
	}
}

// TestSingleRowMatrix: one atom, any np — all elements on one
// processor, the rest empty, imbalance = np.
func TestSingleRowMatrix(t *testing.T) {
	a := AtomsFromPtr([]int{0, 5}) // one atom of weight 5
	for _, np := range []int{1, 2, 4} {
		cuts := BalancedContiguous(a.Weights(), np)
		ed := a.ElemDist(cuts)
		owners := map[int]bool{}
		for g := 0; g < 5; g++ {
			owners[ed.Owner(g)] = true
		}
		if len(owners) != 1 {
			t.Fatalf("np=%d: single atom split across %v", np, owners)
		}
		if got, want := Imbalance(a.Weights(), cuts), float64(np); got != want {
			t.Errorf("np=%d: imbalance %g, want %g", np, got, want)
		}
		if Bottleneck(a.Weights(), cuts) != 5 {
			t.Errorf("np=%d: bottleneck != 5", np)
		}
	}
}
