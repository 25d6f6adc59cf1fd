package order

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hpfcg/internal/seq"
	"hpfcg/internal/sparse"
)

// shuffled returns a randomly relabelled copy of A (destroying any
// banded structure) plus the scramble used.
func shuffled(A *sparse.CSR, seed int64) *sparse.CSR {
	n := A.NRows
	rng := rand.New(rand.NewSource(seed))
	perm := make(Permutation, n)
	for i := range perm {
		perm[i] = i
	}
	rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	return PermuteSym(A, perm)
}

func TestPermutationHelpers(t *testing.T) {
	p := Permutation{2, 0, 1}
	if !p.Valid() {
		t.Fatal("valid permutation rejected")
	}
	inv := p.Inverse()
	for newIdx, oldIdx := range p {
		if inv[oldIdx] != newIdx {
			t.Fatalf("inverse wrong at %d", newIdx)
		}
	}
	for _, bad := range []Permutation{{0, 0, 1}, {0, 3, 1}, {-1, 0, 1}} {
		if bad.Valid() {
			t.Errorf("invalid permutation %v accepted", bad)
		}
	}
}

func TestPermuteSymPreservesValues(t *testing.T) {
	A := sparse.RandomSPD(30, 5, 3)
	perm := RCM(A)
	B := PermuteSym(A, perm)
	if B.NNZ() != A.NNZ() {
		t.Fatalf("nnz changed: %d -> %d", A.NNZ(), B.NNZ())
	}
	if !B.IsSymmetric(1e-12) {
		t.Error("symmetry lost")
	}
	inv := perm.Inverse()
	for i := 0; i < A.NRows; i++ {
		for k := A.RowPtr[i]; k < A.RowPtr[i+1]; k++ {
			j := A.Col[k]
			if got := B.At(inv[i], inv[j]); math.Abs(got-A.Val[k]) > 1e-15 {
				t.Fatalf("entry (%d,%d) lost: %g vs %g", i, j, got, A.Val[k])
			}
		}
	}
}

func TestRCMRecoversBandedStructure(t *testing.T) {
	// A banded matrix scrambled by a random permutation: RCM must bring
	// the bandwidth back near the original.
	orig := sparse.Banded(200, 3)
	origBW := Bandwidth(orig)
	scrambled := shuffled(orig, 7)
	if Bandwidth(scrambled) <= 2*origBW {
		t.Fatalf("scramble did not destroy bandwidth: %d", Bandwidth(scrambled))
	}
	perm := RCM(scrambled)
	if !perm.Valid() {
		t.Fatal("RCM produced an invalid permutation")
	}
	restored := PermuteSym(scrambled, perm)
	if got := Bandwidth(restored); got > 3*origBW {
		t.Errorf("RCM bandwidth %d, original %d, scrambled %d",
			got, origBW, Bandwidth(scrambled))
	}
}

func TestRCMOnLaplace2D(t *testing.T) {
	A := sparse.Laplace2D(12, 12)
	perm := RCM(A)
	B := PermuteSym(A, perm)
	if Bandwidth(B) > Bandwidth(A) {
		t.Errorf("RCM worsened the 2-D Laplacian bandwidth: %d -> %d", Bandwidth(A), Bandwidth(B))
	}
}

func TestRCMDisconnectedComponents(t *testing.T) {
	// Two disjoint chains: RCM must order both (a valid permutation).
	coo := sparse.NewCOO(10, 10)
	for i := 0; i < 4; i++ {
		coo.Add(i, i+1, -1)
		coo.Add(i+1, i, -1)
	}
	for i := 5; i < 9; i++ {
		coo.Add(i, i+1, -1)
		coo.Add(i+1, i, -1)
	}
	for i := 0; i < 10; i++ {
		coo.Add(i, i, 3)
	}
	A := coo.ToCSR()
	perm := RCM(A)
	if !perm.Valid() {
		t.Fatalf("invalid permutation %v", perm)
	}
	B := PermuteSym(A, perm)
	if Bandwidth(B) > 2 {
		t.Errorf("two chains should reorder to bandwidth <= 2, got %d", Bandwidth(B))
	}
}

// Solving the permuted system must give the permuted solution.
func TestPermutedSolveConsistency(t *testing.T) {
	A := sparse.RandomSPD(40, 4, 11)
	b := sparse.RandomVector(40, 5)
	x := make([]float64, 40)
	if _, err := seq.CG(A, b, x, seq.Options{Tol: 1e-11}); err != nil {
		t.Fatal(err)
	}
	perm := RCM(A)
	B := PermuteSym(A, perm)
	pb := make([]float64, 40)
	for newIdx, oldIdx := range perm {
		pb[newIdx] = b[oldIdx]
	}
	px := make([]float64, 40)
	if _, err := seq.CG(B, pb, px, seq.Options{Tol: 1e-11}); err != nil {
		t.Fatal(err)
	}
	for newIdx, oldIdx := range perm {
		if math.Abs(px[newIdx]-x[oldIdx]) > 1e-7 {
			t.Fatalf("permuted solve differs at %d: %g vs %g", oldIdx, px[newIdx], x[oldIdx])
		}
	}
}

func TestPermuteSymValidation(t *testing.T) {
	A := sparse.Laplace1D(5)
	defer func() {
		if recover() == nil {
			t.Fatal("wrong-length permutation should panic")
		}
	}()
	PermuteSym(A, Permutation{0, 1})
}

func TestBandwidthAndProfile(t *testing.T) {
	A := sparse.Laplace1D(6)
	if Bandwidth(A) != 1 {
		t.Errorf("tridiagonal bandwidth %d", Bandwidth(A))
	}
	d := sparse.DiagWithEigenvalues([]float64{1, 2, 3})
	if Bandwidth(d) != 0 {
		t.Errorf("diagonal bandwidth %d", Bandwidth(d))
	}
}

// Property: RCM always yields a valid permutation and never increases
// the profile of an already-banded matrix by more than a constant.
func TestRCMQuick(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%50) + 5
		A := sparse.RandomSPD(n, 4, seed)
		perm := RCM(A)
		if !perm.Valid() {
			return false
		}
		B := PermuteSym(A, perm)
		return B.NNZ() == A.NNZ() && B.IsSymmetric(1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
