package seq

import (
	"math"
	"testing"

	"hpfcg/internal/sparse"
)

func TestTridiagEigKnown(t *testing.T) {
	// Diagonal tridiagonal: eigenvalues are the diagonal itself.
	all := TridiagEigAll([]float64{3, 1, 7}, []float64{0, 0})
	if len(all) != 3 || math.Abs(all[0]-1) > 1e-9 || math.Abs(all[1]-3) > 1e-9 || math.Abs(all[2]-7) > 1e-9 {
		t.Errorf("diagonal all = %v, want [1 3 7]", all)
	}
	// 2x2 [[2,1],[1,2]]: eigenvalues 1 and 3.
	all = TridiagEigAll([]float64{2, 2}, []float64{1})
	if len(all) != 2 || math.Abs(all[0]-1) > 1e-9 || math.Abs(all[1]-3) > 1e-9 {
		t.Errorf("all = %v", all)
	}
	// Laplace1D(n) tridiagonal: eigenvalues 2 - 2cos(k*pi/(n+1)).
	n := 10
	diag := make([]float64, n)
	off := make([]float64, n-1)
	for i := range diag {
		diag[i] = 2
	}
	for i := range off {
		off[i] = -1
	}
	all = TridiagEigAll(diag, off)
	min, max := all[0], all[n-1]
	wantMin := 2 - 2*math.Cos(math.Pi/float64(n+1))
	wantMax := 2 - 2*math.Cos(float64(n)*math.Pi/float64(n+1))
	if math.Abs(min-wantMin) > 1e-8 || math.Abs(max-wantMax) > 1e-8 {
		t.Errorf("Laplacian bounds (%g, %g), want (%g, %g)", min, max, wantMin, wantMax)
	}
	if all := TridiagEigAll(nil, nil); len(all) != 0 {
		t.Errorf("empty all = %v", all)
	}
}

// CG's Ritz values must estimate the true extremal eigenvalues.
func TestCGSpectrumEstimate(t *testing.T) {
	// Known spectrum: diagonal matrix.
	eigs := []float64{1, 2.5, 4, 9, 16, 16, 25, 30, 30, 42}
	A := sparse.DiagWithEigenvalues(eigs)
	b := sparse.RandomVector(len(eigs), 3)
	x := make([]float64, len(eigs))
	st, err := CG(A, b, x, Options{Tol: 1e-12, EstimateSpectrum: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.Spectrum == nil {
		t.Fatal("no spectrum estimate")
	}
	// With full convergence the Ritz values hit the distinct eigenvalues.
	if math.Abs(st.Spectrum.EigMin-1) > 1e-6 {
		t.Errorf("EigMin = %g, want 1", st.Spectrum.EigMin)
	}
	if math.Abs(st.Spectrum.EigMax-42) > 1e-6 {
		t.Errorf("EigMax = %g, want 42", st.Spectrum.EigMax)
	}
	if math.Abs(st.Spectrum.Cond-42) > 1e-4 {
		t.Errorf("Cond = %g, want 42", st.Spectrum.Cond)
	}
	if len(st.Spectrum.Ritz) != st.Iterations {
		t.Errorf("%d Ritz values for %d iterations", len(st.Spectrum.Ritz), st.Iterations)
	}
}

func TestCGSpectrumOnLaplacian(t *testing.T) {
	n := 60
	A := sparse.Laplace1D(n)
	b := sparse.RandomVector(n, 9)
	x := make([]float64, n)
	st, err := CG(A, b, x, Options{Tol: 1e-12, EstimateSpectrum: true})
	if err != nil {
		t.Fatal(err)
	}
	wantMin := 2 - 2*math.Cos(math.Pi/float64(n+1))
	wantMax := 2 - 2*math.Cos(float64(n)*math.Pi/float64(n+1))
	sp := st.Spectrum
	if sp == nil {
		t.Fatal("no spectrum")
	}
	// Ritz estimates converge from inside the spectrum: min >= true min,
	// max <= true max, both within a few percent after full convergence.
	if sp.EigMin < wantMin-1e-9 || sp.EigMin > wantMin*1.25 {
		t.Errorf("EigMin = %g, true %g", sp.EigMin, wantMin)
	}
	if sp.EigMax > wantMax+1e-9 || sp.EigMax < wantMax*0.95 {
		t.Errorf("EigMax = %g, true %g", sp.EigMax, wantMax)
	}
	trueCond := wantMax / wantMin
	if sp.Cond > trueCond*1.05 || sp.Cond < trueCond*0.7 {
		t.Errorf("Cond = %g, true %g", sp.Cond, trueCond)
	}
}

func TestSpectrumDisabledByDefault(t *testing.T) {
	A := sparse.Laplace1D(10)
	b := sparse.Ones(10)
	x := make([]float64, 10)
	st, err := CG(A, b, x, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Spectrum != nil {
		t.Error("spectrum estimated without the option")
	}
}

func TestEstimateSpectrumEmpty(t *testing.T) {
	if estimateSpectrum(nil, nil) != nil {
		t.Error("empty coefficient list should give nil")
	}
}
