package seq

import (
	"math"
	"sort"
)

// The CG-Lanczos connection: the alpha/beta coefficients of k CG
// iterations define a k x k symmetric tridiagonal matrix T_k whose
// eigenvalues (Ritz values) approximate the extremal eigenvalues of A.
// The paper's §2 convergence discussion is all about the spectrum
// ("converge to the solution ... in at most n_e iterations, where n_e
// is the number of distinct eigenvalues"); this file lets CG report
// the spectrum estimate it implicitly computes, at no extra matrix
// work.
//
// T_k has diagonal d_1 = 1/alpha_1,
// d_k = 1/alpha_k + beta_{k-1}/alpha_{k-1}, and off-diagonal
// e_k = sqrt(beta_k)/alpha_k.

// lanczosTridiag converts CG's alpha/beta sequences to the Lanczos
// tridiagonal (diag, offdiag) with len(off) = len(diag)-1.
func lanczosTridiag(alphas, betas []float64) (diag, off []float64) {
	k := len(alphas)
	if k == 0 {
		return nil, nil
	}
	diag = make([]float64, k)
	off = make([]float64, k-1)
	diag[0] = 1 / alphas[0]
	for i := 1; i < k; i++ {
		diag[i] = 1/alphas[i] + betas[i-1]/alphas[i-1]
	}
	for i := 0; i+1 < k; i++ {
		off[i] = math.Sqrt(math.Max(betas[i], 0)) / alphas[i]
	}
	return diag, off
}

// sturmCount returns the number of eigenvalues of the symmetric
// tridiagonal (diag, off) strictly less than x (Sturm sequence /
// LDL^T sign count).
func sturmCount(diag, off []float64, x float64) int {
	count := 0
	d := 1.0
	for i := range diag {
		e2 := 0.0
		if i > 0 {
			e2 = off[i-1] * off[i-1]
		}
		d = diag[i] - x - e2/d
		if d == 0 {
			d = 1e-300
		}
		if d < 0 {
			count++
		}
	}
	return count
}

// TridiagEigAll returns all eigenvalues (ascending) by per-index Sturm
// bisection — fine for the small T_k CG produces.
func TridiagEigAll(diag, off []float64) []float64 {
	n := len(diag)
	out := make([]float64, n)
	for i := 1; i <= n; i++ {
		d2 := append([]float64(nil), diag...)
		o2 := append([]float64(nil), off...)
		lo, hi := math.Inf(1), math.Inf(-1)
		for j := 0; j < n; j++ {
			r := 0.0
			if j > 0 {
				r += math.Abs(o2[j-1])
			}
			if j < n-1 {
				r += math.Abs(o2[j])
			}
			if d2[j]-r < lo {
				lo = d2[j] - r
			}
			if d2[j]+r > hi {
				hi = d2[j] + r
			}
		}
		a, b := lo, hi
		for it := 0; it < 200 && b-a > 1e-13*math.Max(1, math.Abs(b)); it++ {
			mid := (a + b) / 2
			if sturmCount(d2, o2, mid) < i {
				a = mid
			} else {
				b = mid
			}
		}
		out[i-1] = (a + b) / 2
	}
	sort.Float64s(out)
	return out
}

// SpectrumEstimate summarises the Ritz values extracted from a CG run.
type SpectrumEstimate struct {
	EigMin, EigMax float64
	// Cond is EigMax/EigMin (the estimate of A's spectral condition
	// number that governs the §2 convergence rate).
	Cond float64
	// Ritz holds all Ritz values, ascending.
	Ritz []float64
}

// estimateSpectrum builds the estimate from recorded CG coefficients.
func estimateSpectrum(alphas, betas []float64) *SpectrumEstimate {
	if len(alphas) == 0 {
		return nil
	}
	diag, off := lanczosTridiag(alphas, betas)
	ritz := TridiagEigAll(diag, off)
	est := &SpectrumEstimate{
		EigMin: ritz[0],
		EigMax: ritz[len(ritz)-1],
		Ritz:   ritz,
	}
	if est.EigMin > 0 {
		est.Cond = est.EigMax / est.EigMin
	} else {
		est.Cond = math.Inf(1)
	}
	return est
}
