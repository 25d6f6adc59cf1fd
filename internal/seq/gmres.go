package seq

import (
	"fmt"
	"math"

	"hpfcg/internal/sparse"
)

// GMRES solves A*x = b for general A by restarted GMRES(m) — the
// paper's example of a method with "longer recurrences (which require
// greater storage)": each cycle stores m+1 Krylov basis vectors, versus
// CG's fixed four. restart m must be >= 1; typical values 10-50.
func GMRES(A *sparse.CSR, b, x []float64, restart int, opt Options) (Stats, error) {
	checkSystem(A, b, x)
	if restart < 1 {
		panic(fmt.Sprintf("seq: GMRES restart %d < 1", restart))
	}
	n := A.NRows
	opt = opt.withDefaults(n)
	m := restart
	if m > n {
		m = n
	}
	var st Stats
	c := counters{&st}

	r := make([]float64, n)
	rn, bn := residual0(c, A, b, x, r)
	if bn == 0 {
		bn = 1
	}
	if rn/bn <= opt.Tol {
		st.Converged = true
		st.Residual = rn / bn
		return st, nil
	}

	// Krylov basis (m+1 vectors: the storage cost §2.1 highlights).
	V := make([][]float64, m+1)
	for i := range V {
		V[i] = make([]float64, n)
	}
	h := make([][]float64, m+1) // Hessenberg, h[i][j], i row, j col
	for i := range h {
		h[i] = make([]float64, m)
	}
	cs := make([]float64, m) // Givens cosines
	sn := make([]float64, m) // Givens sines
	g := make([]float64, m+1)
	w := make([]float64, n)

	for st.Iterations < opt.MaxIter {
		// Outer (restart) cycle: r already holds b - A x.
		beta := c.norm(r)
		if beta == 0 {
			st.Converged = true
			st.Residual = 0
			return st, nil
		}
		for i := range r {
			V[0][i] = r[i] / beta
		}
		st.AXPYs++
		for i := range g {
			g[i] = 0
		}
		g[0] = beta

		k := 0 // columns completed this cycle
		for ; k < m && st.Iterations < opt.MaxIter; k++ {
			st.Iterations++
			// Arnoldi step with modified Gram-Schmidt.
			c.matvec(A, V[k], w)
			for i := 0; i <= k; i++ {
				h[i][k] = c.dot(w, V[i])
				c.axpy(w, -h[i][k], V[i])
			}
			h[k+1][k] = c.norm(w)
			subdiag := h[k+1][k]
			if h[k+1][k] != 0 {
				for i := range w {
					V[k+1][i] = w[i] / h[k+1][k]
				}
				st.AXPYs++
			}
			// Apply previous Givens rotations to the new column.
			for i := 0; i < k; i++ {
				t := cs[i]*h[i][k] + sn[i]*h[i+1][k]
				h[i+1][k] = -sn[i]*h[i][k] + cs[i]*h[i+1][k]
				h[i][k] = t
			}
			// New rotation to annihilate h[k+1][k].
			denom := math.Hypot(h[k][k], h[k+1][k])
			if denom == 0 {
				cs[k], sn[k] = 1, 0
			} else {
				cs[k] = h[k][k] / denom
				sn[k] = h[k+1][k] / denom
			}
			h[k][k] = cs[k]*h[k][k] + sn[k]*h[k+1][k]
			h[k+1][k] = 0
			g[k+1] = -sn[k] * g[k]
			g[k] = cs[k] * g[k]

			rel := math.Abs(g[k+1]) / bn
			if rel <= opt.Tol {
				k++
				break
			}
			if subdiag == 0 && math.Abs(g[k+1]) > opt.Tol*bn {
				// Lucky breakdown without convergence cannot happen in
				// exact arithmetic; treat as breakdown.
				return st, fmt.Errorf("%w: Arnoldi breakdown at iteration %d", ErrBreakdown, st.Iterations)
			}
		}

		// Solve the k x k triangular system and update x.
		yv := make([]float64, k)
		for i := k - 1; i >= 0; i-- {
			sum := g[i]
			for j := i + 1; j < k; j++ {
				sum -= h[i][j] * yv[j]
			}
			yv[i] = sum / h[i][i]
		}
		for j := 0; j < k; j++ {
			c.axpy(x, yv[j], V[j])
		}

		// True residual for the restart / convergence check.
		rn, _ = residual0(c, A, b, x, r)
		rel := rn / bn
		if rel <= opt.Tol {
			st.Converged = true
			st.Residual = rel
			return st, nil
		}
	}
	st.Residual = rn / bn
	return st, nil
}
