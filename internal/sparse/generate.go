package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
)

// Laplace1D returns the n x n tridiagonal [-1 2 -1] matrix, the 1-D
// Poisson operator. It is symmetric positive-definite.
func Laplace1D(n int) *CSR {
	coo := NewCOO(n, n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 2)
		if i > 0 {
			coo.Add(i, i-1, -1)
		}
		if i < n-1 {
			coo.Add(i, i+1, -1)
		}
	}
	return coo.ToCSR()
}

// Laplace2D returns the 5-point finite-difference Laplacian on an
// nx x ny grid (the computational-fluid-dynamics style matrix the
// paper's introduction motivates). Size is nx*ny; SPD.
func Laplace2D(nx, ny int) *CSR {
	n := nx * ny
	coo := NewCOO(n, n)
	idx := func(i, j int) int { return i*ny + j }
	for i := 0; i < nx; i++ {
		for j := 0; j < ny; j++ {
			g := idx(i, j)
			coo.Add(g, g, 4)
			if i > 0 {
				coo.Add(g, idx(i-1, j), -1)
			}
			if i < nx-1 {
				coo.Add(g, idx(i+1, j), -1)
			}
			if j > 0 {
				coo.Add(g, idx(i, j-1), -1)
			}
			if j < ny-1 {
				coo.Add(g, idx(i, j+1), -1)
			}
		}
	}
	return coo.ToCSR()
}

// Laplace3D returns the 7-point Laplacian on an nx x ny x nz grid; SPD.
func Laplace3D(nx, ny, nz int) *CSR {
	n := nx * ny * nz
	coo := NewCOO(n, n)
	idx := func(i, j, k int) int { return (i*ny+j)*nz + k }
	for i := 0; i < nx; i++ {
		for j := 0; j < ny; j++ {
			for k := 0; k < nz; k++ {
				g := idx(i, j, k)
				coo.Add(g, g, 6)
				if i > 0 {
					coo.Add(g, idx(i-1, j, k), -1)
				}
				if i < nx-1 {
					coo.Add(g, idx(i+1, j, k), -1)
				}
				if j > 0 {
					coo.Add(g, idx(i, j-1, k), -1)
				}
				if j < ny-1 {
					coo.Add(g, idx(i, j+1, k), -1)
				}
				if k > 0 {
					coo.Add(g, idx(i, j, k-1), -1)
				}
				if k < nz-1 {
					coo.Add(g, idx(i, j, k+1), -1)
				}
			}
		}
	}
	return coo.ToCSR()
}

// Banded returns a symmetric banded matrix with the given half
// bandwidth: entries -1 within the band, diagonal large enough to be
// strictly diagonally dominant (hence SPD). Rows have approximately
// equal nonzero counts — the "regular (uniform)" case of §5.2.1.
func Banded(n, halfBand int) *CSR {
	coo := NewCOO(n, n)
	for i := 0; i < n; i++ {
		off := 0
		for d := 1; d <= halfBand; d++ {
			if i-d >= 0 {
				coo.Add(i, i-d, -1)
				off++
			}
			if i+d < n {
				coo.Add(i, i+d, -1)
				off++
			}
		}
		coo.Add(i, i, float64(off)+1)
	}
	return coo.ToCSR()
}

// RandomSPD returns an n x n symmetric, strictly diagonally dominant
// (hence positive-definite) matrix with about nnzPerRow off-diagonal
// entries per row, deterministically from seed.
func RandomSPD(n, nnzPerRow int, seed int64) *CSR {
	rng := rand.New(rand.NewSource(seed))
	coo := NewCOO(n, n)
	absRowSum := make([]float64, n)
	for i := 0; i < n; i++ {
		for t := 0; t < nnzPerRow/2+1; t++ {
			j := rng.Intn(n)
			if j == i {
				continue
			}
			v := rng.NormFloat64()
			// Add symmetrically; duplicates are summed by ToCSR.
			coo.Add(i, j, v)
			coo.Add(j, i, v)
			absRowSum[i] += math.Abs(v)
			absRowSum[j] += math.Abs(v)
		}
	}
	for i := 0; i < n; i++ {
		coo.Add(i, i, absRowSum[i]+1+rng.Float64())
	}
	m := coo.ToCSR()
	// Duplicate summation can only shrink |offdiag| sums, so dominance
	// holds; assert symmetry in debug spirit.
	if !m.IsSymmetric(1e-12) {
		panic("sparse: RandomSPD produced a non-symmetric matrix")
	}
	return m
}

// PowerLaw returns an n x n symmetric SPD matrix whose row densities
// follow a truncated power law: a few rows are very dense ("some grid
// points may have many neighbours, while others have very few",
// §5.2.2). alpha > 0 controls skew (larger = more skewed); maxDeg caps
// the dense rows.
func PowerLaw(n int, alpha float64, maxDeg int, seed int64) *CSR {
	if maxDeg >= n {
		maxDeg = n - 1
	}
	rng := rand.New(rand.NewSource(seed))
	coo := NewCOO(n, n)
	absRowSum := make([]float64, n)
	for i := 0; i < n; i++ {
		// Inverse-CDF sample of a power-law degree in [1, maxDeg].
		u := rng.Float64()
		deg := int(math.Pow(u, -1/alpha))
		if deg < 1 {
			deg = 1
		}
		if deg > maxDeg {
			deg = maxDeg
		}
		for t := 0; t < deg; t++ {
			j := rng.Intn(n)
			if j == i {
				continue
			}
			v := -rng.Float64()
			coo.Add(i, j, v)
			coo.Add(j, i, v)
			absRowSum[i] += math.Abs(v)
			absRowSum[j] += math.Abs(v)
		}
	}
	for i := 0; i < n; i++ {
		coo.Add(i, i, absRowSum[i]+1)
	}
	return coo.ToCSR()
}

// PowerLawClustered is PowerLaw with the dense rows clustered at the
// front of the index space (descending harmonic-ish degrees) instead of
// scattered randomly. This is the §5.2.2 case of structure that is
// "identifiable to a human but not to a compiler": a plain BLOCK
// distribution hands the first processor almost all the work, while an
// atom-aware balanced partitioner fixes it.
func PowerLawClustered(n, maxDeg int, seed int64) *CSR {
	if maxDeg >= n {
		maxDeg = n - 1
	}
	rng := rand.New(rand.NewSource(seed))
	coo := NewCOO(n, n)
	absRowSum := make([]float64, n)
	for i := 0; i < n; i++ {
		deg := maxDeg / (1 + i/8)
		if deg < 1 {
			deg = 1
		}
		for t := 0; t < deg; t++ {
			j := rng.Intn(n)
			if j == i {
				continue
			}
			v := -rng.Float64()
			coo.Add(i, j, v)
			coo.Add(j, i, v)
			absRowSum[i] += math.Abs(v)
			absRowSum[j] += math.Abs(v)
		}
	}
	for i := 0; i < n; i++ {
		coo.Add(i, i, absRowSum[i]+1)
	}
	return coo.ToCSR()
}

// DiagWithEigenvalues returns a diagonal matrix whose spectrum is
// exactly eigs (repeats allowed). CG on such a system converges in at
// most (#distinct eigenvalues) iterations — the §2 convergence claim
// experiment E9 checks.
func DiagWithEigenvalues(eigs []float64) *CSR {
	n := len(eigs)
	coo := NewCOO(n, n)
	for i, e := range eigs {
		coo.Add(i, i, e)
	}
	return coo.ToCSR()
}

// NASCGClass describes a NAS-CG-style problem size. Substitution note
// (see DESIGN.md): the official NAS `makea` builds A as a weighted sum
// of random sparse outer products; we reproduce its *shape* — an
// irregular random symmetric pattern with `Nonzer` entries per row and
// a diagonal shift — which exercises the identical CG code path.
type NASCGClass struct {
	Name   string
	N      int
	Nonzer int
	Shift  float64
	NIter  int
}

// Standard NAS-CG classes (S and W are laptop-scale).
var (
	NASClassS = NASCGClass{Name: "S", N: 1400, Nonzer: 7, Shift: 10, NIter: 15}
	NASClassW = NASCGClass{Name: "W", N: 7000, Nonzer: 8, Shift: 12, NIter: 15}
	NASClassA = NASCGClass{Name: "A", N: 14000, Nonzer: 11, Shift: 20, NIter: 15}
)

// NASCGMatrix generates the class's matrix: random symmetric pattern
// with cls.Nonzer off-diagonals per row, values in (0,1], plus
// (shift + rowsum) on the diagonal so the matrix is SPD with smallest
// eigenvalues near the shift.
func NASCGMatrix(cls NASCGClass, seed int64) *CSR {
	rng := rand.New(rand.NewSource(seed))
	coo := NewCOO(cls.N, cls.N)
	absRowSum := make([]float64, cls.N)
	for i := 0; i < cls.N; i++ {
		for t := 0; t < cls.Nonzer; t++ {
			j := rng.Intn(cls.N)
			if j == i {
				continue
			}
			v := rng.Float64()
			coo.Add(i, j, v)
			coo.Add(j, i, v)
			absRowSum[i] += v
			absRowSum[j] += v
		}
	}
	for i := 0; i < cls.N; i++ {
		coo.Add(i, i, absRowSum[i]+cls.Shift)
	}
	return coo.ToCSR()
}

// Figure1Matrix returns the 6x6 sparse matrix used in Figure 1 of the
// paper to illustrate CSC storage (0-based here).
//
//	a11 a12  0   0  a15  0
//	a21 a22  0  a24  0  a26
//	a31  0  a33  0   0   0
//	 0  a42  0  a44  0   0
//	a51  0   0   0  a55  0
//	 0  a62  0   0   0  a66
//
// The numeric values encode their 1-based position (a_ij = 10i + j) so
// tests can recognise entries.
func Figure1Matrix() *CSR {
	coo := NewCOO(6, 6)
	entries := [][2]int{
		{1, 1}, {1, 2}, {1, 5},
		{2, 1}, {2, 2}, {2, 4}, {2, 6},
		{3, 1}, {3, 3},
		{4, 2}, {4, 4},
		{5, 1}, {5, 5},
		{6, 2}, {6, 6},
	}
	for _, e := range entries {
		coo.Add(e[0]-1, e[1]-1, float64(10*e[0]+e[1]))
	}
	return coo.ToCSR()
}

// RandomVector returns an n-vector of standard normal entries,
// deterministically from seed.
func RandomVector(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

// Ones returns the all-ones n-vector.
func Ones(n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = 1
	}
	return x
}

// Bounds on what a generator spec may ask for. Specs arrive from the
// command line and over HTTP, so the parser refuses sizes whose
// arithmetic would overflow or whose assembly could not finish.
const (
	// MaxGeneratorN caps the order of a generated matrix.
	MaxGeneratorN = 1 << 24
	// MaxGeneratorRowNNZ caps the per-row density parameters
	// (banded's half bandwidth, randspd's nnzrow).
	MaxGeneratorRowNNZ = 1 << 10
)

// generator is a parsed generator spec: the family, its integer
// parameters in spec order and, for nascg, the class letter.
type generator struct {
	family string
	class  string
	args   []int64
}

// generatorFamilies gives, per family, the number of integer fields
// its spec takes and how many of them, leading, are dimensions that
// multiply to the order n.
var generatorFamilies = map[string]struct{ fields, dims int }{
	"laplace1d": {1, 1}, "laplace2d": {2, 2}, "laplace3d": {3, 3},
	"banded": {2, 1}, "randspd": {3, 1}, "powerlaw": {2, 1}, "powerlawc": {2, 1},
	"nascg": {1, 0}, // after the class letter: a seed, the class fixes n
}

var nasClasses = map[string]NASCGClass{"S": NASClassS, "W": NASClassW, "A": NASClassA}

// parseGenerator is the one reader of generator specs. The spec string
// is a job's content identity (plan key, batch key, ring position), so
// the grammar is exact: colon-separated fields, the field count of the
// family, every integer in canonical decimal form, every dimension in
// [1, MaxGeneratorN] and every parameter in its generator's domain.
// Anything else is an error — never a panic, never a second spelling
// of a matrix another string already names.
func parseGenerator(spec string) (generator, error) {
	fields := strings.Split(spec, ":")
	g := generator{family: fields[0]}
	fam, ok := generatorFamilies[g.family]
	if !ok {
		return generator{}, fmt.Errorf("sparse: unknown matrix spec %q", spec)
	}
	fields = fields[1:]
	if g.family == "nascg" {
		if len(fields) == 0 {
			return generator{}, fmt.Errorf("sparse: %q: nascg takes class:seed", spec)
		}
		if _, ok := nasClasses[fields[0]]; !ok {
			return generator{}, fmt.Errorf("sparse: unknown NAS class %q", fields[0])
		}
		g.class, fields = fields[0], fields[1:]
	}
	if len(fields) != fam.fields {
		return generator{}, fmt.Errorf("sparse: %q: %s takes %d integer fields, got %d", spec, g.family, fam.fields, len(fields))
	}
	for _, f := range fields {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil || strconv.FormatInt(v, 10) != f {
			return generator{}, fmt.Errorf("sparse: %q: field %q is not a canonical decimal integer", spec, f)
		}
		g.args = append(g.args, v)
	}

	n := int64(1)
	for _, d := range g.args[:fam.dims] {
		if d < 1 || d > MaxGeneratorN/n {
			return generator{}, fmt.Errorf("sparse: %q: dimensions must be >= 1 with at most %d unknowns in all", spec, MaxGeneratorN)
		}
		n *= d
	}
	switch g.family {
	case "banded":
		if hb := g.args[1]; hb < 0 || hb >= n || hb > MaxGeneratorRowNNZ {
			return generator{}, fmt.Errorf("sparse: %q: half bandwidth %d outside [0, min(n-1, %d)]", spec, hb, MaxGeneratorRowNNZ)
		}
	case "randspd":
		if k := g.args[1]; k < 0 || k > MaxGeneratorRowNNZ {
			return generator{}, fmt.Errorf("sparse: %q: nnzrow %d outside [0, %d]", spec, k, MaxGeneratorRowNNZ)
		}
	}
	return g, nil
}

// String renders the spec back; for every accepted spec it is the
// input, byte for byte.
func (g generator) String() string {
	var b strings.Builder
	b.WriteString(g.family)
	if g.class != "" {
		b.WriteString(":" + g.class)
	}
	for _, a := range g.args {
		b.WriteString(":" + strconv.FormatInt(a, 10))
	}
	return b.String()
}

func (g generator) build() *CSR {
	a := func(i int) int { return int(g.args[i]) }
	switch g.family {
	case "laplace1d":
		return Laplace1D(a(0))
	case "laplace2d":
		return Laplace2D(a(0), a(1))
	case "laplace3d":
		return Laplace3D(a(0), a(1), a(2))
	case "banded":
		return Banded(a(0), a(1))
	case "randspd":
		return RandomSPD(a(0), a(1), g.args[2])
	case "powerlawc":
		return PowerLawClustered(a(0), a(0)/8, g.args[1])
	case "powerlaw":
		return PowerLaw(a(0), 1.2, a(0)/4, g.args[1])
	default: // nascg; parseGenerator admits no other family
		return NASCGMatrix(nasClasses[g.class], g.args[0])
	}
}

// CheckGeneratorSpec reports whether GeneratorByName would accept spec,
// without building the matrix — the admission-time check.
func CheckGeneratorSpec(spec string) error {
	_, err := parseGenerator(spec)
	return err
}

// GeneratorByName builds one of the named test matrices; used by the
// CLIs and the solver service. Supported: laplace1d:n, laplace2d:nx:ny,
// laplace3d:nx:ny:nz, banded:n:halfband, randspd:n:nnzrow:seed,
// powerlaw:n:seed, powerlawc:n:seed, nascg:S|W|A:seed. The grammar is
// exact (see parseGenerator): a malformed spec is an error.
func GeneratorByName(spec string) (*CSR, error) {
	g, err := parseGenerator(spec)
	if err != nil {
		return nil, err
	}
	return g.build(), nil
}
