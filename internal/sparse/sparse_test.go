package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCOOToCSRBasic(t *testing.T) {
	coo := NewCOO(3, 3)
	coo.Add(0, 0, 1)
	coo.Add(2, 1, 5)
	coo.Add(1, 2, 3)
	coo.Add(0, 2, 2)
	coo.Add(0, 2, 4) // duplicate, must sum to 6
	m := coo.ToCSR()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 4 {
		t.Fatalf("NNZ = %d, want 4 after duplicate merge", m.NNZ())
	}
	if m.At(0, 2) != 6 {
		t.Errorf("At(0,2) = %g, want 6", m.At(0, 2))
	}
	if m.At(2, 1) != 5 || m.At(1, 2) != 3 || m.At(0, 0) != 1 {
		t.Error("entries misplaced")
	}
	if m.At(2, 2) != 0 {
		t.Errorf("missing entry should read 0, got %g", m.At(2, 2))
	}
}

func TestCOOValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range Add should panic")
		}
	}()
	NewCOO(2, 2).Add(2, 0, 1)
}

// transposed reads a CSC's arrays as the CSR of the transpose.
func transposed(c *CSC) *CSR {
	return &CSR{NRows: c.NCols, NCols: c.NRows, RowPtr: c.ColPtr, Col: c.Row, Val: c.Val}
}

func TestFigure1CSC(t *testing.T) {
	// Figure 1 of the paper gives the CSC arrays for its 6x6 example.
	m := Figure1Matrix()
	csc := m.ToCSC()
	if err := transposed(csc).Validate(); err != nil {
		t.Fatal(err)
	}
	// Column 1 (0-based 0) holds a11, a21, a31, a51 in row order.
	rows, vals := csc.Row[csc.ColPtr[0]:csc.ColPtr[1]], csc.Val[csc.ColPtr[0]:csc.ColPtr[1]]
	wantRows := []int{0, 1, 2, 4}
	wantVals := []float64{11, 21, 31, 51}
	if len(rows) != 4 {
		t.Fatalf("col 0 has %d entries", len(rows))
	}
	for k := range rows {
		if rows[k] != wantRows[k] || vals[k] != wantVals[k] {
			t.Errorf("col 0 entry %d = (%d,%g), want (%d,%g)", k, rows[k], vals[k], wantRows[k], wantVals[k])
		}
	}
	// Column 6 (0-based 5) holds a26, a66.
	rows, vals = csc.Row[csc.ColPtr[5]:csc.ColPtr[6]], csc.Val[csc.ColPtr[5]:csc.ColPtr[6]]
	if len(rows) != 2 || rows[0] != 1 || rows[1] != 5 || vals[0] != 26 || vals[1] != 66 {
		t.Errorf("col 5 entries = %v %v", rows, vals)
	}
	if m.NNZ() != 15 {
		t.Errorf("Figure 1 matrix has %d nonzeros, want 15", m.NNZ())
	}
}

func TestCSRCSCRoundTrip(t *testing.T) {
	m := RandomSPD(50, 6, 1)
	back := transposed(m.ToCSC()).Transpose()
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
	if back.NNZ() != m.NNZ() {
		t.Fatalf("round trip changed nnz: %d -> %d", m.NNZ(), back.NNZ())
	}
	for i := 0; i < m.NRows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			j := m.Col[k]
			if back.At(i, j) != m.Val[k] {
				t.Fatalf("round trip changed entry (%d,%d)", i, j)
			}
		}
	}
}

func TestMulVecAgainstDense(t *testing.T) {
	m := RandomSPD(40, 5, 7)
	d := m.ToDense()
	x := RandomVector(40, 2)
	ys := make([]float64, 40)
	m.MulVec(x, ys)
	for i := range ys {
		yd := 0.0
		for j, a := range d.Row(i) {
			yd += a * x[j]
		}
		if math.Abs(ys[i]-yd) > 1e-10 {
			t.Fatalf("CSR MulVec differs from dense at %d: %g vs %g", i, ys[i], yd)
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	m := PowerLaw(60, 1.1, 20, 3)
	tt := m.Transpose().Transpose()
	if tt.NNZ() != m.NNZ() {
		t.Fatal("double transpose changed nnz")
	}
	for i := 0; i < m.NRows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			if tt.At(i, m.Col[k]) != m.Val[k] {
				t.Fatal("double transpose changed values")
			}
		}
	}
}

func TestIsSymmetric(t *testing.T) {
	if !RandomSPD(30, 4, 9).IsSymmetric(1e-12) {
		t.Error("RandomSPD should be symmetric")
	}
	coo := NewCOO(2, 2)
	coo.Add(0, 1, 1)
	if coo.ToCSR().IsSymmetric(1e-12) {
		t.Error("asymmetric matrix reported symmetric")
	}
	coo2 := NewCOO(2, 3)
	if coo2.ToCSR().IsSymmetric(1e-12) {
		t.Error("rectangular matrix reported symmetric")
	}
}

func TestDiagAndRowNNZ(t *testing.T) {
	m := Laplace1D(5)
	d := m.Diag()
	for i, v := range d {
		if v != 2 {
			t.Errorf("Diag[%d] = %g, want 2", i, v)
		}
	}
	want := []int{2, 3, 3, 3, 2}
	csc := m.ToCSC()
	for i := range want {
		if w := m.RowPtr[i+1] - m.RowPtr[i]; w != want[i] {
			t.Errorf("row %d has %d entries, want %d", i, w, want[i])
		}
		if w := csc.ColPtr[i+1] - csc.ColPtr[i]; w != want[i] {
			t.Errorf("column %d has %d entries, want %d (symmetric)", i, w, want[i])
		}
	}
}

func TestLaplace2DStructure(t *testing.T) {
	m := Laplace2D(3, 4)
	if m.NRows != 12 || m.NCols != 12 {
		t.Fatalf("shape %dx%d", m.NRows, m.NCols)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if !m.IsSymmetric(0) {
		t.Error("Laplace2D not symmetric")
	}
	// Interior point (1,1) -> index 1*4+1 = 5 has 5 entries.
	if got := m.RowPtr[6] - m.RowPtr[5]; got != 5 {
		t.Errorf("interior row has %d entries, want 5", got)
	}
	// Corner (0,0) has 3 entries.
	if got := m.RowPtr[1] - m.RowPtr[0]; got != 3 {
		t.Errorf("corner row has %d entries, want 3", got)
	}
	// Row sums of the Laplacian with Dirichlet boundary are >= 0 and the
	// matrix is diagonally dominant.
	for i := 0; i < m.NRows; i++ {
		sum := 0.0
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			sum += m.Val[k]
		}
		if sum < 0 {
			t.Errorf("row %d sums to %g", i, sum)
		}
	}
}

func TestLaplace3D(t *testing.T) {
	m := Laplace3D(3, 3, 3)
	if m.NRows != 27 {
		t.Fatalf("shape %d", m.NRows)
	}
	if !m.IsSymmetric(0) {
		t.Error("Laplace3D not symmetric")
	}
	// Center point has 7 entries.
	center := (1*3+1)*3 + 1
	if got := m.RowPtr[center+1] - m.RowPtr[center]; got != 7 {
		t.Errorf("center row has %d entries, want 7", got)
	}
}

func TestBandedUniform(t *testing.T) {
	m := Banded(20, 2)
	if !m.IsSymmetric(0) {
		t.Error("Banded not symmetric")
	}
	// Interior rows all have 2*2+1 = 5 entries: the uniform case.
	for i := 2; i < 18; i++ {
		if w := m.RowPtr[i+1] - m.RowPtr[i]; w != 5 {
			t.Errorf("row %d has %d entries, want 5", i, w)
		}
	}
}

func TestRandomSPDDominance(t *testing.T) {
	m := RandomSPD(80, 6, 42)
	for i := 0; i < m.NRows; i++ {
		diag, off := 0.0, 0.0
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			if m.Col[k] == i {
				diag = m.Val[k]
			} else {
				off += math.Abs(m.Val[k])
			}
		}
		if diag <= off {
			t.Fatalf("row %d not strictly dominant: diag %g, off %g", i, diag, off)
		}
	}
	// Determinism.
	m2 := RandomSPD(80, 6, 42)
	if m2.NNZ() != m.NNZ() || m2.At(0, 0) != m.At(0, 0) {
		t.Error("RandomSPD not deterministic for equal seeds")
	}
}

func TestPowerLawSkew(t *testing.T) {
	m := PowerLaw(400, 1.0, 100, 5)
	if !m.IsSymmetric(1e-12) {
		t.Error("PowerLaw not symmetric")
	}
	mn, mx := m.NNZ(), 0
	for i := 0; i < m.NRows; i++ {
		c := m.RowPtr[i+1] - m.RowPtr[i]
		if c < mn {
			mn = c
		}
		if c > mx {
			mx = c
		}
	}
	// The point of the generator is skew: max row must be much denser
	// than min row.
	if mx < 4*mn {
		t.Errorf("power-law matrix insufficiently skewed: min %d, max %d", mn, mx)
	}
}

func TestDiagWithEigenvalues(t *testing.T) {
	eigs := []float64{1, 2, 2, 5}
	m := DiagWithEigenvalues(eigs)
	if m.NNZ() != 4 {
		t.Fatalf("NNZ = %d", m.NNZ())
	}
	for i, e := range eigs {
		if m.At(i, i) != e {
			t.Errorf("diag %d = %g", i, m.At(i, i))
		}
	}
}

func TestNASCGMatrix(t *testing.T) {
	m := NASCGMatrix(NASClassS, 11)
	if m.NRows != 1400 {
		t.Fatalf("class S size %d", m.NRows)
	}
	if !m.IsSymmetric(1e-12) {
		t.Error("NAS matrix not symmetric")
	}
	// Diagonal must dominate (shift + rowsum construction).
	for i := 0; i < m.NRows; i++ {
		diag, off := 0.0, 0.0
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			if m.Col[k] == i {
				diag = m.Val[k]
			} else {
				off += math.Abs(m.Val[k])
			}
		}
		if diag < off+NASClassS.Shift-1e-9 {
			t.Fatalf("row %d: diag %g < off %g + shift", i, diag, off)
		}
	}
}

func TestDense(t *testing.T) {
	d := NewDense(2, 3)
	d.Set(0, 1, 5)
	d.Set(1, 2, -2)
	if d.At(0, 1) != 5 || d.At(1, 2) != -2 || d.At(0, 0) != 0 {
		t.Error("Set/At wrong")
	}
	if r := d.Row(1); len(r) != 3 || r[2] != -2 {
		t.Errorf("Row(1) = %v", r)
	}
	c := d.Clone()
	c.Set(0, 0, 9)
	if d.At(0, 0) != 0 {
		t.Error("Clone aliases original")
	}
}

// generatorRejects are spec strings GeneratorByName must refuse: the
// one that panicked NewCOO, the spellings a scanf-style reader let through, empty
// systems, out-of-domain parameters, sizes whose product overflows.
var generatorRejects = []string{
	"laplace2d:-3:4", "laplace2d:32:32junk", "banded:512:4:99", "laplace2d:32:32:7",
	"laplace2d: 4:4", "banded:8:-1", "laplace2d:0:0", "laplace1d:0",
	"", "laplace2d", "laplace2d:", "laplace2d:4", "laplace2d:4:", "laplace2d:04:4", "laplace2d:+4:4",
	"laplace2d:4:4 ", "LAPLACE2D:4:4", "banded:8:8", "banded:4096:2000", "randspd:20:-1:7",
	"randspd:20:4", "powerlaw:0:1", "powerlawc:30", "nascg:Q:1", "nascg:S", "nascg:1", "nascg",
	"laplace2d:4294967296:4294967296", "laplace3d:65536:65536:65536", "laplace1d:99999999999999999999",
	"nonsense:1",
}

func TestGeneratorByName(t *testing.T) {
	specs := []struct {
		spec string
		want *CSR
	}{
		{"laplace1d:10", Laplace1D(10)},
		{"laplace2d:3:5", Laplace2D(3, 5)},
		{"laplace3d:2:3:4", Laplace3D(2, 3, 4)},
		{"banded:12:2", Banded(12, 2)},
		{"banded:1:0", Banded(1, 0)},
		{"randspd:20:4:7", RandomSPD(20, 4, 7)},
		{"randspd:20:4:-7", RandomSPD(20, 4, -7)},
		{"powerlaw:30:1", PowerLaw(30, 1.2, 30/4, 1)},
		{"powerlawc:30:1", PowerLawClustered(30, 30/8, 1)},
		{"nascg:S:3", NASCGMatrix(NASClassS, 3)},
	}
	for _, s := range specs {
		if err := CheckGeneratorSpec(s.spec); err != nil {
			t.Fatalf("%s: %v", s.spec, err)
		}
		m, err := GeneratorByName(s.spec)
		if err != nil {
			t.Fatalf("%s: %v", s.spec, err)
		}
		if ContentHash(m) != ContentHash(s.want) {
			t.Errorf("%s: not the matrix its generator builds directly", s.spec)
		}
	}
	for _, spec := range generatorRejects {
		if m, err := GeneratorByName(spec); err == nil {
			t.Errorf("%q accepted (%dx%d)", spec, m.NRows, m.NCols)
		}
		if err := CheckGeneratorSpec(spec); err == nil {
			t.Errorf("%q passes CheckGeneratorSpec", spec)
		}
	}
}

// FuzzGeneratorByName: the parser never panics, an accepted spec is
// the canonical spelling of its own value, and (for sizes worth
// building) the generator it names runs and yields a valid matrix of
// the promised order.
func FuzzGeneratorByName(f *testing.F) {
	for _, s := range generatorRejects {
		f.Add(s)
	}
	for _, s := range []string{"laplace1d:10", "laplace2d:3:5", "laplace3d:2:3:4", "banded:12:2",
		"randspd:20:4:7", "powerlaw:30:1", "powerlawc:30:1", "nascg:S:3"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		g, err := parseGenerator(spec)
		if err != nil {
			return
		}
		if g.String() != spec {
			t.Fatalf("accepted %q, which re-renders as %q", spec, g.String())
		}
		n := int64(1)
		for _, d := range g.args[:generatorFamilies[g.family].dims] {
			n *= d
		}
		if n < 1 || n > MaxGeneratorN {
			t.Fatalf("accepted %q: order %d outside [1, %d]", spec, n, MaxGeneratorN)
		}
		if g.family == "nascg" || n > 2000 {
			return // parse-only: too big to build per fuzz input
		}
		m := g.build()
		if err := m.Validate(); err != nil {
			t.Fatalf("%q: %v", spec, err)
		}
		if int64(m.NRows) != n {
			t.Fatalf("%q: order %d, want %d", spec, m.NRows, n)
		}
	})
}

// Property: for random COO input, CSR conversion preserves the summed
// entry values and MulVec agrees with a naive triplet multiply.
func TestCOOCSRQuick(t *testing.T) {
	f := func(seed int64, nRaw, nnzRaw uint8) bool {
		n := int(nRaw%20) + 1
		nnz := int(nnzRaw % 60)
		rng := rand.New(rand.NewSource(seed))
		coo := NewCOO(n, n)
		for k := 0; k < nnz; k++ {
			coo.Add(rng.Intn(n), rng.Intn(n), rng.NormFloat64())
		}
		m := coo.ToCSR()
		if m.Validate() != nil {
			return false
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		y1, y2 := make([]float64, n), make([]float64, n)
		m.MulVec(x, y1)
		for k, v := range coo.V {
			y2[coo.I[k]] += v * x[coo.J[k]]
		}
		for i := range y1 {
			if math.Abs(y1[i]-y2[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
