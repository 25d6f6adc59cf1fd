package sparse

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

func TestMatrixMarketRoundTrip(t *testing.T) {
	m := RandomSPD(25, 4, 13)
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, m); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NRows != m.NRows || back.NCols != m.NCols || back.NNZ() != m.NNZ() {
		t.Fatalf("shape changed: %dx%d nnz %d", back.NRows, back.NCols, back.NNZ())
	}
	for i := 0; i < m.NRows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			j := m.Col[k]
			if math.Abs(back.At(i, j)-m.Val[k]) > 1e-15 {
				t.Fatalf("entry (%d,%d) changed: %g vs %g", i, j, back.At(i, j), m.Val[k])
			}
		}
	}
}

func TestMatrixMarketSymmetric(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real symmetric
% lower triangle of a 3x3 matrix
3 3 4
1 1 2.0
2 1 -1.0
2 2 2.0
3 3 1.5
`
	m, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 1) != -1 || m.At(1, 0) != -1 {
		t.Errorf("symmetric mirror missing: %g %g", m.At(0, 1), m.At(1, 0))
	}
	if !m.IsSymmetric(0) {
		t.Error("expected symmetric read")
	}
	if m.NNZ() != 5 {
		t.Errorf("NNZ = %d, want 5", m.NNZ())
	}
}

func TestMatrixMarketErrors(t *testing.T) {
	cases := []string{
		"",
		"not a header\n1 1 1\n",
		"%%MatrixMarket matrix array real general\n1 1\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n", // too few entries
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n9 9 1.0\n", // out of range
		"%%MatrixMarket matrix coordinate real general\n-1 2 0\n",         // bad dims
		"%%MatrixMarket matrix coordinate real general\nbogus\n",          // bad size line
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 x 1.0\n", // bad entry
	}
	for i, in := range cases {
		if _, err := ReadMatrixMarket(strings.NewReader(in)); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestMatrixMarketCommentsSkipped(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real general
% comment line
% another

2 2 1
1 2 3.5
`
	m, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 1) != 3.5 {
		t.Errorf("At(0,1) = %g", m.At(0, 1))
	}
}

// oomDocument is 64 bytes that used to pass every check and then ask
// COO.ToCSR for a 24 GB row-count array — an unrecoverable out-of-memory
// kill of whichever process read it.
const oomDocument = "%%MatrixMarket matrix coordinate real general\n3000000000 1 0\n"

// TestMatrixMarketSizeLineBounded: a size line cannot make the reader
// allocate. Dimensions above MaxGeneratorN are refused by line, through
// both entry points, and an entry count the document cannot hold
// reserves nothing beyond what its bytes could.
func TestMatrixMarketSizeLineBounded(t *testing.T) {
	for _, doc := range []string{
		oomDocument,
		"%%MatrixMarket matrix coordinate real general\n1 3000000000 0\n",
		fmt.Sprintf("%%%%MatrixMarket matrix coordinate real symmetric\n%d 1 0\n", MaxGeneratorN+1),
	} {
		_, err := ParseMatrixMarket(doc)
		if err == nil || !strings.Contains(err.Error(), "line 2") || !strings.Contains(err.Error(), "limit") {
			t.Errorf("ParseMatrixMarket(%q): %v, want a line 2 limit error", doc, err)
		}
		if _, err := ReadMatrixMarket(strings.NewReader(doc)); err == nil {
			t.Errorf("ReadMatrixMarket(%q) accepted", doc)
		}
	}
	if _, err := ParseMatrixMarket(fmt.Sprintf("%%%%MatrixMarket matrix coordinate real general\n%d %d 0\n", MaxGeneratorN, MaxGeneratorN)); err != nil {
		t.Errorf("dimensions at the limit refused: %v", err)
	}

	// 2^40 declared entries in a 70-byte document: the reservation is
	// bounded by the bytes, so this returns "expected ... got 1" instead
	// of allocating 24 TB.
	doc := "%%MatrixMarket matrix coordinate real symmetric\n4 4 1099511627776\n2 1 1.5\n"
	var err error
	perRun := testing.AllocsPerRun(5, func() { _, err = ParseMatrixMarket(doc) })
	if err == nil || !strings.Contains(err.Error(), "expected 1099511627776 entries, got 1") {
		t.Errorf("short file: %v", err)
	}
	if perRun > 20 {
		t.Errorf("short file with a huge entry count: %.0f allocations", perRun)
	}
}

// TestMatrixMarketGrammar pins the reader's grammar line by line,
// including where it is narrower than the fmt.Sscanf loop it replaced
// (readMatrixMarketSscanf below): Sscanf stopped at the first byte that
// could not continue a number and ignored the rest of the field, and
// understood hexadecimal floats, 'p' exponents and '_' separators.
func TestMatrixMarketGrammar(t *testing.T) {
	const general = "%%MatrixMarket matrix coordinate real general\n"
	accepted := []struct {
		name, doc string
		i, j      int
		want      float64
	}{
		{"plain", general + "3 3 1\n2 3 1.5\n", 1, 2, 1.5},
		{"crlf", "%%MatrixMarket matrix coordinate real general\r\n3 3 1\r\n2 3 1.5\r\n", 1, 2, 1.5},
		{"tabs", general + "3\t3\t1\n2\t3\t1.5\n", 1, 2, 1.5},
		{"leading and trailing blanks", general + "  3 3 1  \n \t 2   3 \t1.5 \t\n", 1, 2, 1.5},
		{"blank and comment lines between entries", general + "3 3 2\n\n% c\n1 1 1\n  \n  % c\n2 3 1.5\n", 1, 2, 1.5},
		{"extra trailing columns", general + "3 3 1 extra\n2 3 1.5 7 junk\n", 1, 2, 1.5},
		{"plus-signed indices", general + "+3 +3 +1\n+2 +3 +1.5\n", 1, 2, 1.5},
		{"leading zeros", general + "03 03 01\n0000000000000000000002 03 01.5\n", 1, 2, 1.5},
		{"negative zero", general + "3 3 1\n2 3 -0\n", 1, 2, math.Copysign(0, -1)},
		{"lower-case exponent", general + "3 3 1\n2 3 1e-3\n", 1, 2, 1e-3},
		{"upper-case exponent", general + "3 3 1\n2 3 1E+3\n", 1, 2, 1e3},
		{"bare fraction", general + "3 3 1\n2 3 .5\n", 1, 2, 0.5},
		{"trailing point", general + "3 3 1\n2 3 5.\n", 1, 2, 5},
		{"text after the declared entries", general + "3 3 1\n2 3 1.5\nnot an entry\n9 9 9\n", 1, 2, 1.5},
		{"no final newline", general + "3 3 1\n2 3 1.5", 1, 2, 1.5},
		{"upper-case banner", "%%MatrixMarket MATRIX COORDINATE REAL GENERAL\n3 3 1\n2 3 1.5\n", 1, 2, 1.5},
		{"underflow to zero", general + "3 3 1\n2 3 1e-400\n", 1, 2, 0},
	}
	for _, c := range accepted {
		m, err := ParseMatrixMarket(c.doc)
		if err != nil {
			t.Errorf("%s: rejected: %v", c.name, err)
			continue
		}
		if got := m.At(c.i, c.j); math.Float64bits(got) != math.Float64bits(c.want) {
			t.Errorf("%s: At(%d,%d) = %g, want %g", c.name, c.i, c.j, got, c.want)
		}
		if _, err := readMatrixMarketSscanf(strings.NewReader(c.doc)); err != nil {
			t.Errorf("%s: the Sscanf reader rejected it (%v): the new reader must not accept more", c.name, err)
		}
	}

	rejected := []struct {
		name, doc, want string
		sscanfAccepts   bool
	}{
		{"value glued to trailing bytes", general + "3 3 1\n2 3 3.0abc\n", "line 3: bad entry", true},
		{"two exponents", general + "3 3 1\n2 3 1e5e5\n", "line 3: bad entry", true},
		{"p exponent", general + "3 3 1\n2 3 1.5p3\n", "line 3: bad entry", true},
		{"hex float", general + "3 3 1\n2 3 0x1p-2\n", "line 3: bad entry", true},
		{"hex float with separators", general + "3 3 1\n2 3 0x1_0p0\n", "line 3: bad entry", true},
		{"entry count glued to trailing bytes", general + "3 3 1.5\n2 3 1\n", "line 2: bad size line", true},
		{"vertical tab as a blank", general + "3 3 1\n2\v3 1.5\n", "line 3: bad entry", true},
		{"digit separator in a value", general + "3 3 1\n2 3 1_0\n", "line 3: bad entry", true},
		{"digit separator in an index", general + "3 3 1\n1_0 3 1\n", "line 3: bad entry", false},
		{"fields with no blank between them", general + "3 3 1\n1-2 3\n", "line 3: bad entry", false},
		{"index glued to trailing bytes", general + "3 3 1\n2x 3 1.5\n", "line 3: bad entry", false},
		{"fractional index", general + "3 3 1\n2.0 3 1.5\n", "line 3: bad entry", false},
		{"two fields", general + "3 3 1\n2 3\n", "line 3: bad entry", false},
		{"two signs", general + "3 3 1\n2 3 +-1\n", "line 3: bad entry", false},
		{"lone sign", general + "3 3 1\n2 + 1\n", "line 3: bad entry", false},
		{"value overflow", general + "3 3 1\n2 3 1e400\n", "line 3: bad entry", false},
		{"index overflow", general + "3 3 1\n99999999999999999999 3 1\n", "line 3: bad entry", false},
		{"zero index", general + "3 3 1\n0 3 1\n", "line 3: entry (0,3) outside 3x3", false},
		{"negative index", general + "3 3 1\n2 -3 1\n", "line 3: entry (2,-3) outside 3x3", false},
		{"infinity spelled out", general + "3 3 1\n2 3 -Infinity\n", "line 3: non-finite", false},
		{"two-field size line", general + "3 3\n", "line 2: bad size line", false},
		{"no size line", general + "% only\n\n", "line 3: bad dimensions 0x0", false},
		{"short file", general + "3 3 4\n1 1 1\n% c\n2 2 1\n", "expected 4 entries, got 2", false},
	}
	for _, c := range rejected {
		_, err := ParseMatrixMarket(c.doc)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.want)
		}
		if _, err := readMatrixMarketSscanf(strings.NewReader(c.doc)); (err == nil) != c.sscanfAccepts {
			t.Errorf("%s: the Sscanf reader's verdict is %v, the table says accepts=%v", c.name, err, c.sscanfAccepts)
		}
	}
}

// readMatrixMarketSscanf is the reader ParseMatrixMarket replaced
// (bufio.Scanner + fmt.Sscanf per entry), kept verbatim as the
// reference FuzzReadMatrixMarket and TestMatrixMarketGrammar compare
// against.
func readMatrixMarketSscanf(r io.Reader) (*CSR, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	lineNo := 0
	if !sc.Scan() {
		return nil, fmt.Errorf("sparse: empty matrix market stream")
	}
	lineNo++
	header := sc.Text()
	if !strings.HasPrefix(header, "%%MatrixMarket") {
		return nil, fmt.Errorf("sparse: line %d: bad header %q", lineNo, header)
	}
	fields := strings.Fields(strings.ToLower(header))
	if len(fields) < 5 || fields[2] != "coordinate" || fields[3] != "real" {
		return nil, fmt.Errorf("sparse: line %d: unsupported matrix market type %q", lineNo, header)
	}
	symmetric := fields[4] == "symmetric"

	// Skip comments, read size line.
	var nrows, ncols, nnz int
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		if _, err := fmt.Sscanf(line, "%d %d %d", &nrows, &ncols, &nnz); err != nil {
			return nil, fmt.Errorf("sparse: line %d: bad size line %q: %w", lineNo, line, err)
		}
		break
	}
	if nrows <= 0 || ncols <= 0 {
		return nil, fmt.Errorf("sparse: line %d: bad dimensions %dx%d", lineNo, nrows, ncols)
	}
	if nnz < 0 {
		return nil, fmt.Errorf("sparse: line %d: negative entry count %d", lineNo, nnz)
	}
	coo := NewCOO(nrows, ncols)
	read := 0
	for read < nnz && sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		var i, j int
		var v float64
		if _, err := fmt.Sscanf(line, "%d %d %g", &i, &j, &v); err != nil {
			return nil, fmt.Errorf("sparse: line %d: bad entry %q: %w", lineNo, line, err)
		}
		if i < 1 || i > nrows || j < 1 || j > ncols {
			return nil, fmt.Errorf("sparse: line %d: entry (%d,%d) outside %dx%d", lineNo, i, j, nrows, ncols)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("sparse: line %d: non-finite value %g at (%d,%d)", lineNo, v, i, j)
		}
		coo.Add(i-1, j-1, v)
		if symmetric && i != j {
			coo.Add(j-1, i-1, v)
		}
		read++
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if read < nnz {
		return nil, fmt.Errorf("sparse: expected %d entries, got %d", nnz, read)
	}
	return coo.ToCSR(), nil
}

var (
	errLine  = regexp.MustCompile(`line (\d+)`)
	sizeLine = regexp.MustCompile(`(?m)^[ \t\r]*[+-]?\d+[ \t\r]+[+-]?\d+`)
)

// errLineNo extracts N from an error's "line N", 0 when it has none.
func errLineNo(err error) int {
	m := errLine.FindStringSubmatch(err.Error())
	if m == nil {
		return 0
	}
	n, _ := strconv.Atoi(m[1])
	return n
}

// fuzzMaxDim is the largest matrix order the fuzz target builds: an
// accepted size line costs memory and time in proportion to its
// dimensions whatever the document's length, in both readers.
const fuzzMaxDim = 1 << 16

// largestDim returns the largest of the two leading integers of any
// line of src — a superset of what the size line can say.
func largestDim(src string) int {
	largest := 0
	for _, m := range sizeLine.FindAllString(src, -1) {
		for _, f := range strings.Fields(m) {
			n, err := strconv.Atoi(f)
			if err != nil {
				return math.MaxInt
			}
			largest = max(largest, n)
		}
	}
	return largest
}

// FuzzReadMatrixMarket checks the reader never panics on arbitrary
// input, that round-tripping accepted matrices is stable, and — the
// differential part — that it agrees with the Sscanf reader it
// replaced: (1) where both accept, every bit of the CSR is equal, so
// the content hash is; (2) it accepts nothing the old reader refused,
// lines beyond bufio.Scanner's 1 MiB token limit aside; (3) where both
// refuse by line, the new reader never names a later line, and names an
// earlier one only for a syntax or size-limit error — a line the
// narrower grammar refuses and Sscanf read on from.
func FuzzReadMatrixMarket(f *testing.F) {
	var buf bytes.Buffer
	_ = WriteMatrixMarket(&buf, Laplace1D(5))
	f.Add(buf.String())
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 3.5\n")
	f.Add("%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n2 1 -1\n")
	f.Add("")
	f.Add("%%MatrixMarket matrix coordinate real general\n-1 0 0\n")
	f.Add(oomDocument)
	f.Add("%%MatrixMarket matrix coordinate real general\r\n% c\r\n\r\n3 3 4 x\r\n+1 1 1e-3\r\n1 1 -0\r\n 3\t2 .5 junk\r\n3 1 1E+3\r\ntrailer\r\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 3.0abc\n9 9 1\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 0x1p-2\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 1\n1-2 3\n")
	f.Fuzz(func(t *testing.T, src string) {
		dim := largestDim(src)
		if dim > fuzzMaxDim && dim <= MaxGeneratorN {
			t.Skip("an acceptable size line too large to build per execution")
		}
		m, err := ParseMatrixMarket(src)
		if err == nil {
			if err := m.Validate(); err != nil {
				t.Fatalf("accepted matrix fails validation: %v", err)
			}
			var out bytes.Buffer
			if err := WriteMatrixMarket(&out, m); err != nil {
				t.Fatalf("write-back failed: %v", err)
			}
			back, err := ReadMatrixMarket(&out)
			if err != nil {
				t.Fatalf("round trip failed: %v", err)
			}
			if back.NNZ() != m.NNZ() || back.NRows != m.NRows {
				t.Fatalf("round trip changed shape")
			}
		}
		if dim > MaxGeneratorN {
			// The old reader allocates whatever the size line says — the
			// out-of-memory kill the dimension limit fixes.
			if err == nil {
				t.Fatalf("accepted a dimension above the limit: %q", src)
			}
			return
		}
		old, oldErr := readMatrixMarketSscanf(strings.NewReader(src))
		switch {
		case err == nil && oldErr == nil:
			if !sameCSRBits(m, old) {
				t.Fatalf("readers disagree on %q:\nnew %+v\nold %+v", src, m, old)
			}
			if ContentHash(m) != ContentHash(old) {
				t.Fatalf("equal CSR bits, different content hash")
			}
		case err == nil:
			if oldErr != bufio.ErrTooLong {
				t.Fatalf("new reader accepts %q, old reader: %v", src, oldErr)
			}
		case oldErr != nil:
			n, o := errLineNo(err), errLineNo(oldErr)
			if n == 0 || o == 0 {
				return
			}
			narrowed := strings.Contains(err.Error(), ": bad ") || strings.Contains(err.Error(), "limit")
			if n > o || (n < o && !narrowed) {
				t.Fatalf("on %q the new reader says %q, the old one %q", src, err, oldErr)
			}
		}
	})
}

// sameCSRBits compares shape, structure and the IEEE-754 bits of every
// value (-0 and +0 differ here, unlike in ContentHash).
func sameCSRBits(a, b *CSR) bool {
	if a.NRows != b.NRows || a.NCols != b.NCols || len(a.RowPtr) != len(b.RowPtr) || len(a.Col) != len(b.Col) || len(a.Val) != len(b.Val) {
		return false
	}
	for i := range a.RowPtr {
		if a.RowPtr[i] != b.RowPtr[i] {
			return false
		}
	}
	for k := range a.Col {
		if a.Col[k] != b.Col[k] || math.Float64bits(a.Val[k]) != math.Float64bits(b.Val[k]) {
			return false
		}
	}
	return true
}

// shuffledDocument writes m's entries in a seeded random order, each
// one twice as two halves, so every row needs both the sort and the
// duplicate accumulation.
func shuffledDocument(m *CSR, seed int64) string {
	var lines []string
	for i := 0; i < m.NRows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			half := strconv.FormatFloat(m.Val[k]/2, 'g', 17, 64)
			entry := fmt.Sprintf("%d %d %s\n", i+1, m.Col[k]+1, half)
			lines = append(lines, entry, entry)
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(lines), func(a, b int) { lines[a], lines[b] = lines[b], lines[a] })
	return fmt.Sprintf("%%%%MatrixMarket matrix coordinate real general\n%d %d %d\n", m.NRows, m.NCols, len(lines)) + strings.Join(lines, "")
}

// TestMatrixMarketMatchesSscanfReader: on writer-produced documents
// (every row ascending: the path that skips the sort), on column-major
// ones and on shuffled ones with duplicates (the path that sorts and
// accumulates), the reader returns the old reader's CSR to the bit.
func TestMatrixMarketMatchesSscanfReader(t *testing.T) {
	for _, spec := range []string{"laplace2d:9:7", "randspd:60:5:3", "powerlaw:80:9", "banded:50:3"} {
		A, err := GeneratorByName(spec)
		if err != nil {
			t.Fatal(err)
		}
		var rowMajor, colMajor bytes.Buffer
		if err := WriteMatrixMarket(&rowMajor, A); err != nil {
			t.Fatal(err)
		}
		if err := WriteMatrixMarket(&colMajor, A.Transpose()); err != nil {
			t.Fatal(err)
		}
		// Swapping the two index columns of the transpose's file gives A
		// listed column by column.
		swapped := regexp.MustCompile(`(?m)^(\d+) (\d+) (\S+)$`).ReplaceAllString(colMajor.String(), "$2 $1 $3")
		for name, doc := range map[string]string{
			"row-major": rowMajor.String(), "column-major": swapped,
			"shuffled": shuffledDocument(A, 5),
		} {
			got, err := ParseMatrixMarket(doc)
			if err != nil {
				t.Fatalf("%s %s: %v", spec, name, err)
			}
			want, err := readMatrixMarketSscanf(strings.NewReader(doc))
			if err != nil {
				t.Fatalf("%s %s: reference reader: %v", spec, name, err)
			}
			if !sameCSRBits(got, want) {
				t.Errorf("%s %s: CSR differs from the Sscanf reader's", spec, name)
			}
			if name != "shuffled" && !sameCSRBits(got, A) {
				t.Errorf("%s %s: CSR differs from the matrix written", spec, name)
			}
		}
	}
}

// writeMatrixMarketFprintf is the writer WriteMatrixMarket replaced:
// one Fprintf per entry.
func writeMatrixMarketFprintf(w io.Writer, m *CSR) {
	fmt.Fprintf(w, "%%%%MatrixMarket matrix coordinate real general\n")
	fmt.Fprintf(w, "%d %d %d\n", m.NRows, m.NCols, m.NNZ())
	for i := 0; i < m.NRows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			fmt.Fprintf(w, "%d %d %.17g\n", i+1, m.Col[k]+1, m.Val[k])
		}
	}
}

// TestWriteMatrixMarketBytes: the strconv writer's output is the
// Fprintf writer's, byte for byte, over every generator and over the
// values whose formatting has corners — the benchmark's uploads are
// this function's output, so its bytes are load-bearing.
func TestWriteMatrixMarketBytes(t *testing.T) {
	var mats []*CSR
	for _, spec := range []string{
		"laplace1d:17", "laplace2d:6:5", "laplace3d:3:4:3", "banded:30:3", "randspd:40:6:11",
		"nascg:S:7", "powerlaw:70:3", "powerlawc:64:3",
	} {
		A, err := GeneratorByName(spec)
		if err != nil {
			t.Fatal(err)
		}
		mats = append(mats, A)
	}
	corners := NewCOO(4, 40)
	for j, v := range []float64{
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.2250738585072009e-308, 1e300, -1e300, 1e-300, -1e-300,
		math.Copysign(0, -1), 0, math.MaxFloat64, 1.0 / 3, -2.0 / 3, 1e21, 1e20, 123456789012345678, 1e-5, 1e-4, 0.1, 100, 1 << 53,
	} {
		corners.Add(j%4, j, v)
	}
	mats = append(mats, corners.ToCSR())
	for k, A := range mats {
		var got, want bytes.Buffer
		if err := WriteMatrixMarket(&got, A); err != nil {
			t.Fatal(err)
		}
		writeMatrixMarketFprintf(&want, A)
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("matrix %d: output differs from the Fprintf writer's", k)
		}
	}
}

// TestParseMatrixMarketAllocsConstant: a parse allocates the document's
// arrays, not something per line or per field — the count is the same
// for 100 entries and for 10 000.
func TestParseMatrixMarketAllocsConstant(t *testing.T) {
	allocs := func(spec string) float64 {
		doc := generatedDocument(t, spec)
		return testing.AllocsPerRun(10, func() {
			if _, err := ParseMatrixMarket(doc); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs("randspd:20:5:1"), allocs("randspd:1200:8:1")
	if small != large || large > 20 {
		t.Errorf("allocations per parse: %.0f at 100 entries, %.0f at 10 000; want equal and small", small, large)
	}
}

// generatedDocument is the Matrix Market text of a generator's matrix.
func generatedDocument(tb testing.TB, spec string) string {
	tb.Helper()
	A, err := GeneratorByName(spec)
	if err != nil {
		tb.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteMatrixMarket(&sb, A); err != nil {
		tb.Fatal(err)
	}
	return sb.String()
}

// BenchmarkReadMatrixMarket parses the two document shapes the
// benchmark sends: serve_cold's upload (33-byte lines, 17-digit values)
// and the sparse layer's Laplacian (12-byte lines, one-digit values).
func BenchmarkReadMatrixMarket(b *testing.B) {
	for _, spec := range []string{"randspd:320:8:1", "laplace2d:128:128"} {
		doc := generatedDocument(b, spec)
		b.Run(spec, func(b *testing.B) {
			b.SetBytes(int64(len(doc)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ReadMatrixMarket(strings.NewReader(doc)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkToCSR converts serve_cold's matrix from triplets in file
// order (every row ascending, no sort) and in shuffled order (every row
// sorted).
func BenchmarkToCSR(b *testing.B) {
	A, err := GeneratorByName("randspd:320:8:1")
	if err != nil {
		b.Fatal(err)
	}
	sorted := NewCOO(A.NRows, A.NCols)
	for i := 0; i < A.NRows; i++ {
		for k := A.RowPtr[i]; k < A.RowPtr[i+1]; k++ {
			sorted.Add(i, A.Col[k], A.Val[k])
		}
	}
	shuffled := &COO{NRows: A.NRows, NCols: A.NCols, I: append([]int(nil), sorted.I...), J: append([]int(nil), sorted.J...), V: append([]float64(nil), sorted.V...)}
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled.V), func(a, c int) {
		shuffled.I[a], shuffled.I[c] = shuffled.I[c], shuffled.I[a]
		shuffled.J[a], shuffled.J[c] = shuffled.J[c], shuffled.J[a]
		shuffled.V[a], shuffled.V[c] = shuffled.V[c], shuffled.V[a]
	})
	for _, c := range []struct {
		name string
		coo  *COO
	}{{"sorted", sorted}, {"shuffled", shuffled}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if c.coo.ToCSR().NNZ() != A.NNZ() {
					b.Fatal("entries lost")
				}
			}
		})
	}
}

// TestMatrixMarketRejectsNonFinite: NaN and ±Inf entries are refused
// with the offending line number.
func TestMatrixMarketRejectsNonFinite(t *testing.T) {
	cases := map[string]string{
		"nan":  "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 NaN\n",
		"inf":  "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 Inf\n",
		"-inf": "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n2 2 -Inf\n",
	}
	wantLine := map[string]string{"nan": "line 3", "inf": "line 3", "-inf": "line 4"}
	for name, in := range cases {
		_, err := ReadMatrixMarket(strings.NewReader(in))
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if !strings.Contains(err.Error(), "non-finite") || !strings.Contains(err.Error(), wantLine[name]) {
			t.Errorf("%s: error %q lacks non-finite/%s", name, err, wantLine[name])
		}
	}
}

// TestMatrixMarketErrorLineNumbers: malformed and out-of-range entries
// name the line they sit on, comments and blanks included in the count.
func TestMatrixMarketErrorLineNumbers(t *testing.T) {
	in := "%%MatrixMarket matrix coordinate real general\n" +
		"% comment\n" +
		"\n" +
		"2 2 2\n" +
		"1 1 1.0\n" +
		"9 9 1.0\n" // line 6, out of range
	_, err := ReadMatrixMarket(strings.NewReader(in))
	if err == nil || !strings.Contains(err.Error(), "line 6") {
		t.Errorf("out-of-range error lacks line 6: %v", err)
	}

	in2 := "%%MatrixMarket matrix coordinate real general\n" +
		"2 2 1\n" +
		"1 x 1.0\n" // line 3, malformed
	_, err = ReadMatrixMarket(strings.NewReader(in2))
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Errorf("malformed-entry error lacks line 3: %v", err)
	}

	_, err = ReadMatrixMarket(strings.NewReader("%%MatrixMarket matrix coordinate real general\n2 2 -1\n"))
	if err == nil || !strings.Contains(err.Error(), "negative entry count") {
		t.Errorf("negative nnz not rejected: %v", err)
	}
}

// TestMatrixMarketDuplicatesAccumulate: repeated coordinates sum, the
// Matrix Market convention for assembled finite-element matrices.
func TestMatrixMarketDuplicatesAccumulate(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real general
2 2 4
1 1 1.5
1 1 2.5
2 2 1.0
1 1 -1.0
`
	m, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if got := m.At(0, 0); got != 3.0 {
		t.Errorf("duplicates not summed: At(0,0) = %g, want 3", got)
	}
	if m.NNZ() != 2 {
		t.Errorf("NNZ = %d, want 2 after accumulation", m.NNZ())
	}
}
