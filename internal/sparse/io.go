package sparse

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// WriteMatrixMarket writes m in the Matrix Market coordinate format
// ("%%MatrixMarket matrix coordinate real general", 1-based indices),
// the lingua franca for the application matrices the paper's
// experiments draw on. Values are written with 17 significant digits
// ("%.17g"), which round-trips every float64.
func WriteMatrixMarket(w io.Writer, m *CSR) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate real general\n%d %d %d\n", m.NRows, m.NCols, m.NNZ()); err != nil {
		return err
	}
	line := make([]byte, 0, 64)
	for i := 0; i < m.NRows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			line = strconv.AppendInt(line[:0], int64(i+1), 10)
			line = append(line, ' ')
			line = strconv.AppendInt(line, int64(m.Col[k]+1), 10)
			line = append(line, ' ')
			line = strconv.AppendFloat(line, m.Val[k], 'g', 17, 64)
			line = append(line, '\n')
			if _, err := bw.Write(line); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadMatrixMarket reads r to its end and parses it with
// ParseMatrixMarket.
func ReadMatrixMarket(r io.Reader) (*CSR, error) {
	var doc strings.Builder
	if _, err := io.Copy(&doc, r); err != nil {
		return nil, fmt.Errorf("sparse: read matrix market stream: %w", err)
	}
	return ParseMatrixMarket(doc.String())
}

// minEntryBytes is the shortest entry line there is, "1 1 1\n"; it
// bounds how many entries the rest of a document can hold.
const minEntryBytes = 6

// ParseMatrixMarket parses a Matrix Market coordinate real document
// (general or symmetric; symmetric entries are mirrored) in one pass
// over its bytes. The grammar:
//
//   - Lines end at '\n'. Blanks are ' ', '\t' and '\r' (so CRLF files
//     read); leading blanks are skipped, and a line that is empty or
//     whose first field starts with '%' is a comment wherever it stands.
//   - Line 1 is "%%MatrixMarket <object> coordinate real <symmetry>",
//     case-insensitive; symmetry "symmetric" mirrors, anything else is
//     general.
//   - The size line is "<rows> <cols> <nnz>", the nnz entry lines
//     "<row> <col> <value>" with 1-based indices. Fields are separated
//     by one or more blanks; fields past the third are ignored, and so
//     is everything after the nnz-th entry.
//   - An integer is an optional sign and decimal digits; a value is a
//     decimal floating-point number ("-0", ".5", "1e-3", "1E+3").
//     Nothing may be glued to a number: "3.0abc", "1-2", hex floats,
//     'p' exponents and '_' separators are errors.
//
// Errors carry the 1-based line number of the offending line.
// Dimensions above MaxGeneratorN, non-finite values (NaN, ±Inf) and
// out-of-range indices are rejected; duplicate coordinates are
// accumulated (their values sum), which is the Matrix Market
// convention for assembled finite-element matrices. Memory is bounded
// by the document: the size line reserves no more entries than the
// bytes after it can hold.
func ParseMatrixMarket(doc string) (*CSR, error) {
	lines := lineScanner{doc: doc}
	header, ok := lines.next()
	if !ok {
		return nil, errors.New("sparse: empty matrix market stream")
	}
	if !strings.HasPrefix(header, "%%MatrixMarket") {
		return nil, fmt.Errorf("sparse: line %d: bad header %q", lines.no, header)
	}
	banner := strings.Fields(strings.ToLower(header))
	if len(banner) < 5 || banner[2] != "coordinate" || banner[3] != "real" {
		return nil, fmt.Errorf("sparse: line %d: unsupported matrix market type %q", lines.no, header)
	}
	symmetric := banner[4] == "symmetric"

	var nrows, ncols, nnz int
	for {
		line, ok := lines.next()
		if !ok {
			break
		}
		fr, fc, fn := firstFields(line)
		if isComment(fr) {
			continue
		}
		var ok1, ok2, ok3 bool
		nrows, ok1 = parseInt(fr)
		ncols, ok2 = parseInt(fc)
		nnz, ok3 = parseInt(fn)
		if !ok1 || !ok2 || !ok3 {
			return nil, fmt.Errorf("sparse: line %d: bad size line %q: want <rows> <cols> <entries>", lines.no, trimBlanks(line))
		}
		break
	}
	if nrows <= 0 || ncols <= 0 {
		return nil, fmt.Errorf("sparse: line %d: bad dimensions %dx%d", lines.no, nrows, ncols)
	}
	if nrows > MaxGeneratorN || ncols > MaxGeneratorN {
		return nil, fmt.Errorf("sparse: line %d: dimensions %dx%d above the %d limit", lines.no, nrows, ncols, MaxGeneratorN)
	}
	if nnz < 0 {
		return nil, fmt.Errorf("sparse: line %d: negative entry count %d", lines.no, nnz)
	}

	reserve := min(nnz, (len(doc)-lines.pos+1)/minEntryBytes)
	if symmetric {
		reserve *= 2
	}
	coo := &COO{
		NRows: nrows, NCols: ncols,
		I: make([]int, 0, reserve), J: make([]int, 0, reserve), V: make([]float64, 0, reserve),
	}
	read := 0
	for read < nnz {
		line, ok := lines.next()
		if !ok {
			break
		}
		fi, fj, fv := firstFields(line)
		if isComment(fi) {
			continue
		}
		i, ok1 := parseInt(fi)
		j, ok2 := parseInt(fj)
		v, ok3 := parseValue(fv)
		if !ok1 || !ok2 || !ok3 {
			return nil, fmt.Errorf("sparse: line %d: bad entry %q: want <row> <col> <value>", lines.no, trimBlanks(line))
		}
		if i < 1 || i > nrows || j < 1 || j > ncols {
			return nil, fmt.Errorf("sparse: line %d: entry (%d,%d) outside %dx%d", lines.no, i, j, nrows, ncols)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("sparse: line %d: non-finite value %g at (%d,%d)", lines.no, v, i, j)
		}
		coo.I, coo.J, coo.V = append(coo.I, i-1), append(coo.J, j-1), append(coo.V, v)
		if symmetric && i != j {
			coo.I, coo.J, coo.V = append(coo.I, j-1), append(coo.J, i-1), append(coo.V, v)
		}
		read++
	}
	if read < nnz {
		return nil, fmt.Errorf("sparse: expected %d entries, got %d", nnz, read)
	}
	return coo.ToCSR(), nil
}

// lineScanner yields the lines of doc without their '\n' and counts
// them; a last line with no '\n' is a line, the emptiness after a final
// '\n' is not.
type lineScanner struct {
	doc string
	pos int // start of the next line
	no  int // 1-based number of the line last returned
}

func (s *lineScanner) next() (string, bool) {
	if s.pos >= len(s.doc) {
		return "", false
	}
	line := s.doc[s.pos:]
	if end := strings.IndexByte(line, '\n'); end >= 0 {
		line = line[:end]
		s.pos++
	}
	s.pos += len(line)
	s.no++
	return line, true
}

func isBlank(c byte) bool { return c == ' ' || c == '\t' || c == '\r' }

// nextField returns the first blank-delimited field of s and what
// follows it; the field is empty when s holds only blanks.
func nextField(s string) (field, rest string) {
	i := 0
	for i < len(s) && isBlank(s[i]) {
		i++
	}
	j := i
	for j < len(s) && !isBlank(s[j]) {
		j++
	}
	return s[i:j], s[j:]
}

// firstFields returns the first three fields of line, empty where it
// has fewer.
func firstFields(line string) (a, b, c string) {
	a, line = nextField(line)
	b, line = nextField(line)
	c, _ = nextField(line)
	return a, b, c
}

// isComment reports whether a line whose first field is f carries no
// data: it is blank, or a '%' comment.
func isComment(f string) bool { return f == "" || f[0] == '%' }

func trimBlanks(s string) string { return strings.Trim(s, " \t\r") }

// parseInt parses an optionally signed decimal integer that is the
// whole of f.
func parseInt(f string) (int, bool) {
	neg := false
	if f != "" && (f[0] == '+' || f[0] == '-') {
		neg = f[0] == '-'
		f = f[1:]
	}
	if f == "" {
		return 0, false
	}
	n := 0
	for k := 0; k < len(f); k++ {
		d := int(f[k]) - '0'
		if d < 0 || d > 9 || n > (math.MaxInt-d)/10 {
			return 0, false
		}
		n = n*10 + d
	}
	if neg {
		n = -n
	}
	return n, true
}

// parseValue parses a decimal floating-point number that is the whole
// of f. strconv.ParseFloat also reads Go's '_' digit separators and
// hexadecimal floats with their 'p' exponents, which Matrix Market has
// none of, so a field with a '_' or an 'x' is refused first. "inf" and
// "nan" parse; the caller rejects them by value.
func parseValue(f string) (float64, bool) {
	if strings.ContainsAny(f, "xX_") {
		return 0, false
	}
	v, err := strconv.ParseFloat(f, 64)
	return v, err == nil
}
