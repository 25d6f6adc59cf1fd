package hpf

import "fmt"

// Expr is an integer block-size expression such as (n+NP-1)/NP.
type Expr interface {
	// Eval computes the expression under env (identifier -> value).
	Eval(env map[string]int) (int, error)
	// String renders the expression in source form.
	String() string
}

// NumExpr is an integer literal.
type NumExpr int

// Eval implements Expr.
func (n NumExpr) Eval(map[string]int) (int, error) { return int(n), nil }

// String implements Expr.
func (n NumExpr) String() string { return fmt.Sprintf("%d", int(n)) }

// IdentExpr is a named value (n, np, nz, ...), stored lowered as the
// lexer reads it. Lookup is one map access, so env's keys must be
// lowered too: Bind's are.
type IdentExpr string

// Eval implements Expr.
func (id IdentExpr) Eval(env map[string]int) (int, error) {
	if v, ok := env[string(id)]; ok {
		return v, nil
	}
	return 0, fmt.Errorf("hpf: undefined identifier %q", string(id))
}

// String implements Expr.
func (id IdentExpr) String() string { return string(id) }

// BinExpr is a binary arithmetic expression. Division is Fortran
// integer division (truncating).
type BinExpr struct {
	Op   byte // '+', '-', '*', '/'
	L, R Expr
}

// Eval implements Expr.
func (b BinExpr) Eval(env map[string]int) (int, error) {
	l, err := b.L.Eval(env)
	if err != nil {
		return 0, err
	}
	r, err := b.R.Eval(env)
	if err != nil {
		return 0, err
	}
	switch b.Op {
	case '+':
		return l + r, nil
	case '-':
		return l - r, nil
	case '*':
		return l * r, nil
	case '/':
		if r == 0 {
			return 0, fmt.Errorf("hpf: division by zero in %s", b.String())
		}
		return l / r, nil
	}
	return 0, fmt.Errorf("hpf: unknown operator %q", b.Op)
}

// String implements Expr.
func (b BinExpr) String() string {
	return fmt.Sprintf("(%s%c%s)", b.L.String(), b.Op, b.R.String())
}

// PatternKind is the distribution pattern of a DISTRIBUTE directive.
type PatternKind int

// Distribution pattern kinds, covering HPF-1 BLOCK/CYCLIC and the
// proposed ATOM-qualified forms.
const (
	PatBlock PatternKind = iota
	PatCyclic
)

func (k PatternKind) String() string {
	if k == PatBlock {
		return "BLOCK"
	}
	return "CYCLIC"
}

// Pattern is BLOCK, BLOCK(k), CYCLIC or CYCLIC(k), possibly ATOM-
// qualified (the proposed REDISTRIBUTE row(ATOM: BLOCK)).
type Pattern struct {
	Kind PatternKind
	Size Expr // nil when no explicit block size
	Atom bool // true for ATOM: patterns
}

// String renders the pattern in source form.
func (p Pattern) String() string {
	s := p.Kind.String()
	if p.Size != nil {
		s += "(" + exprSrc(p.Size) + ")"
	}
	if p.Atom {
		s = "ATOM: " + s
	}
	return s
}

// Directive is one parsed directive line.
type Directive interface {
	// Line returns the 1-based source line of the directive.
	Line() int
	directive()
}

type base struct{ line int }

func (b base) Line() int  { return b.line }
func (b base) directive() {}

// Processors is `PROCESSORS :: name(count)`.
type Processors struct {
	base
	Name  string
	Count Expr
}

// Distribute is `[DYNAMIC,] DISTRIBUTE array(pattern)`.
type Distribute struct {
	base
	Array   string
	Pat     Pattern
	Dynamic bool
}

// DimSpec is one dimension of an align spec: ":" (aligned), "*"
// (collapsed/replicated), "ATOM:i" (atom-aligned), or an index
// identifier.
type DimSpec struct {
	Kind string // ":", "*", "atom", "ident"
	Name string // identifier for "atom" and "ident" kinds
}

// String renders the dim spec.
func (d DimSpec) String() string {
	switch d.Kind {
	case "atom":
		return "ATOM:" + d.Name
	case "ident":
		return d.Name
	}
	return d.Kind
}

// Align is `[DYNAMIC,] ALIGN source(dims) WITH target(dims) [:: more]`.
// The bare-spec form `ALIGN (:) WITH p(:) :: q, r, x, b` leaves Source
// empty and lists the arrays in Extra.
type Align struct {
	base
	Source     string
	SourceDims []DimSpec
	Target     string
	TargetDims []DimSpec
	Extra      []string // arrays after ::
	Dynamic    bool
}

// Redistribute is `REDISTRIBUTE array(ATOM: pattern)` or
// `REDISTRIBUTE array USING partitioner`.
type Redistribute struct {
	base
	Array       string
	Pat         *Pattern // nil when USING form
	Partitioner string   // empty when pattern form
}

// Indivisable is the proposed atom declaration
// `INDIVISABLE data(ATOM:i) :: indir(i:i+1)`: atoms of array Data are
// delimited by consecutive entries of the indirection array Indir.
type Indivisable struct {
	base
	Data    string
	AtomVar string
	Indir   string
	LoExpr  Expr // section lower bound, normally the atom variable
	HiExpr  Expr // section upper bound, normally atomvar+1
}

// SparseMatrix is `SPARSE_MATRIX (FMT) :: name(ptr, idx, val)`.
type SparseMatrix struct {
	base
	Format string // "csr" or "csc"
	Name   string
	Arrays [3]string
}

// IterClause is one clause of an ITERATION directive.
type IterClause struct {
	Kind  string   // "private", "new"
	Array string   // private array name
	Size  Expr     // private array extent
	Merge string   // "+" for MERGE(+), "discard", "" for none
	Names []string // NEW variable list
}

// Iteration is the §5.1 loop directive
// `ITERATION j ON PROCESSOR(f(j)), PRIVATE(q(n)) WITH MERGE(+), NEW(..)`.
type Iteration struct {
	base
	Var     string
	MapExpr Expr // the f(j) mapping expression
	Clauses []IterClause
}

// Program is an ordered list of directives plus any Fortran source
// lines that were skipped (kept for tooling that wants them).
type Program struct {
	Directives []Directive
	Skipped    []string
}

// Find returns all directives of type T in program order.
func Find[T Directive](p *Program) []T {
	var out []T
	for _, d := range p.Directives {
		if t, ok := d.(T); ok {
			out = append(out, t)
		}
	}
	return out
}
