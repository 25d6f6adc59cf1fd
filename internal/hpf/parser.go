package hpf

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse reads directive source text (a whole file or fragment; plain
// Fortran lines are skipped) and returns the parsed program.
// Continuation lines ending in `&` are joined, as in Figure 2's
// ITERATION directive.
func Parse(src string) (*Program, error) {
	prog := &Program{}
	lines := strings.Split(src, "\n")
	i := 0
	for i < len(lines) {
		raw := lines[i]
		lineNo := i + 1
		_, body, ok := splitDirective(raw)
		if !ok {
			if strings.TrimSpace(raw) != "" {
				prog.Skipped = append(prog.Skipped, raw)
			}
			i++
			continue
		}
		// Join continuations.
		for strings.HasSuffix(strings.TrimSpace(body), "&") {
			body = strings.TrimSuffix(strings.TrimSpace(body), "&")
			i++
			if i >= len(lines) {
				return nil, fmt.Errorf("hpf: line %d: continuation at end of input", lineNo)
			}
			_, next, ok := splitDirective(lines[i])
			if !ok {
				return nil, fmt.Errorf("hpf: line %d: continuation must be a directive line", i+1)
			}
			body += " " + next
		}
		i++
		d, err := parseDirective(body, lineNo)
		if err != nil {
			return nil, err
		}
		prog.Directives = append(prog.Directives, d)
	}
	return prog, nil
}

type parser struct {
	toks []token
	pos  int
	line int
}

func parseDirective(body string, line int) (Directive, error) {
	toks, err := lex(body, line)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, line: line}
	d, err := p.directive()
	if err != nil {
		return nil, err
	}
	if p.peek().kind != tokEOF {
		return nil, p.errf("trailing input %q", p.peek().text)
	}
	return d, nil
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("hpf: line %d: %s", p.line, fmt.Sprintf(format, args...))
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) accept(k tokKind) bool {
	if p.peek().kind == k {
		p.pos++
		return true
	}
	return false
}

func (p *parser) acceptKeyword(kw string) bool {
	if p.peek().kind == tokIdent && p.peek().text == kw {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(k tokKind) (token, error) {
	t := p.peek()
	if t.kind != k {
		return t, p.errf("expected %s, found %q", k, t.text)
	}
	p.pos++
	return t, nil
}

func (p *parser) expectKeyword(kw string) error {
	t := p.peek()
	if t.kind != tokIdent || t.text != kw {
		return p.errf("expected %q, found %q", strings.ToUpper(kw), t.text)
	}
	p.pos++
	return nil
}

func (p *parser) ident() (string, error) {
	t, err := p.expect(tokIdent)
	return t.text, err
}

func (p *parser) directive() (Directive, error) {
	dynamic := false
	if p.acceptKeyword("dynamic") {
		dynamic = true
		if _, err := p.expect(tokComma); err != nil {
			return nil, err
		}
	}
	kw, err := p.ident()
	if err != nil {
		return nil, err
	}
	switch kw {
	case "processors":
		if dynamic {
			return nil, p.errf("DYNAMIC cannot qualify PROCESSORS")
		}
		return p.processors()
	case "distribute":
		return p.distribute(dynamic)
	case "align":
		return p.align(dynamic)
	case "redistribute":
		if dynamic {
			return nil, p.errf("DYNAMIC cannot qualify REDISTRIBUTE")
		}
		return p.redistribute()
	case "indivisable", "indivisible":
		return p.indivisable()
	case "sparse_matrix":
		return p.sparseMatrix()
	case "iteration":
		return p.iteration()
	}
	return nil, p.errf("unknown directive %q", strings.ToUpper(kw))
}

// processors parses `PROCESSORS :: name(count)`.
func (p *parser) processors() (Directive, error) {
	if _, err := p.expect(tokDoubleColon); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	count, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokRParen); err != nil {
		return nil, err
	}
	return Processors{base{p.line}, name, count}, nil
}

// pattern parses `[ATOM:] (BLOCK|CYCLIC) [(expr)]`.
func (p *parser) pattern() (Pattern, error) {
	var pat Pattern
	if p.acceptKeyword("atom") {
		if _, err := p.expect(tokColon); err != nil {
			return pat, err
		}
		pat.Atom = true
	}
	kw, err := p.ident()
	if err != nil {
		return pat, err
	}
	switch kw {
	case "block":
		pat.Kind = PatBlock
	case "cyclic":
		pat.Kind = PatCyclic
	default:
		return pat, p.errf("expected BLOCK or CYCLIC, found %q", strings.ToUpper(kw))
	}
	if p.accept(tokLParen) {
		pat.Size, err = p.expr()
		if err != nil {
			return pat, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return pat, err
		}
	}
	return pat, nil
}

// distribute parses `DISTRIBUTE array(pattern)`.
func (p *parser) distribute(dynamic bool) (Directive, error) {
	arr, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	pat, err := p.pattern()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokRParen); err != nil {
		return nil, err
	}
	return Distribute{base{p.line}, arr, pat, dynamic}, nil
}

// dims parses a parenthesised dim-spec list: (:), (:, *), (ATOM:i), (i).
func (p *parser) dims() ([]DimSpec, error) {
	if _, err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	var out []DimSpec
	for {
		switch {
		case p.accept(tokColon):
			out = append(out, DimSpec{Kind: ":"})
		case p.accept(tokStar):
			out = append(out, DimSpec{Kind: "*"})
		case p.peek().kind == tokIdent && p.peek().text == "atom":
			p.pos++
			if _, err := p.expect(tokColon); err != nil {
				return nil, err
			}
			name, err := p.ident()
			if err != nil {
				return nil, err
			}
			out = append(out, DimSpec{Kind: "atom", Name: name})
		case p.peek().kind == tokIdent:
			name, _ := p.ident()
			out = append(out, DimSpec{Kind: "ident", Name: name})
		default:
			return nil, p.errf("expected dimension spec, found %q", p.peek().text)
		}
		if !p.accept(tokComma) {
			break
		}
	}
	if _, err := p.expect(tokRParen); err != nil {
		return nil, err
	}
	return out, nil
}

// align parses both forms:
//
//	ALIGN (:) WITH p(:) :: q, r, x, b
//	ALIGN a(:) WITH col(:)
//	ALIGN A(:, *) WITH p(:)
//	ALIGN row(ATOM:i) WITH col(i)
func (p *parser) align(dynamic bool) (Directive, error) {
	a := Align{base: base{p.line}, Dynamic: dynamic}
	var err error
	if p.peek().kind == tokIdent {
		a.Source, err = p.ident()
		if err != nil {
			return nil, err
		}
	}
	a.SourceDims, err = p.dims()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("with"); err != nil {
		return nil, err
	}
	a.Target, err = p.ident()
	if err != nil {
		return nil, err
	}
	a.TargetDims, err = p.dims()
	if err != nil {
		return nil, err
	}
	if p.accept(tokDoubleColon) {
		for {
			name, err := p.ident()
			if err != nil {
				return nil, err
			}
			a.Extra = append(a.Extra, name)
			if !p.accept(tokComma) {
				break
			}
		}
	}
	if a.Source == "" && len(a.Extra) == 0 {
		return nil, p.errf("ALIGN with bare spec needs a :: array list")
	}
	return a, nil
}

// redistribute parses `REDISTRIBUTE arr(ATOM: pattern)` or
// `REDISTRIBUTE arr USING partitioner`.
func (p *parser) redistribute() (Directive, error) {
	arr, err := p.ident()
	if err != nil {
		return nil, err
	}
	if p.acceptKeyword("using") {
		part, err := p.ident()
		if err != nil {
			return nil, err
		}
		return Redistribute{base{p.line}, arr, nil, part}, nil
	}
	if _, err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	pat, err := p.pattern()
	if err != nil {
		return nil, err
	}
	if !pat.Atom {
		return nil, p.errf("REDISTRIBUTE pattern must be ATOM-qualified in the extension syntax")
	}
	if _, err := p.expect(tokRParen); err != nil {
		return nil, err
	}
	return Redistribute{base{p.line}, arr, &pat, ""}, nil
}

// indivisable parses `INDIVISABLE data(ATOM:i) :: indir(lo:hi)`.
func (p *parser) indivisable() (Directive, error) {
	data, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("atom"); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokColon); err != nil {
		return nil, err
	}
	atomVar, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokRParen); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokDoubleColon); err != nil {
		return nil, err
	}
	indir, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	lo, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokColon); err != nil {
		return nil, err
	}
	hi, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokRParen); err != nil {
		return nil, err
	}
	return Indivisable{base{p.line}, data, atomVar, indir, lo, hi}, nil
}

// sparseMatrix parses `SPARSE_MATRIX (FMT) :: name(a1, a2, a3)`.
func (p *parser) sparseMatrix() (Directive, error) {
	if _, err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	format, err := p.ident()
	if err != nil {
		return nil, err
	}
	if format != "csr" && format != "csc" {
		return nil, p.errf("SPARSE_MATRIX format must be CSR or CSC, found %q", strings.ToUpper(format))
	}
	if _, err := p.expect(tokRParen); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokDoubleColon); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	var arrays [3]string
	for i := 0; i < 3; i++ {
		arrays[i], err = p.ident()
		if err != nil {
			return nil, err
		}
		if i < 2 {
			if _, err := p.expect(tokComma); err != nil {
				return nil, err
			}
		}
	}
	if _, err := p.expect(tokRParen); err != nil {
		return nil, err
	}
	return SparseMatrix{base{p.line}, format, name, arrays}, nil
}

// iteration parses the §5.1 directive
// `ITERATION j ON PROCESSOR(expr) {, clause}`.
func (p *parser) iteration() (Directive, error) {
	v, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("on"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("processor"); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	mapExpr, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokRParen); err != nil {
		return nil, err
	}
	it := Iteration{base: base{p.line}, Var: v, MapExpr: mapExpr}
	for p.accept(tokComma) {
		cl, err := p.iterClause()
		if err != nil {
			return nil, err
		}
		it.Clauses = append(it.Clauses, cl)
	}
	return it, nil
}

func (p *parser) iterClause() (IterClause, error) {
	var cl IterClause
	kw, err := p.ident()
	if err != nil {
		return cl, err
	}
	switch kw {
	case "private":
		cl.Kind = "private"
		if _, err := p.expect(tokLParen); err != nil {
			return cl, err
		}
		cl.Array, err = p.ident()
		if err != nil {
			return cl, err
		}
		if _, err := p.expect(tokLParen); err != nil {
			return cl, err
		}
		cl.Size, err = p.expr()
		if err != nil {
			return cl, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return cl, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return cl, err
		}
		if p.acceptKeyword("with") {
			switch {
			case p.acceptKeyword("merge"):
				if _, err := p.expect(tokLParen); err != nil {
					return cl, err
				}
				if _, err := p.expect(tokPlus); err != nil {
					return cl, p.errf("only MERGE(+) is defined")
				}
				if _, err := p.expect(tokRParen); err != nil {
					return cl, err
				}
				cl.Merge = "+"
			case p.acceptKeyword("discard"):
				cl.Merge = "discard"
			default:
				return cl, p.errf("expected MERGE or DISCARD after WITH")
			}
		}
	case "new":
		cl.Kind = "new"
		if _, err := p.expect(tokLParen); err != nil {
			return cl, err
		}
		for {
			name, err := p.ident()
			if err != nil {
				return cl, err
			}
			cl.Names = append(cl.Names, name)
			if !p.accept(tokComma) {
				break
			}
		}
		if _, err := p.expect(tokRParen); err != nil {
			return cl, err
		}
	default:
		return cl, p.errf("unknown ITERATION clause %q", strings.ToUpper(kw))
	}
	return cl, nil
}

// expr parses additive expressions with standard precedence.
func (p *parser) expr() (Expr, error) {
	l, err := p.term()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept(tokPlus):
			r, err := p.term()
			if err != nil {
				return nil, err
			}
			l = BinExpr{'+', l, r}
		case p.accept(tokMinus):
			r, err := p.term()
			if err != nil {
				return nil, err
			}
			l = BinExpr{'-', l, r}
		default:
			return l, nil
		}
	}
}

func (p *parser) term() (Expr, error) {
	l, err := p.factor()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept(tokStar):
			r, err := p.factor()
			if err != nil {
				return nil, err
			}
			l = BinExpr{'*', l, r}
		case p.accept(tokSlash):
			r, err := p.factor()
			if err != nil {
				return nil, err
			}
			l = BinExpr{'/', l, r}
		default:
			return l, nil
		}
	}
}

func (p *parser) factor() (Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokNumber:
		p.pos++
		n, err := strconv.Atoi(t.text)
		if err != nil {
			return nil, p.errf("bad number %q", t.text)
		}
		return NumExpr(n), nil
	case tokIdent:
		p.pos++
		return IdentExpr(t.text), nil
	case tokLParen:
		p.pos++
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return e, nil
	case tokMinus:
		p.pos++
		e, err := p.factor()
		if err != nil {
			return nil, err
		}
		return BinExpr{'-', NumExpr(0), e}, nil
	}
	return nil, p.errf("expected expression, found %q", t.text)
}
