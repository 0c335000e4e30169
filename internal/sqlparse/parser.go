package sqlparse

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/query"
	"repro/internal/relation"
)

// parser parses statements against a fixed schema, which resolves
// attribute names to positions. It holds one token of lookahead, which
// it scans in place as it goes (advance) and tests by its code.
type parser struct {
	schema *relation.Schema
	src    string
	tok    token // the current token
	off    int   // where the token after it starts, blanks aside
	// lexErr is the first error the scanner met. From then on the parser
	// sees the end of the input, and the parse returns this error whatever
	// the grammar made of that.
	lexErr error
	depth  int // open parentheses and unary minuses around the cursor

	// The nodes of the statements parsed come from slabs (see slab).
	updates slab[query.Update]
	sets    slab[query.SetClause]
	vals    slab[float64]
	preds   slab[query.Pred]
	terms   slab[query.Term]
}

// slab hands out the elements of chunks it allocates, each a quarter of
// what it has handed out (at most 64 elements, at least one take): a
// one-statement parse allocates what it keeps, a log one chunk per 64
// nodes of a kind. A chunk lives while any node from it does; slices
// taken are capped, so an append to one cannot reach the next.
type slab[T any] struct {
	free  []T
	taken int
}

func (s *slab[T]) take(n int) []T {
	if n > len(s.free) {
		s.free = make([]T, max(min(s.taken/4, 64), n))
	}
	s.taken += n
	out := s.free[:n:n]
	s.free = s.free[n:]
	return out
}

// maxNesting bounds how deeply parentheses and unary minuses may nest.
// The parser recurses once per level, so without a bound a statement of
// a few million "- " would exhaust the goroutine stack, which no recover
// catches; past the bound the statement is an error like any other.
const maxNesting = 1000

// nest enters one more level of nesting, or reports the statement too
// deep; each successful call is paired with a p.depth-- on the way out.
func (p *parser) nest() error {
	if p.depth >= maxNesting {
		return p.errf("nesting deeper than %d", maxNesting)
	}
	p.depth++
	return nil
}

// Parse parses a single statement.
func Parse(schema *relation.Schema, sql string) (query.Query, error) {
	p := newParser(schema, sql)
	q, err := p.statement()
	if err == nil {
		p.accept(';')
		if p.tok.kind != tokEOF {
			err = p.errf("trailing input after statement")
		}
	}
	if err = p.scanned(err); err != nil {
		return nil, err
	}
	return q, nil
}

// ParseLog parses a sequence of statements separated by semicolons or
// newlines into a query log. The log is allocated once, at the number of
// semicolons plus one: a log that separates its statements with them
// (every log this module prints) never regrows it.
func ParseLog(schema *relation.Schema, sql string) ([]query.Query, error) {
	p := newParser(schema, sql)
	log := make([]query.Query, 0, strings.Count(sql, ";")+1)
	for p.tok.kind != tokEOF {
		if p.accept(';') {
			continue
		}
		q, err := p.statement()
		if err != nil {
			return nil, p.scanned(fmt.Errorf("statement %d: %w", len(log)+1, err))
		}
		log = append(log, q)
	}
	if err := p.scanned(nil); err != nil {
		return nil, err
	}
	return log, nil
}

// scanned returns the error of a parse that ended with err: a character
// outside the supported subset anywhere in the input is reported before
// anything the grammar objects to, so what is left of a rejected input
// is scanned for one.
func (p *parser) scanned(err error) error {
	for err != nil && p.tok.kind != tokEOF {
		p.advance()
	}
	if p.lexErr != nil {
		return p.lexErr
	}
	return err
}

// MustParse is Parse that panics on error, for statically known inputs.
func MustParse(schema *relation.Schema, sql string) query.Query {
	q, err := Parse(schema, sql)
	if err != nil {
		panic(err)
	}
	return q
}

func newParser(schema *relation.Schema, sql string) *parser {
	p := &parser{schema: schema, src: sql}
	p.advance()
	return p
}

// accept moves past the current token if it is the symbol or keyword
// of code c, and reports whether it was.
func (p *parser) accept(c byte) bool {
	if p.tok.code == c {
		p.advance()
		return true
	}
	return false
}

// expect moves past the symbol or keyword of code c, or fails.
func (p *parser) expect(c byte) error {
	if p.accept(c) {
		return nil
	}
	want := string(rune(c))
	if c >= kwBase {
		want = kwText[c-kwBase]
	}
	return p.errf("expected %q, found %q", want, p.text())
}

// ident moves past an identifier and returns it, or fails.
func (p *parser) ident() (string, error) {
	if p.tok.kind != tokIdent {
		return "", p.errf("expected %q, found %q", "", p.text())
	}
	name := p.text()
	p.advance()
	return name, nil
}

func (p *parser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("sqlparse: %s (at offset %d)", fmt.Sprintf(format, args...), p.tok.pos)
}

// statement := update | insert | delete
func (p *parser) statement() (query.Query, error) {
	switch {
	case p.accept(kwUPDATE):
		return p.update()
	case p.accept(kwINSERT):
		return p.insert()
	case p.accept(kwDELETE):
		return p.delete()
	default:
		return nil, p.errf("expected UPDATE, INSERT or DELETE, found %q", p.text())
	}
}

// resolveAttr resolves an attribute name, preferring an exact match and
// falling back to case-insensitive comparison (SQL identifiers are
// conventionally case-insensitive).
func (p *parser) resolveAttr(name string) (int, bool) {
	if i, ok := p.schema.Index(name); ok {
		return i, true
	}
	for i := 0; i < p.schema.Width(); i++ {
		if strings.EqualFold(p.schema.Attr(i), name) {
			return i, true
		}
	}
	return 0, false
}

// CheckSchema reports whether statements over s print as SQL that
// parses back against s. query.Query.String prints names bare, so the
// table name and every attribute name must each lex as one identifier
// that is not a keyword: "in" or "net pay" would not parse, and "2024"
// would read back as a number.
func CheckSchema(s *relation.Schema) error {
	for _, name := range append([]string{s.Name()}, s.Attrs()...) {
		p := parser{src: name}
		p.advance()
		if p.lexErr != nil || p.tok.kind != tokIdent || p.tok.pos != 0 || p.off != len(name) {
			return fmt.Errorf("sqlparse: name %q is not a plain SQL identifier", name)
		}
	}
	return nil
}

func (p *parser) tableName() error {
	name, err := p.ident()
	if err != nil {
		return err
	}
	if name != p.schema.Name() && !strings.EqualFold(name, p.schema.Name()) {
		return fmt.Errorf("sqlparse: unknown table %q (schema is %q)", name, p.schema.Name())
	}
	return nil
}

func (p *parser) update() (query.Query, error) {
	if err := p.tableName(); err != nil {
		return nil, err
	}
	if err := p.expect(kwSET); err != nil {
		return nil, err
	}
	// The clauses gather on the stack and go to the Update in one slice
	// of their number.
	var buf [4]query.SetClause
	set := buf[:0]
	for {
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		attr, ok := p.resolveAttr(name)
		if !ok {
			return nil, fmt.Errorf("sqlparse: unknown attribute %q", name)
		}
		if err := p.expect('='); err != nil {
			return nil, err
		}
		expr, err := p.linExpr()
		if err != nil {
			return nil, err
		}
		set = append(set, query.SetClause{Attr: attr, Expr: expr})
		if !p.accept(',') {
			break
		}
	}
	cond, err := p.optionalWhere()
	if err != nil {
		return nil, err
	}
	u := &p.updates.take(1)[0]
	u.Set, u.Where = append(p.sets.take(len(set))[:0], set...), cond
	return u, nil
}

func (p *parser) insert() (query.Query, error) {
	if err := p.expect(kwINTO); err != nil {
		return nil, err
	}
	if err := p.tableName(); err != nil {
		return nil, err
	}
	if err := p.expect(kwVALUES); err != nil {
		return nil, err
	}
	if err := p.expect('('); err != nil {
		return nil, err
	}
	// The values go straight into the Insert, in a slice of the schema's
	// width: a well-formed statement fills it without regrowing it.
	vals := p.vals.take(p.schema.Width())[:0]
	for {
		e, err := p.linExpr()
		if err != nil {
			return nil, err
		}
		if !e.IsConst() {
			return nil, p.errf("INSERT values must be constants")
		}
		vals = append(vals, e.Const)
		if !p.accept(',') {
			break
		}
	}
	if err := p.expect(')'); err != nil {
		return nil, err
	}
	if len(vals) != p.schema.Width() {
		return nil, fmt.Errorf("sqlparse: INSERT arity %d != schema width %d",
			len(vals), p.schema.Width())
	}
	return &query.Insert{Values: vals}, nil
}

func (p *parser) delete() (query.Query, error) {
	if err := p.expect(kwFROM); err != nil {
		return nil, err
	}
	if err := p.tableName(); err != nil {
		return nil, err
	}
	cond, err := p.optionalWhere()
	if err != nil {
		return nil, err
	}
	return query.NewDelete(cond), nil
}

func (p *parser) optionalWhere() (query.Cond, error) {
	if !p.accept(kwWHERE) {
		return query.True{}, nil
	}
	return p.orCond()
}

// orCond := andCond (OR andCond)*
func (p *parser) orCond() (query.Cond, error) { return p.list(kwOR, p.andCond) }

// andCond := condUnit (AND condUnit)*
func (p *parser) andCond() (query.Cond, error) { return p.list(kwAND, p.condUnit) }

// list parses item (sep item)*, sep OR or AND, into the one item or the
// disjunction or conjunction of them all.
func (p *parser) list(sep byte, item func() (query.Cond, error)) (query.Cond, error) {
	var buf [4]query.Cond
	kids := buf[:0]
	for {
		k, err := item()
		if err != nil {
			return nil, err
		}
		if kids = append(kids, k); !p.accept(sep) {
			break
		}
	}
	switch {
	case len(kids) == 1:
		return kids[0], nil
	case sep == kwOR:
		return query.NewOr(slices.Clone(kids)...), nil
	}
	return query.NewAnd(slices.Clone(kids)...), nil
}

// condUnit := TRUE | FALSE | '(' orCond ')' | predicate
// Parenthesized conditions are disambiguated from parenthesized
// arithmetic by lookahead: after the ')' a comparison operator or
// BETWEEN/IN means the parens were part of an expression.
func (p *parser) condUnit() (query.Cond, error) {
	if p.accept(kwTRUE) {
		return query.True{}, nil
	}
	if p.accept(kwFALSE) {
		return query.NewOr(), nil
	}
	if p.tok.code == '(' {
		if err := p.nest(); err != nil {
			return nil, err
		}
		tok, off := p.tok, p.off
		p.advance()
		cond, err := p.orCond()
		if err == nil {
			err = p.expect(')')
		}
		p.depth--
		if err == nil {
			return cond, nil
		}
		p.tok, p.off = tok, off // reparse as arithmetic predicate
	}
	return p.predicate()
}

// predicate := expr cmp expr | expr BETWEEN expr AND expr | expr IN [lo, hi]
func (p *parser) predicate() (query.Cond, error) {
	lhs, err := p.linExpr()
	if err != nil {
		return nil, err
	}
	if in := p.accept(kwIN); in || p.accept(kwBETWEEN) {
		// "lhs BETWEEN lo AND hi", or the paper's "lhs in [lo, hi]": an
		// inclusive range.
		var lo, hi query.LinExpr
		sep := byte(kwAND)
		if in {
			sep, err = ',', p.expect('[')
		}
		if err == nil {
			lo, err = p.linExpr()
		}
		if err == nil {
			err = p.expect(sep)
		}
		if err == nil {
			hi, err = p.linExpr()
		}
		if err == nil && in {
			err = p.expect(']')
		}
		if err != nil {
			return nil, err
		}
		loP, err := p.normalizePred(lhs.Clone(), query.GE, lo)
		if err != nil {
			return nil, err
		}
		hiP, err := p.normalizePred(lhs, query.LE, hi)
		if err != nil {
			return nil, err
		}
		return query.NewAnd(loP, hiP), nil
	}
	var op query.CmpOp
	switch p.tok.code {
	case '=':
		op = query.EQ
	case symLE:
		op = query.LE
	case symGE:
		op = query.GE
	case '<':
		op = query.LT
	case '>':
		op = query.GT
	default:
		return nil, p.errf("expected comparison operator, found %q", p.text())
	}
	p.advance()
	rhs, err := p.linExpr()
	if err != nil {
		return nil, err
	}
	return p.normalizePred(lhs, op, rhs)
}

// normalizePred rewrites "lhs op rhs" into the canonical Pred form with
// all attribute terms on the left and a single constant on the right:
// (lhs-rhs without constant) op (rhsConst - lhsConst). The predicate
// keeps lhs's terms when rhs is a constant, so lhs must be the caller's
// own; every expression the parser builds is already normalized.
func (p *parser) normalizePred(lhs query.LinExpr, op query.CmpOp, rhs query.LinExpr) (query.Cond, error) {
	diff := lhs
	if rhs.IsConst() {
		diff.Const -= rhs.Const
	} else {
		diff = lhs.Add(rhs.Scale(-1))
	}
	if diff.IsConst() {
		return nil, fmt.Errorf("sqlparse: predicate references no attributes")
	}
	pr := &p.preds.take(1)[0]
	*pr = query.Pred{LHS: diff, Op: op, RHS: -diff.Const} // query.NewPred's form
	pr.LHS.Const = 0
	return pr, nil
}

// linExpr := mulTerm (('+'|'-') mulTerm)*
func (p *parser) linExpr() (query.LinExpr, error) {
	e, err := p.mulTerm()
	if err != nil {
		return query.LinExpr{}, err
	}
	for p.tok.code == '+' || p.tok.code == '-' {
		minus := p.tok.code == '-'
		p.advance()
		t, err := p.mulTerm()
		if err != nil {
			return query.LinExpr{}, err
		}
		if minus {
			t = t.Scale(-1)
		}
		e = e.Add(t)
	}
	return e, nil
}

// mulTerm := factor (('*'|'/') factor)* with the linearity restriction
// that at least one side of '*' is constant and divisors are constant.
func (p *parser) mulTerm() (query.LinExpr, error) {
	e, err := p.factor()
	if err != nil {
		return query.LinExpr{}, err
	}
	for {
		if p.accept('*') {
			f, err := p.factor()
			if err != nil {
				return query.LinExpr{}, err
			}
			switch {
			case f.IsConst():
				e = e.Scale(f.Const)
			case e.IsConst():
				e = f.Scale(e.Const)
			default:
				return query.LinExpr{}, p.errf("non-linear product of attributes")
			}
		} else if p.accept('/') {
			f, err := p.factor()
			if err != nil {
				return query.LinExpr{}, err
			}
			if !f.IsConst() || f.Const == 0 {
				return query.LinExpr{}, p.errf("division must be by a nonzero constant")
			}
			e = e.Scale(1 / f.Const)
		} else {
			return e, nil
		}
	}
}

// factor := NUMBER | IDENT | '(' linExpr ')' | '-' factor
func (p *parser) factor() (query.LinExpr, error) {
	switch t := &p.tok; {
	case t.kind == tokNumber:
		v := t.num
		p.advance()
		return query.ConstExpr(v), nil
	case t.kind == tokIdent:
		name := p.text()
		p.advance()
		attr, ok := p.resolveAttr(name)
		if !ok {
			return query.LinExpr{}, fmt.Errorf("sqlparse: unknown attribute %q", name)
		}
		ts := p.terms.take(1) // query.AttrExpr, its term from the slab
		ts[0] = query.Term{Attr: attr, Coef: 1}
		return query.LinExpr{Terms: ts}, nil
	case t.code == '(' || t.code == '-':
		if err := p.nest(); err != nil {
			return query.LinExpr{}, err
		}
		defer func() { p.depth-- }()
		minus := t.code == '-'
		p.advance()
		if minus {
			e, err := p.factor()
			if err != nil {
				return query.LinExpr{}, err
			}
			return e.Scale(-1), nil
		}
		e, err := p.linExpr()
		if err != nil {
			return query.LinExpr{}, err
		}
		if err := p.expect(')'); err != nil {
			return query.LinExpr{}, err
		}
		return e, nil
	default:
		return query.LinExpr{}, p.errf("expected expression, found %q", p.text())
	}
}
