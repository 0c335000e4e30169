package sqlparse

import (
	"fmt"
	"strings"

	"repro/internal/query"
	"repro/internal/relation"
)

// parser parses statements against a fixed schema, which resolves
// attribute names to positions. It holds one token of lookahead and
// scans the source as it goes.
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
		p.accept(tokSymbol, ";")
		if !p.at(tokEOF, "") {
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
	for !p.at(tokEOF, "") {
		if p.accept(tokSymbol, ";") {
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
	for err != nil && !p.at(tokEOF, "") {
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

// advance makes the next token of the source the current one.
func (p *parser) advance() {
	if p.lexErr == nil {
		p.tok, p.off, p.lexErr = lex(p.src, p.off)
	}
	if p.lexErr != nil {
		p.tok = token{kind: tokEOF, pos: p.off}
	}
}

func (p *parser) cur() token  { return p.tok }
func (p *parser) next() token { t := p.tok; p.advance(); return t }

func (p *parser) at(kind tokKind, text string) bool {
	t := p.cur()
	return t.kind == kind && (text == "" || t.text == text)
}

func (p *parser) accept(kind tokKind, text string) bool {
	if p.at(kind, text) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expect(kind tokKind, text string) (token, error) {
	if p.at(kind, text) {
		return p.next(), nil
	}
	return token{}, p.errf("expected %q, found %q", text, p.cur().text)
}

func (p *parser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("sqlparse: %s (at offset %d)", fmt.Sprintf(format, args...), p.cur().pos)
}

// statement := update | insert | delete
func (p *parser) statement() (query.Query, error) {
	switch {
	case p.accept(tokKeyword, "UPDATE"):
		return p.update()
	case p.accept(tokKeyword, "INSERT"):
		return p.insert()
	case p.accept(tokKeyword, "DELETE"):
		return p.delete()
	default:
		return nil, p.errf("expected UPDATE, INSERT or DELETE, found %q", p.cur().text)
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
		t, end, err := lex(name, 0)
		if err != nil || t.kind != tokIdent || t.pos != 0 || end != len(name) {
			return fmt.Errorf("sqlparse: name %q is not a plain SQL identifier", name)
		}
	}
	return nil
}

func (p *parser) tableName() error {
	t, err := p.expect(tokIdent, "")
	if err != nil {
		return err
	}
	if !strings.EqualFold(t.text, p.schema.Name()) {
		return fmt.Errorf("sqlparse: unknown table %q (schema is %q)", t.text, p.schema.Name())
	}
	return nil
}

func (p *parser) update() (query.Query, error) {
	if err := p.tableName(); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokKeyword, "SET"); err != nil {
		return nil, err
	}
	var set []query.SetClause
	for {
		attrTok, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		attr, ok := p.resolveAttr(attrTok.text)
		if !ok {
			return nil, fmt.Errorf("sqlparse: unknown attribute %q", attrTok.text)
		}
		if _, err := p.expect(tokSymbol, "="); err != nil {
			return nil, err
		}
		expr, err := p.linExpr()
		if err != nil {
			return nil, err
		}
		set = append(set, query.SetClause{Attr: attr, Expr: expr})
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	cond, err := p.optionalWhere()
	if err != nil {
		return nil, err
	}
	return query.NewUpdate(set, cond), nil
}

func (p *parser) insert() (query.Query, error) {
	if _, err := p.expect(tokKeyword, "INTO"); err != nil {
		return nil, err
	}
	if err := p.tableName(); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokKeyword, "VALUES"); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokSymbol, "("); err != nil {
		return nil, err
	}
	// The values go straight into the Insert, in a slice of the schema's
	// width: a well-formed statement fills it without regrowing it.
	vals := make([]float64, 0, p.schema.Width())
	for {
		e, err := p.linExpr()
		if err != nil {
			return nil, err
		}
		if !e.IsConst() {
			return nil, p.errf("INSERT values must be constants")
		}
		vals = append(vals, e.Const)
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	if _, err := p.expect(tokSymbol, ")"); err != nil {
		return nil, err
	}
	if len(vals) != p.schema.Width() {
		return nil, fmt.Errorf("sqlparse: INSERT arity %d != schema width %d",
			len(vals), p.schema.Width())
	}
	return &query.Insert{Values: vals}, nil
}

func (p *parser) delete() (query.Query, error) {
	if _, err := p.expect(tokKeyword, "FROM"); err != nil {
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
	if !p.accept(tokKeyword, "WHERE") {
		return query.True{}, nil
	}
	return p.orCond()
}

// orCond := andCond (OR andCond)*
func (p *parser) orCond() (query.Cond, error) {
	first, err := p.andCond()
	if err != nil {
		return nil, err
	}
	if !p.at(tokKeyword, "OR") {
		return first, nil
	}
	kids := []query.Cond{first}
	for p.accept(tokKeyword, "OR") {
		k, err := p.andCond()
		if err != nil {
			return nil, err
		}
		kids = append(kids, k)
	}
	return query.NewOr(kids...), nil
}

// andCond := condUnit (AND condUnit)*
func (p *parser) andCond() (query.Cond, error) {
	first, err := p.condUnit()
	if err != nil {
		return nil, err
	}
	if !p.at(tokKeyword, "AND") {
		return first, nil
	}
	kids := []query.Cond{first}
	for p.accept(tokKeyword, "AND") {
		k, err := p.condUnit()
		if err != nil {
			return nil, err
		}
		kids = append(kids, k)
	}
	return query.NewAnd(kids...), nil
}

// condUnit := TRUE | FALSE | '(' orCond ')' | predicate
// Parenthesized conditions are disambiguated from parenthesized
// arithmetic by lookahead: after the ')' a comparison operator or
// BETWEEN/IN means the parens were part of an expression.
func (p *parser) condUnit() (query.Cond, error) {
	if p.accept(tokKeyword, "TRUE") {
		return query.True{}, nil
	}
	if p.accept(tokKeyword, "FALSE") {
		return query.NewOr(), nil
	}
	if p.at(tokSymbol, "(") {
		if err := p.nest(); err != nil {
			return nil, err
		}
		tok, off := p.tok, p.off
		p.next()
		cond, err := p.orCond()
		if err == nil {
			_, err = p.expect(tokSymbol, ")")
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
	if p.accept(tokKeyword, "BETWEEN") {
		lo, err := p.linExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokKeyword, "AND"); err != nil {
			return nil, err
		}
		hi, err := p.linExpr()
		if err != nil {
			return nil, err
		}
		loP, err := normalizePred(lhs.Clone(), query.GE, lo)
		if err != nil {
			return nil, err
		}
		hiP, err := normalizePred(lhs, query.LE, hi)
		if err != nil {
			return nil, err
		}
		return query.NewAnd(loP, hiP), nil
	}
	if p.accept(tokKeyword, "IN") {
		// Paper notation: "a_j in [lo, hi]" — an inclusive range.
		if _, err := p.expect(tokSymbol, "["); err != nil {
			return nil, err
		}
		lo, err := p.linExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSymbol, ","); err != nil {
			return nil, err
		}
		hi, err := p.linExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSymbol, "]"); err != nil {
			return nil, err
		}
		loP, err := normalizePred(lhs.Clone(), query.GE, lo)
		if err != nil {
			return nil, err
		}
		hiP, err := normalizePred(lhs, query.LE, hi)
		if err != nil {
			return nil, err
		}
		return query.NewAnd(loP, hiP), nil
	}
	opTok := p.cur()
	var op query.CmpOp
	switch opTok.text {
	case "=":
		op = query.EQ
	case "<=":
		op = query.LE
	case ">=":
		op = query.GE
	case "<":
		op = query.LT
	case ">":
		op = query.GT
	default:
		return nil, p.errf("expected comparison operator, found %q", opTok.text)
	}
	p.next()
	rhs, err := p.linExpr()
	if err != nil {
		return nil, err
	}
	return normalizePred(lhs, op, rhs)
}

// normalizePred rewrites "lhs op rhs" into the canonical Pred form with
// all attribute terms on the left and a single constant on the right:
// (lhs-rhs without constant) op (rhsConst - lhsConst). The predicate
// keeps lhs's terms when rhs is a constant, so lhs must be the caller's
// own; every expression the parser builds is already normalized.
func normalizePred(lhs query.LinExpr, op query.CmpOp, rhs query.LinExpr) (query.Cond, error) {
	diff := lhs
	if rhs.IsConst() {
		diff.Const -= rhs.Const
	} else {
		diff = lhs.Add(rhs.Scale(-1))
	}
	if diff.IsConst() {
		return nil, fmt.Errorf("sqlparse: predicate references no attributes")
	}
	rhsConst := -diff.Const
	diff.Const = 0
	return query.NewPred(diff, op, rhsConst), nil
}

// linExpr := mulTerm (('+'|'-') mulTerm)*
func (p *parser) linExpr() (query.LinExpr, error) {
	e, err := p.mulTerm()
	if err != nil {
		return query.LinExpr{}, err
	}
	for {
		if p.accept(tokSymbol, "+") {
			t, err := p.mulTerm()
			if err != nil {
				return query.LinExpr{}, err
			}
			e = e.Add(t)
		} else if p.accept(tokSymbol, "-") {
			t, err := p.mulTerm()
			if err != nil {
				return query.LinExpr{}, err
			}
			e = e.Add(t.Scale(-1))
		} else {
			return e, nil
		}
	}
}

// mulTerm := factor (('*'|'/') factor)* with the linearity restriction
// that at least one side of '*' is constant and divisors are constant.
func (p *parser) mulTerm() (query.LinExpr, error) {
	e, err := p.factor()
	if err != nil {
		return query.LinExpr{}, err
	}
	for {
		if p.accept(tokSymbol, "*") {
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
		} else if p.accept(tokSymbol, "/") {
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
	t := p.cur()
	switch {
	case t.kind == tokNumber:
		p.next()
		return query.ConstExpr(t.num), nil
	case t.kind == tokIdent:
		p.next()
		attr, ok := p.resolveAttr(t.text)
		if !ok {
			return query.LinExpr{}, fmt.Errorf("sqlparse: unknown attribute %q", t.text)
		}
		return query.AttrExpr(attr), nil
	case t.kind == tokSymbol && (t.text == "(" || t.text == "-"):
		if err := p.nest(); err != nil {
			return query.LinExpr{}, err
		}
		defer func() { p.depth-- }()
		p.next()
		if t.text == "-" {
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
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return query.LinExpr{}, err
		}
		return e, nil
	default:
		return query.LinExpr{}, p.errf("expected expression, found %q", t.text)
	}
}
