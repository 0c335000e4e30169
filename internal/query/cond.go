package query

import "repro/internal/relation"

// CmpOp is a comparison operator in a predicate.
type CmpOp int

// Comparison operators. Strict operators are supported in execution; the
// MILP encoder separates them from their weak forms by the configured
// epsilon (integer domains in the paper's workloads make this exact).
const (
	EQ CmpOp = iota
	LE
	GE
	LT
	GT
)

// String returns the SQL spelling of the operator.
func (op CmpOp) String() string {
	switch op {
	case EQ:
		return "="
	case LE:
		return "<="
	case GE:
		return ">="
	case LT:
		return "<"
	case GT:
		return ">"
	}
	return "?"
}

// Cond is a WHERE-clause condition tree: predicates composed with AND/OR
// (§3, "WHERE clauses containing conjunctions and disjunctions of
// predicates").
type Cond interface {
	// Eval evaluates the condition on a tuple's values.
	Eval(values []float64) bool
	// Clone returns a deep copy.
	Clone() Cond
	// String renders the condition with the schema's attribute names.
	String(s *relation.Schema) string
}

// True is the always-true condition (an UPDATE/DELETE without WHERE).
type True struct{}

// Eval implements Cond.
func (True) Eval([]float64) bool { return true }

// Clone implements Cond.
func (True) Clone() Cond { return True{} }

// String implements Cond.
func (True) String(*relation.Schema) string { return "TRUE" }

// Pred is an atomic predicate LHS op RHS where LHS is a linear expression
// over attributes and RHS is a constant. The RHS constant is a repairable
// parameter. Predicates written with constants on the left or attributes
// on both sides are normalized into this form by the parser.
type Pred struct {
	LHS LinExpr
	Op  CmpOp
	RHS float64
}

// NewPred builds a predicate in the canonical form the parser produces:
// LHS's constant is folded into RHS, so "3*a - 2 <= -7" is stored as
// "3*a <= -5". The printed SQL then parses back to the same predicate,
// parameter included.
func NewPred(lhs LinExpr, op CmpOp, rhs float64) *Pred {
	rhs -= lhs.Const
	lhs.Const = 0
	return &Pred{LHS: lhs, Op: op, RHS: rhs}
}

// AttrPred builds the common single-attribute predicate "attr op rhs".
func AttrPred(attr int, op CmpOp, rhs float64) *Pred {
	return NewPred(AttrExpr(attr), op, rhs)
}

// Eval implements Cond.
func (p *Pred) Eval(values []float64) bool {
	v := p.LHS.Eval(values)
	switch p.Op {
	case EQ:
		return v == p.RHS
	case LE:
		return v <= p.RHS
	case GE:
		return v >= p.RHS
	case LT:
		return v < p.RHS
	case GT:
		return v > p.RHS
	}
	return false
}

// Clone implements Cond.
func (p *Pred) Clone() Cond { return &Pred{LHS: p.LHS.Clone(), Op: p.Op, RHS: p.RHS} }

// String implements Cond.
func (p *Pred) String(s *relation.Schema) string { return string(appendCond(nil, p, s)) }

// And is a conjunction of conditions.
type And struct{ Kids []Cond }

// NewAnd builds a conjunction; zero kids yields a condition equal to True.
func NewAnd(kids ...Cond) *And { return &And{Kids: kids} }

// Eval implements Cond.
func (a *And) Eval(values []float64) bool {
	for _, k := range a.Kids {
		if !k.Eval(values) {
			return false
		}
	}
	return true
}

// Clone implements Cond.
func (a *And) Clone() Cond {
	kids := make([]Cond, len(a.Kids))
	for i, k := range a.Kids {
		kids[i] = k.Clone()
	}
	return &And{Kids: kids}
}

// String implements Cond.
func (a *And) String(s *relation.Schema) string { return string(appendCond(nil, a, s)) }

// Or is a disjunction of conditions.
type Or struct{ Kids []Cond }

// NewOr builds a disjunction; zero kids yields a condition equal to False
// (an Or with no satisfied disjunct).
func NewOr(kids ...Cond) *Or { return &Or{Kids: kids} }

// Eval implements Cond.
func (o *Or) Eval(values []float64) bool {
	for _, k := range o.Kids {
		if k.Eval(values) {
			return true
		}
	}
	return false
}

// Clone implements Cond.
func (o *Or) Clone() Cond {
	kids := make([]Cond, len(o.Kids))
	for i, k := range o.Kids {
		kids[i] = k.Clone()
	}
	return &Or{Kids: kids}
}

// String implements Cond.
func (o *Or) String(s *relation.Schema) string { return string(appendCond(nil, o, s)) }

// appendCond appends what c.String(s) returns to b.
func appendCond(b []byte, c Cond, s *relation.Schema) []byte {
	switch c := c.(type) {
	case True:
		return append(b, "TRUE"...)
	case *Pred:
		b = append(append(c.LHS.appendSQL(b, s), ' '), c.Op.String()...)
		return appendNum(append(b, ' '), c.RHS)
	case *And:
		return appendJunction(b, c.Kids, " AND ", "TRUE", s)
	case *Or:
		return appendJunction(b, c.Kids, " OR ", "FALSE", s)
	}
	return append(b, c.String(s)...)
}

// appendJunction appends kids joined by sep, or empty when there are
// none. Composite kids are parenthesized so the printed SQL parses back
// to the same tree.
func appendJunction(b []byte, kids []Cond, sep, empty string, s *relation.Schema) []byte {
	if len(kids) == 0 {
		return append(b, empty...)
	}
	for i, k := range kids {
		if i > 0 {
			b = append(b, sep...)
		}
		switch k.(type) {
		case *And, *Or:
			b = append(appendCond(append(b, '('), k, s), ')')
		default:
			b = appendCond(b, k, s)
		}
	}
	return b
}

// CondAttrs appends all attribute indices referenced anywhere in the
// condition to dst (with duplicates; callers dedupe as needed).
func CondAttrs(c Cond, dst []int) []int {
	switch v := c.(type) {
	case *Pred:
		dst = v.LHS.Attrs(dst)
	case *And:
		for _, k := range v.Kids {
			dst = CondAttrs(k, dst)
		}
	case *Or:
		for _, k := range v.Kids {
			dst = CondAttrs(k, dst)
		}
	}
	return dst
}

// WalkPreds visits every predicate in the condition tree in a fixed
// depth-first, left-to-right order. Both parameter extraction and the
// MILP encoder rely on this order, which makes parameter positions
// stable identifiers.
func WalkPreds(c Cond, f func(*Pred)) {
	switch v := c.(type) {
	case *Pred:
		f(v)
	case *And:
		for _, k := range v.Kids {
			WalkPreds(k, f)
		}
	case *Or:
		for _, k := range v.Kids {
			WalkPreds(k, f)
		}
	}
}
