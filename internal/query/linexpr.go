// Package query models the update workload QFix diagnoses: UPDATE, INSERT
// and DELETE statements whose WHERE clauses are conjunctions/disjunctions
// of predicates over linear combinations of attributes, and whose SET
// clauses assign linear expressions (paper §3, "Problem scope").
//
// Queries are pure functions over relation.Table states (Di = qi(Di-1)).
// Every constant appearing in a query is an addressable *parameter*: the
// repair surface of QFix is exactly the parameter vector of the log
// (§3.1, "our repairs focus on altering query constants rather than query
// structure").
package query

import (
	"cmp"
	"math"
	"slices"
	"strconv"

	"repro/internal/relation"
)

// Term is one attribute reference with a coefficient inside a LinExpr.
type Term struct {
	Attr int
	Coef float64
}

// LinExpr is a linear combination of attributes plus a constant:
// sum(Coef_i * A_i) + Const. The constant is a repairable parameter;
// coefficients are considered query structure and are not repaired,
// matching the paper's treatment (the Figure 2 repair changes the WHERE
// constant, not the 0.3 rate, though SET constants are repairable too).
type LinExpr struct {
	Terms []Term // sorted by Attr, no duplicates, no zero coefficients
	Const float64
}

// ConstExpr returns a LinExpr holding only a constant.
func ConstExpr(c float64) LinExpr { return LinExpr{Const: c} }

// AttrExpr returns a LinExpr referencing a single attribute.
func AttrExpr(attr int) LinExpr { return LinExpr{Terms: []Term{{Attr: attr, Coef: 1}}} }

// NewLinExpr builds a normalized LinExpr from possibly unsorted,
// possibly duplicated terms: a stable sort by attribute, then each run
// of one attribute summed in argument order, zero sums dropped.
func NewLinExpr(c float64, terms ...Term) LinExpr {
	return normalized(c, slices.Clone(terms))
}

// normalized is NewLinExpr over terms it may sort and overwrite in place.
func normalized(c float64, ts []Term) LinExpr {
	e := LinExpr{Const: c}
	slices.SortStableFunc(ts, func(a, b Term) int { return cmp.Compare(a.Attr, b.Attr) })
	w := 0
	for k := 0; k < len(ts); {
		t := ts[k]
		for k++; k < len(ts) && ts[k].Attr == t.Attr; k++ {
			t.Coef += ts[k].Coef
		}
		if t.Coef != 0 {
			ts[w] = t
			w++
		}
	}
	if w > 0 {
		e.Terms = ts[:w]
	}
	return e
}

// Eval evaluates the expression on a tuple's values.
func (e LinExpr) Eval(values []float64) float64 {
	v := e.Const
	for _, t := range e.Terms {
		v += t.Coef * values[t.Attr]
	}
	return v
}

// IsConst reports whether the expression references no attributes.
func (e LinExpr) IsConst() bool { return len(e.Terms) == 0 }

// Clone returns a deep copy.
func (e LinExpr) Clone() LinExpr {
	return LinExpr{Terms: append([]Term(nil), e.Terms...), Const: e.Const}
}

// Attrs appends the attribute indices referenced by e to dst.
func (e LinExpr) Attrs(dst []int) []int {
	for _, t := range e.Terms {
		dst = append(dst, t.Attr)
	}
	return dst
}

// Add returns e + o.
func (e LinExpr) Add(o LinExpr) LinExpr {
	terms := make([]Term, 0, len(e.Terms)+len(o.Terms))
	return normalized(e.Const+o.Const, append(append(terms, e.Terms...), o.Terms...))
}

// Scale returns k*e. A coefficient whose product underflows to zero is
// dropped, so a normalized e scales to a normalized expression.
func (e LinExpr) Scale(k float64) LinExpr {
	out := LinExpr{Const: k * e.Const}
	if k == 0 {
		return out
	}
	for _, t := range e.Terms {
		if c := k * t.Coef; c != 0 {
			out.Terms = append(out.Terms, Term{Attr: t.Attr, Coef: c})
		}
	}
	return out
}

// Equal reports structural equality within eps on all coefficients.
func (e LinExpr) Equal(o LinExpr, eps float64) bool {
	if len(e.Terms) != len(o.Terms) || math.Abs(e.Const-o.Const) > eps {
		return false
	}
	for i, t := range e.Terms {
		if t.Attr != o.Terms[i].Attr || math.Abs(t.Coef-o.Terms[i].Coef) > eps {
			return false
		}
	}
	return true
}

// String renders the expression using the schema's attribute names.
func (e LinExpr) String(s *relation.Schema) string { return string(e.appendSQL(nil, s)) }

// appendSQL appends what String returns to b.
func (e LinExpr) appendSQL(b []byte, s *relation.Schema) []byte {
	for i, t := range e.Terms {
		switch {
		case i == 0 && t.Coef == 1:
		case i == 0 && t.Coef == -1:
			b = append(b, '-')
		case i == 0:
			b = append(appendNum(b, t.Coef), " * "...)
		case t.Coef == 1:
			b = append(b, " + "...)
		case t.Coef == -1:
			b = append(b, " - "...)
		case t.Coef < 0:
			b = append(appendNum(append(b, " - "...), -t.Coef), " * "...)
		default:
			b = append(appendNum(append(b, " + "...), t.Coef), " * "...)
		}
		b = appendAttr(b, s, t.Attr)
	}
	switch {
	case len(e.Terms) == 0:
		b = appendNum(b, e.Const)
	case e.Const > 0:
		b = appendNum(append(b, " + "...), e.Const)
	case e.Const < 0:
		b = appendNum(append(b, " - "...), -e.Const)
	}
	return b
}

// appendAttr appends the name of attribute a: the schema's, or "a<a>"
// without one.
func appendAttr(b []byte, s *relation.Schema, a int) []byte {
	if s != nil {
		return append(b, s.Attr(a)...)
	}
	return strconv.AppendInt(append(b, 'a'), int64(a), 10)
}

// appendNum appends v without a trailing ".0" for integral values: in
// fmt's terms %d of int64(v) when v is an integer below 1e15 in
// magnitude, %g otherwise.
func appendNum(b []byte, v float64) []byte {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.AppendInt(b, int64(v), 10)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}
