// Package encode translates a query log, database states, and a complaint
// set into a mixed-integer linear program, implementing the MILP Encoder
// of the QFix paper (§4): Linearize for UPDATE (Eq. 1–4), INSERT (Eq. 5)
// and DELETE (Eq. 6), ConnectQueries, AssignVals, and the Manhattan
// distance objective (§4.3).
//
// Two engineering choices go beyond the paper's presentation:
//
//  1. Constant folding. Queries that are not parameterized and whose
//     inputs are still constant are replayed exactly rather than encoded;
//     only the symbolic frontier produces variables and constraints. This
//     is what the slicing optimizations of §5 rely on to produce the tiny
//     MILPs the paper reports, and it is essential here because the
//     stdlib-only solver is far slower than CPLEX.
//
//  2. Liveness. The paper encodes DELETE by writing an out-of-domain
//     sentinel M+ into deleted tuples and assumes later predicates then
//     fail. That is unsound for predicates like "a >= c", so instead each
//     tuple carries an explicit liveness literal that gates every later
//     condition (see encodeDelete).
package encode

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/milp"
)

// aff is an affine expression c + Σ coef·var over model variables, with
// an interval bound [lo, hi] maintained by interval arithmetic. Interval
// bounds provide the per-constraint big-M constants, keeping the LP
// relaxations tight and the numerics sane.
type aff struct {
	c      float64
	terms  []milp.Term // sorted by Var
	lo, hi float64
}

// constAff builds a constant expression.
func constAff(c float64) aff { return aff{c: c, lo: c, hi: c} }

// varAff builds an expression holding one model variable.
func varAff(m *milp.Model, v milp.Var) aff {
	lb, ub := m.Bounds(v)
	return aff{terms: []milp.Term{{Var: v, Coef: 1}}, lo: lb, hi: ub}
}

// isConst reports whether the expression has no variable terms.
func (a aff) isConst() bool { return len(a.terms) == 0 }

// add returns a + b with merged terms and summed intervals.
func (a aff) add(b aff) aff {
	out := aff{c: a.c + b.c, lo: a.lo + b.lo, hi: a.hi + b.hi}
	out.terms = mergeTerms(a.terms, b.terms)
	if len(out.terms) == 0 {
		out.lo, out.hi = out.c, out.c
	}
	return out
}

// scale returns k*a.
func (a aff) scale(k float64) aff {
	if k == 0 {
		return constAff(0)
	}
	out := aff{c: k * a.c}
	out.terms = make([]milp.Term, len(a.terms))
	for i, t := range a.terms {
		out.terms[i] = milp.Term{Var: t.Var, Coef: k * t.Coef}
	}
	if k > 0 {
		out.lo, out.hi = k*a.lo, k*a.hi
	} else {
		out.lo, out.hi = k*a.hi, k*a.lo
	}
	return out
}

// mergeTerms merges two sorted term lists, dropping cancelled terms.
func mergeTerms(a, b []milp.Term) []milp.Term {
	out := make([]milp.Term, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].Var < b[j].Var:
			out = append(out, a[i])
			i++
		case a[i].Var > b[j].Var:
			out = append(out, b[j])
			j++
		default:
			if c := a[i].Coef + b[j].Coef; c != 0 {
				out = append(out, milp.Term{Var: a[i].Var, Coef: c})
			}
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// normTerms validates term ordering (used by tests).
func (a aff) normalized() bool {
	return sort.SliceIsSorted(a.terms, func(i, j int) bool { return a.terms[i].Var < a.terms[j].Var })
}

// rowLE adds the constraint a <= rhs.
func rowLE(m *milp.Model, a aff, rhs float64) { m.AddLE(a.terms, rhs-a.c) }

// rowGE adds the constraint a >= rhs.
func rowGE(m *milp.Model, a aff, rhs float64) { m.AddGE(a.terms, rhs-a.c) }

// rowEQ adds the constraint a = rhs.
func rowEQ(m *milp.Model, a aff, rhs float64) { m.AddEQ(a.terms, rhs-a.c) }

// bval is a (possibly symbolic) boolean: either a known constant or a
// binary model variable. It represents σ_q(t) and predicate outcomes.
type bval struct {
	known bool
	b     bool
	v     milp.Var
}

func knownB(b bool) bval     { return bval{known: true, b: b} }
func varB(v milp.Var) bval   { return bval{v: v} }
func (b bval) isTrue() bool  { return b.known && b.b }
func (b bval) isFalse() bool { return b.known && !b.b }
func (b bval) String() string {
	if b.known {
		return fmt.Sprintf("const(%v)", b.b)
	}
	return fmt.Sprintf("var(%d)", b.v)
}

// asAff views the boolean as a 0/1 affine expression.
func (b bval) asAff(m *milp.Model) aff {
	if b.known {
		if b.b {
			return constAff(1)
		}
		return constAff(0)
	}
	return varAff(m, b.v)
}

// finiteOr clamps infinities to ±fallback (safety net; encoder intervals
// should already be finite).
func finiteOr(v, fallback float64) float64 {
	if math.IsInf(v, 1) {
		return fallback
	}
	if math.IsInf(v, -1) {
		return -fallback
	}
	return v
}
