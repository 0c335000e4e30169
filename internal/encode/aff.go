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
//
// An encode walks only the tracked tuples (§5.1) from its batch's first
// parameterized statement (§5.4), starting from their states in a
// query.History; each steps its own dirty values, and no table is copied.
//
// An encoding allocates per model, not per expression. A constraint row
// is built in one scratch slice; the terms of values that outlive a row
// come from a term arena, and tracked tuples' state from slabs. Encode
// takes its encoder, all this storage included, from a capped free list
// and hands it back when it returns. milp's TestEncodedRowsMatchGolden
// pins every row it builds, bit for bit.
package encode

import (
	"fmt"
	"math"

	"repro/internal/milp"
)

// aff is an affine expression c + Σ coef·var over model variables, with
// an interval bound [lo, hi] maintained by interval arithmetic. Interval
// bounds provide the per-constraint big-M constants, keeping the LP
// relaxations tight and the numerics sane.
// Its terms are never written once built, so values share them freely.
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

// addScaled returns a + k·b, its terms merged into the term arena with
// cancelled terms dropped. Each product with k is rounded on its own
// before it is added (the float64 conversions forbid fusing the two),
// so every float is the one scaling b, then adding it to a, gives.
func (e *encoder) addScaled(a aff, k float64, b aff) aff {
	if k == 0 {
		b = aff{} // 0·b is the constant 0
	}
	blo, bhi := b.lo, b.hi
	if k < 0 {
		blo, bhi = bhi, blo
	}
	out := aff{c: a.c + float64(k*b.c), lo: a.lo + float64(k*blo), hi: a.hi + float64(k*bhi), terms: a.terms}
	if len(b.terms) > 0 {
		ts := e.terms.take(len(a.terms) + len(b.terms))[:0]
		i := 0
		for _, bt := range b.terms {
			for ; i < len(a.terms) && a.terms[i].Var < bt.Var; i++ {
				ts = append(ts, a.terms[i])
			}
			t := milp.Term{Var: bt.Var, Coef: k * bt.Coef}
			if i < len(a.terms) && a.terms[i].Var == bt.Var {
				t.Coef = a.terms[i].Coef + float64(k*bt.Coef)
				i++
				if t.Coef == 0 {
					continue // cancelled
				}
			}
			ts = append(ts, t)
		}
		ts = append(ts, a.terms[i:]...)
		e.terms.unTake(cap(ts) - len(ts))
		out.terms = ts[:len(ts):len(ts)]
	}
	if len(out.terms) == 0 {
		out.lo, out.hi = out.c, out.c
	}
	return out
}

// A constraint row is built in the encoder's row scratch: row starts
// it, plus appends k·a, and le, ge or eq hands it to the model. Terms go
// in as appended, duplicates and all; milp sorts each row stably and sums
// a variable's terms in argument order, so the stored row, constant
// included, is the one a chain of merged affs would give.

// row starts a row with a.
func (e *encoder) row(a aff) *encoder {
	e.rowTerms = append(e.rowTerms[:0], a.terms...)
	e.rowC = a.c
	return e
}

// plus appends k·a to the row.
func (e *encoder) plus(k float64, a aff) *encoder {
	if k == 0 {
		a = aff{} // 0·a is the constant 0, which still turns a -0 into 0
	}
	e.rowC += float64(k * a.c)
	for _, t := range a.terms {
		e.rowTerms = append(e.rowTerms, milp.Term{Var: t.Var, Coef: k * t.Coef})
	}
	return e
}

// le, ge and eq add the row <= rhs, >= rhs and = rhs.
func (e *encoder) le(rhs float64) { e.m.AddLE(e.rowTerms, rhs-e.rowC) }
func (e *encoder) ge(rhs float64) { e.m.AddGE(e.rowTerms, rhs-e.rowC) }
func (e *encoder) eq(rhs float64) { e.m.AddEQ(e.rowTerms, rhs-e.rowC) }

// slab hands out slices of one growing array until reset. A slice taken
// stays put: when the array grows, what was taken keeps the old one.
type slab[T any] []T

// take returns n zeroed elements.
func (s *slab[T]) take(n int) []T {
	if len(*s)+n > cap(*s) {
		*s = make([]T, 0, max(2*cap(*s), n, 256))
	}
	*s = (*s)[:len(*s)+n]
	out := (*s)[len(*s)-n : len(*s) : len(*s)]
	clear(out)
	return out
}

// unTake hands back the last n elements of the latest take.
func (s *slab[T]) unTake(n int) { *s = (*s)[:len(*s)-n] }

// reset hands every element back.
func (s *slab[T]) reset() { *s = (*s)[:0] }

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

// asAff views the boolean as a 0/1 affine expression. It must stay
// inlinable, or the slice of a varAff it returns escapes to the heap.
func (b bval) asAff(m *milp.Model) aff {
	if !b.known {
		return varAff(m, b.v)
	}
	c := 0.0
	if b.b {
		c = 1
	}
	return constAff(c)
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
