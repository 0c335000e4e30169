package encode

import (
	"repro/internal/query"
)

// evalCond encodes σ_q(t) (Eq. 1): it folds to a constant when the
// operands are decisive and otherwise produces a binary literal linked to
// the predicate tree by big-M rows.
func (e *encoder) evalCond(c query.Cond, t *tstate, pc pctx) bval {
	switch v := c.(type) {
	case query.True:
		return knownB(true)
	case *query.Pred:
		lhs := constAff(0)
		for _, tm := range v.LHS.Terms {
			lhs = e.addScaled(lhs, tm.Coef, e.valOf(t, tm.Attr))
		}
		if pv, ok := pc.predVars[v]; ok {
			e.widenWindow(pv, lhs.lo, lhs.hi)
			return e.predB(e.addScaled(lhs, -1, varAff(e.m, pv)), v.Op)
		}
		return e.predB(e.addScaled(lhs, -1, constAff(v.RHS)), v.Op)
	case *query.And:
		kids := make([]bval, 0, 8) // on the stack unless it outgrows 8
		for _, k := range v.Kids {
			b := e.evalCond(k, t, pc)
			if b.isFalse() {
				return knownB(false)
			}
			if !b.isTrue() {
				kids = append(kids, b)
			}
		}
		return e.andAll(kids)
	case *query.Or:
		kids := make([]bval, 0, 8)
		for _, k := range v.Kids {
			b := e.evalCond(k, t, pc)
			if b.isTrue() {
				return knownB(true)
			}
			if !b.isFalse() {
				kids = append(kids, b)
			}
		}
		return e.orAll(kids)
	}
	panic("encode: unknown condition type")
}

// predB encodes "expr op 0" as a boolean. Strict comparisons and the
// complement of equality are separated by eps (exact for integer-valued
// domains). The fold rules use exact interval reasoning and therefore
// agree with plain replay whenever the operands are constants.
func (e *encoder) predB(expr aff, op query.CmpOp) bval {
	lo, hi := expr.lo, expr.hi
	// Constant folding on decisive intervals.
	switch op {
	case query.LE:
		if hi <= 0 {
			return knownB(true)
		}
		if lo > 0 {
			return knownB(false)
		}
	case query.GE:
		if lo >= 0 {
			return knownB(true)
		}
		if hi < 0 {
			return knownB(false)
		}
	case query.LT:
		if hi < 0 {
			return knownB(true)
		}
		if lo >= 0 {
			return knownB(false)
		}
	case query.GT:
		if lo > 0 {
			return knownB(true)
		}
		if hi <= 0 {
			return knownB(false)
		}
	case query.EQ:
		if lo == 0 && hi == 0 {
			return knownB(true)
		}
		if lo > 0 || hi < 0 {
			return knownB(false)
		}
	}
	return e.predBinary(expr, op, lo, hi)
}

// predBinary emits the big-M rows linking a fresh binary to "expr op 0".
// predB folds every decisive interval first, so lo <= 0 <= hi here and
// every big-M factor below has the sign its row needs.
func (e *encoder) predBinary(expr aff, op query.CmpOp, lo, hi float64) bval {
	lo = finiteOr(lo, e.M*4)
	hi = finiteOr(hi, e.M*4)
	y := e.m.NewBinary()
	yA := varAff(e.m, y)
	switch op {
	case query.LE: // y=1 ⇔ expr <= 0
		e.row(expr).plus(hi, yA).le(hi)      // y=1 ⇒ expr <= 0
		e.row(expr).plus(eps-lo, yA).ge(eps) // y=0 ⇒ expr >= eps
	case query.GE: // y=1 ⇔ expr >= 0
		e.row(expr).plus(lo, yA).ge(lo)        // y=1 ⇒ expr >= 0
		e.row(expr).plus(-eps-hi, yA).le(-eps) // y=0 ⇒ expr <= -eps
	case query.LT: // y=1 ⇔ expr <= -eps
		e.row(expr).plus(hi+eps, yA).le(hi) // y=1 ⇒ expr <= -eps
		e.row(expr).plus(-lo, yA).ge(0)     // y=0 ⇒ expr >= 0
	case query.GT: // y=1 ⇔ expr >= eps
		e.row(expr).plus(lo-eps, yA).ge(lo) // y=1 ⇒ expr >= eps
		e.row(expr).plus(-hi, yA).le(0)     // y=0 ⇒ expr <= 0
	case query.EQ: // y=1 ⇔ expr = 0, with a side selector for y=0
		e.row(expr).plus(hi, yA).le(hi) // y=1 ⇒ expr <= 0
		e.row(expr).plus(lo, yA).ge(lo) // y=1 ⇒ expr >= 0
		w := e.m.NewBinary()
		wA := varAff(e.m, w)
		// y=0 ∧ w=1 ⇒ expr >= eps:
		//   expr >= eps + (lo-eps)·(y + (1-w))
		e.row(expr).plus(eps-lo, yA).plus(lo-eps, wA).ge(lo)
		// y=0 ∧ w=0 ⇒ expr <= -eps:
		//   expr <= -eps + (hi+eps)·(y + w)
		e.row(expr).plus(-eps-hi, yA).plus(-eps-hi, wA).le(-eps)
	}
	return varB(y)
}

// andAll conjoins symbolic booleans (none known): x <= y_i for each i and
// x >= Σy_i − (k−1). A single operand passes through unchanged.
func (e *encoder) andAll(kids []bval) bval {
	switch len(kids) {
	case 0:
		return knownB(true)
	case 1:
		return kids[0]
	}
	x := e.m.NewBinary()
	xA := varAff(e.m, x)
	for _, k := range kids {
		e.row(xA).plus(-1, k.asAff(e.m)).le(0)
	}
	// x - Σy_i >= -(k-1)
	e.row(xA)
	for _, k := range kids {
		e.plus(-1, k.asAff(e.m))
	}
	e.ge(-float64(len(kids) - 1))
	return varB(x)
}

// orAll disjoins symbolic booleans: x >= y_i and x <= Σy_i.
func (e *encoder) orAll(kids []bval) bval {
	switch len(kids) {
	case 0:
		return knownB(false)
	case 1:
		return kids[0]
	}
	x := e.m.NewBinary()
	xA := varAff(e.m, x)
	for _, k := range kids {
		e.row(xA).plus(-1, k.asAff(e.m)).ge(0)
	}
	// x - Σy_i <= 0
	e.row(xA)
	for _, k := range kids {
		e.plus(-1, k.asAff(e.m))
	}
	e.le(0)
	return varB(x)
}

// andB conjoins two booleans with folding (used to gate σ by liveness).
func (e *encoder) andB(a, b bval) bval {
	if a.isFalse() || b.isFalse() {
		return knownB(false)
	}
	if a.isTrue() {
		return b
	}
	if b.isTrue() {
		return a
	}
	return e.andAll([]bval{a, b})
}
