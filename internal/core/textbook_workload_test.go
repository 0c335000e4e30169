// External test: the paper's §4 MILP, transcribed as written, as the
// reference the engine's encoder is checked against (see
// minimality_workload_test.go). The engine rewrites that MILP before it
// solves it: constant folding, parameter windows, presolve and the
// slicings of §5. None of those appear here. Every tuple gets one value
// variable per query and attribute, every predicate evaluation one σ
// binary, and the property solves it without presolve. It is slow on
// purpose and only ever built for small instances.
package core_test

import (
	"math"

	"repro/internal/milp"
	"repro/internal/query"
	"repro/internal/relation"
)

// textbookEps separates a strict comparison, and the complement of a
// comparison, from its boundary, as the paper's ε does.
const textbookEps = 0.5

// textbook is the §4 model of one log with a set of parameterized
// queries.
type textbook struct {
	m     *milp.Model
	bigM  float64
	theta []textbookParam // in log order, each query's in canonical order
}

// textbookParam is one parameterized constant θ and its original value.
type textbookParam struct {
	query, index int
	orig         float64
	v            milp.Var
}

// lin is an affine expression Σ coef·var + c with an interval that
// bounds it over the variables' boxes; big-M constants are read off it.
type lin struct {
	terms  []milp.Term
	c      float64
	lo, hi float64
}

func cst(c float64) lin { return lin{c: c, lo: c, hi: c} }

func (b *textbook) ofVar(v milp.Var) lin {
	lo, hi := b.m.Bounds(v)
	return lin{terms: []milp.Term{{Var: v, Coef: 1}}, lo: lo, hi: hi}
}

// plus returns a + k·o.
func (a lin) plus(k float64, o lin) lin {
	out := lin{c: a.c + k*o.c, lo: a.lo + math.Min(k*o.lo, k*o.hi), hi: a.hi + math.Max(k*o.lo, k*o.hi)}
	out.terms = append(out.terms, a.terms...)
next:
	for _, t := range o.terms {
		for i := range out.terms {
			if out.terms[i].Var == t.Var {
				out.terms[i].Coef += k * t.Coef
				continue next
			}
		}
		out.terms = append(out.terms, milp.Term{Var: t.Var, Coef: k * t.Coef})
	}
	return out
}

// fresh is a new continuous variable spanning e's interval.
func (b *textbook) fresh(e lin) lin { return b.ofVar(b.m.NewContinuous(e.lo, e.hi)) }

func (b *textbook) binary() lin { return b.ofVar(b.m.NewBinary()) }

// implyLE adds "lit = 1 ⇒ e ≤ r" as e ≤ r + U·(1 − lit), with U large
// enough that the row is slack whenever lit ≤ 0.
func (b *textbook) implyLE(lit, e lin, r float64) {
	u := math.Max(e.hi-r, 0)
	row := e.plus(u, lit)
	b.m.AddLE(row.terms, r+u-row.c)
}

// implyGE adds "lit = 1 ⇒ e ≥ r" as e ≥ r − L·(1 − lit).
func (b *textbook) implyGE(lit, e lin, r float64) {
	l := math.Max(r-e.lo, 0)
	row := e.plus(-l, lit)
	b.m.AddGE(row.terms, r-l-row.c)
}

// pin adds e = r. A constant e that misses r makes the model infeasible.
func (b *textbook) pin(e lin, r float64) {
	switch {
	case len(e.terms) > 0:
		b.m.AddEQ(e.terms, r-e.c)
	case math.Abs(e.c-r) > 1e-9:
		b.m.AddEQ(nil, 1)
	}
}

// pred links a fresh σ binary y to "e op 0" (Eq. 1): y = 1 iff the
// comparison holds, with ε between the two sides.
func (b *textbook) pred(e lin, op query.CmpOp) lin {
	y := b.binary()
	not := cst(1).plus(-1, y)
	switch op {
	case query.LE:
		b.implyLE(y, e, 0)
		b.implyGE(not, e, textbookEps)
	case query.GE:
		b.implyGE(y, e, 0)
		b.implyLE(not, e, -textbookEps)
	case query.LT:
		b.implyLE(y, e, -textbookEps)
		b.implyGE(not, e, 0)
	case query.GT:
		b.implyGE(y, e, textbookEps)
		b.implyLE(not, e, 0)
	case query.EQ:
		b.implyLE(y, e, 0)
		b.implyGE(y, e, 0)
		w := b.binary() // which side of 0 a false equality lies on
		b.implyGE(w.plus(-1, y), e, textbookEps)
		b.implyLE(cst(1).plus(-1, y).plus(-1, w), e, -textbookEps)
	}
	return y
}

// join links a fresh binary to the AND (or OR) of 0/1 expressions.
func (b *textbook) join(kids []lin, and bool) lin {
	z := b.binary()
	sum := cst(0)
	for _, k := range kids {
		if and {
			b.m.AddLE(z.plus(-1, k).terms, k.c)
		} else {
			b.m.AddGE(z.plus(-1, k).terms, k.c)
		}
		sum = sum.plus(1, k)
	}
	if and {
		b.m.AddGE(z.plus(-1, sum).terms, sum.c-float64(len(kids)-1))
	} else {
		b.m.AddLE(z.plus(-1, sum).terms, sum.c)
	}
	return z
}

// cond encodes a WHERE tree over one tuple's values; rhs holds the
// predicates' right-hand sides in query.WalkPreds order, next indexes it.
func (b *textbook) cond(c query.Cond, vals, rhs []lin, next *int) lin {
	var kids []query.Cond
	and := false
	switch c := c.(type) {
	case *query.Pred:
		e := cst(c.LHS.Const)
		for _, t := range c.LHS.Terms {
			e = e.plus(t.Coef, vals[t.Attr])
		}
		e = e.plus(-1, rhs[*next])
		*next++
		return b.pred(e, c.Op)
	case *query.And:
		kids, and = c.Kids, true
	case *query.Or:
		kids = c.Kids
	default: // query.True
		return cst(1)
	}
	lits := make([]lin, len(kids))
	for i, k := range kids {
		lits[i] = b.cond(k, vals, rhs, next)
	}
	return b.join(lits, and)
}

// textbookBound is the domain bound M: twice the largest magnitude among
// D0's values, the dirty final state's values and the log's constants,
// plus 10.
func textbookBound(d0, dirty *relation.Table, log []query.Query) float64 {
	maxAbs := 1.0
	see := func(vs []float64) {
		for _, v := range vs {
			maxAbs = math.Max(maxAbs, math.Abs(v))
		}
	}
	d0.Rows(func(t relation.Tuple) { see(t.Values) })
	dirty.Rows(func(t relation.Tuple) { see(t.Values) })
	for _, q := range log {
		see(q.Params())
	}
	return 2*maxAbs + 10
}

// buildTextbook writes the §4 MILP. want maps each complaint tuple to
// its target values, nil for a tuple that should not exist; every other
// tuple is pinned to its dirty final state (Basic's FixNonComplaints).
// The objective is Σ|θ − θ_orig| over the queries in param.
func buildTextbook(d0 *relation.Table, log []query.Query, want map[int64][]float64, param map[int]bool) (*textbook, error) {
	dirty, err := query.Replay(log, d0)
	if err != nil {
		return nil, err
	}
	b := &textbook{m: milp.NewModel(), bigM: textbookBound(d0, dirty, log)}
	type tuple struct {
		id    int64
		vals  []lin
		alive lin // 0/1; the constant 1 until a DELETE may have removed it
	}
	var tuples []*tuple
	consts := func(vs []float64) []lin {
		out := make([]lin, len(vs))
		for a, v := range vs {
			out[a] = cst(v)
		}
		return out
	}
	d0.Rows(func(t relation.Tuple) {
		tuples = append(tuples, &tuple{id: t.ID, vals: consts(t.Values), alive: cst(1)})
	})
	nextID := d0.NextID()
	for qi, q := range log {
		theta := consts(q.Params())
		if param[qi] {
			for j, o := range q.Params() {
				v := b.m.NewContinuous(o-b.bigM, o+b.bigM)
				dev := b.m.NewContinuous(0, b.bigM) // |θ − θ_orig| (§4.3)
				b.m.AddGE([]milp.Term{{Var: dev, Coef: 1}, {Var: v, Coef: -1}}, -o)
				b.m.AddGE([]milp.Term{{Var: dev, Coef: 1}, {Var: v, Coef: 1}}, o)
				b.m.SetObjCoef(dev, 1)
				b.theta = append(b.theta, textbookParam{query: qi, index: j, orig: o, v: v})
				theta[j] = b.ofVar(v)
			}
		}
		if _, ok := q.(*query.Insert); ok { // Eq. 5: the new tuple's values are θ
			tuples = append(tuples, &tuple{id: nextID, vals: theta, alive: cst(1)})
			nextID++
			continue
		}
		var where query.Cond
		var set []query.SetClause
		switch q := q.(type) {
		case *query.Update:
			where, set = q.Where, q.Set
		case *query.Delete:
			where = q.Where
		}
		for _, t := range tuples {
			next := 0
			sigma := b.cond(where, t.vals, theta[len(set):], &next)
			if len(t.alive.terms) > 0 { // only live tuples match
				sigma = b.join([]lin{sigma, t.alive}, true)
			}
			if _, ok := q.(*query.Delete); ok { // Eq. 6 through liveness
				t.alive = t.alive.plus(-1, sigma)
			}
			mu := make(map[int]lin, len(set)) // µ of each SET clause, from the old values
			for si, sc := range set {
				e := theta[si]
				for _, tm := range sc.Expr.Terms {
					e = e.plus(tm.Coef, t.vals[tm.Attr])
				}
				mu[sc.Attr] = e
			}
			for a, old := range t.vals {
				nv, written := mu[a]
				if !written { // Eq. 4: an attribute no clause writes carries over
					t.vals[a] = b.fresh(old)
					b.pin(t.vals[a].plus(-1, old), 0)
					continue
				}
				hull := lin{lo: math.Min(nv.lo, old.lo), hi: math.Max(nv.hi, old.hi)}
				x := b.fresh(hull) // Eq. 3: x = σ·µ + (1 − σ)·old
				notSigma := cst(1).plus(-1, sigma)
				b.implyLE(sigma, x.plus(-1, nv), 0)
				b.implyGE(sigma, x.plus(-1, nv), 0)
				b.implyLE(notSigma, x.plus(-1, old), 0)
				b.implyGE(notSigma, x.plus(-1, old), 0)
				t.vals[a] = x
			}
		}
	}
	for _, t := range tuples { // AssignVals (§4.2)
		target, complained := want[t.id]
		if !complained {
			if dt, ok := dirty.Get(t.id); ok {
				target = dt.Values
			}
		}
		if target == nil {
			b.pin(t.alive, 0)
			continue
		}
		b.pin(t.alive, 1)
		for a, v := range t.vals {
			b.pin(v, target[a])
		}
	}
	return b, nil
}
