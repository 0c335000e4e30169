// Package linfit implements the second single-query baseline the paper
// mentions alongside DecTree (§3: "alternative approaches that use
// classification tools and linear systems of equations ... limited to a
// query log containing a single query", detailed in the technical
// report): the WHERE clause is re-fitted as the tightest axis-aligned
// box around the changed tuples, and the SET-clause constants are solved
// from the resulting linear system by least squares.
//
// Like DecTree it exists as a comparison point: it is fast and exact
// when the true predicate is a conjunctive range on the changed
// attributes, and fails in the ways the paper predicts (over-tight boxes
// under sparse evidence, no support for disjunctions, single query only).
package linfit

import (
	"fmt"
	"math"

	"repro/internal/query"
	"repro/internal/relation"
)

// Repair fits a repaired version of the single corrupted UPDATE: d0 is
// the state before the query, truth the correct state after it. The
// dirty query supplies the SET structure (which attributes, constant or
// relative); its WHERE structure is replaced by a box over the changed
// tuples' attributes referenced in the original predicate (falling back
// to all attributes when the original predicate is empty).
func Repair(d0 *relation.Table, dirty *query.Update, truth *relation.Table) (*query.Update, error) {
	width := d0.Schema().Width()
	var changed []relation.Tuple
	d0.Rows(func(t relation.Tuple) {
		if after, ok := truth.Get(t.ID); ok && !t.Equal(after, 1e-9) {
			changed = append(changed, t.Clone())
		}
	})
	if len(changed) == 0 {
		return nil, fmt.Errorf("linfit: no changed tuples to fit")
	}

	// Attributes the original WHERE referenced; the baseline keeps the
	// predicate's attribute structure, like QFix repairs constants.
	attrs := query.NewAttrSet(query.CondAttrs(dirty.Where, nil)...)
	if attrs.Len() == 0 {
		attrs = query.FullAttrSet(width)
	}

	// Box fit: per referenced attribute, [min, max] over changed tuples.
	var kids []query.Cond
	for _, a := range attrs.Sorted() {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, t := range changed {
			v := t.Values[a]
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		kids = append(kids,
			query.AttrPred(a, query.GE, lo),
			query.AttrPred(a, query.LE, hi))
	}
	var where query.Cond
	if len(kids) == 1 {
		where = kids[0]
	} else {
		where = query.NewAnd(kids...)
	}

	repaired := dirty.Clone().(*query.Update)
	repaired.Where = where

	// SET constants by least squares over the changed tuples:
	// target.A = (expr minus const)(old) + c  =>  c = mean residual.
	for si, sc := range repaired.Set {
		sum, n := 0.0, 0
		for _, t := range changed {
			after, ok := truth.Get(t.ID)
			if !ok {
				continue
			}
			base := 0.0
			for _, tm := range sc.Expr.Terms {
				base += tm.Coef * t.Values[tm.Attr]
			}
			sum += after.Values[sc.Attr] - base
			n++
		}
		if n > 0 {
			repaired.Set[si].Expr.Const = sum / float64(n)
		}
	}
	return repaired, nil
}
