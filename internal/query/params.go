package query

import (
	"fmt"
	"math"
)

// Parameter canonical order:
//
//   - UPDATE: the Const of each SET clause expression in clause order,
//     then the RHS of each WHERE predicate in WalkPreds order.
//   - INSERT: the inserted values in attribute order.
//   - DELETE: the RHS of each WHERE predicate in WalkPreds order.
//
// This order is shared by Params/SetParams, the MILP encoder's parameter
// variables, and the log-repair distance function, so a parameter index
// is a stable address into a query.

// Params implements Query for Update.
func (u *Update) Params() []float64 { return u.AppendParams(nil) }

// AppendParams implements Query for Update.
func (u *Update) AppendParams(dst []float64) []float64 {
	for _, sc := range u.Set {
		dst = append(dst, sc.Expr.Const)
	}
	return appendRHS(dst, u.Where)
}

// SetParams implements Query for Update.
func (u *Update) SetParams(p []float64) error {
	if want := paramCount(u); len(p) != want {
		return fmt.Errorf("query: UPDATE has %d params, got %d", want, len(p))
	}
	i := 0
	for j := range u.Set {
		u.Set[j].Expr.Const = p[i]
		i++
	}
	WalkPreds(u.Where, func(pr *Pred) { pr.RHS = p[i]; i++ })
	return nil
}

// Params implements Query for Insert.
func (q *Insert) Params() []float64 { return q.AppendParams(nil) }

// AppendParams implements Query for Insert.
func (q *Insert) AppendParams(dst []float64) []float64 { return append(dst, q.Values...) }

// SetParams implements Query for Insert.
func (q *Insert) SetParams(p []float64) error {
	if len(p) != len(q.Values) {
		return fmt.Errorf("query: INSERT has %d params, got %d", len(q.Values), len(p))
	}
	copy(q.Values, p)
	return nil
}

// Params implements Query for Delete.
func (q *Delete) Params() []float64 { return q.AppendParams(nil) }

// AppendParams implements Query for Delete.
func (q *Delete) AppendParams(dst []float64) []float64 { return appendRHS(dst, q.Where) }

// SetParams implements Query for Delete.
func (q *Delete) SetParams(p []float64) error {
	if want := paramCount(q); len(p) != want {
		return fmt.Errorf("query: DELETE has %d params, got %d", want, len(p))
	}
	i := 0
	WalkPreds(q.Where, func(pr *Pred) { pr.RHS = p[i]; i++ })
	return nil
}

// appendRHS appends the RHS of every predicate of c in WalkPreds order.
func appendRHS(dst []float64, c Cond) []float64 {
	switch v := c.(type) {
	case *Pred:
		dst = append(dst, v.RHS)
	case *And:
		for _, k := range v.Kids {
			dst = appendRHS(dst, k)
		}
	case *Or:
		for _, k := range v.Kids {
			dst = appendRHS(dst, k)
		}
	}
	return dst
}

// countPreds counts the predicates of c, the parameters its WHERE adds.
func countPreds(c Cond) int {
	n := 0
	switch v := c.(type) {
	case *Pred:
		n = 1
	case *And:
		for _, k := range v.Kids {
			n += countPreds(k)
		}
	case *Or:
		for _, k := range v.Kids {
			n += countPreds(k)
		}
	}
	return n
}

// logParams concatenates the parameter vectors of all queries in a log.
func logParams(log []Query) []float64 {
	var p []float64
	for _, q := range log {
		p = q.AppendParams(p)
	}
	return p
}

// Distance is the Manhattan distance between the parameter vectors of two
// structurally identical logs (§4.3). It panics if the logs have
// different parameter arities, which indicates structural mismatch.
func Distance(a, b []Query) float64 {
	pa, pb := logParams(a), logParams(b)
	if len(pa) != len(pb) {
		panic(fmt.Sprintf("query: Distance on structurally different logs (%d vs %d params)",
			len(pa), len(pb)))
	}
	d := 0.0
	for i := range pa {
		d += math.Abs(pa[i] - pb[i])
	}
	return d
}

// sameStructure reports whether two queries share kind and parameter
// arity — the precondition for treating one as a parameter repair of the
// other.
func sameStructure(a, b Query) bool {
	return a.Kind() == b.Kind() && paramCount(a) == paramCount(b)
}

// paramCount is len(q.Params()), counted without building them.
func paramCount(q Query) int {
	switch q := q.(type) {
	case *Update:
		return len(q.Set) + countPreds(q.Where)
	case *Insert:
		return len(q.Values)
	case *Delete:
		return countPreds(q.Where)
	}
	return len(q.Params())
}
