package query

import (
	"fmt"

	"repro/internal/relation"
)

// Kind identifies the statement type of a query.
type Kind int

// Statement kinds in the supported update workload.
const (
	KindUpdate Kind = iota
	KindInsert
	KindDelete
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindUpdate:
		return "UPDATE"
	case KindInsert:
		return "INSERT"
	case KindDelete:
		return "DELETE"
	}
	return "UNKNOWN"
}

// Query is one statement in the log: a function from database state to
// database state (§3.1). Apply mutates the given table in place; callers
// that need the previous state clone first (see Replay).
type Query interface {
	Kind() Kind
	Apply(tb *relation.Table) error
	Clone() Query
	// Params returns the query's constant vector in canonical order
	// (see package comment); SetParams writes it back.
	Params() []float64
	// AppendParams appends what Params returns to dst and returns the
	// extended slice; Params is AppendParams(nil).
	AppendParams(dst []float64) []float64
	SetParams(p []float64) error
	String(s *relation.Schema) string
	// AppendSQL appends what String returns to b and returns the
	// extended buffer, for a caller that prints many statements into one.
	AppendSQL(b []byte, s *relation.Schema) []byte
}

// SetClause assigns a linear expression to one attribute, e.g.
// "SET owed = 0.3*income" or "SET a1 = a1 + 5". The modifier function
// µ_q(t) of the paper is the simultaneous application of all SET clauses
// over the tuple's pre-update values.
type SetClause struct {
	Attr int
	Expr LinExpr
}

// Update is an UPDATE statement.
type Update struct {
	Set   []SetClause
	Where Cond
}

// NewUpdate builds an UPDATE with the given SET clauses and condition.
// A nil cond means no WHERE clause (all tuples match).
func NewUpdate(set []SetClause, cond Cond) *Update {
	if cond == nil {
		cond = True{}
	}
	return &Update{Set: set, Where: cond}
}

// Kind implements Query.
func (u *Update) Kind() Kind { return KindUpdate }

// Apply implements Query: tuples satisfying Where get all SET clauses
// applied simultaneously over their old values.
func (u *Update) Apply(tb *relation.Table) error { return u.scan(tb, nil) }

// scan is Apply, telling matched, when it is not nil, the ID of each row
// the WHERE matched once the row is set.
func (u *Update) scan(tb *relation.Table, matched func(id int64)) error {
	if err := u.checkSet(tb.Schema().Width()); err != nil {
		return err
	}
	// The SET values of the row at hand: on the stack for the few clauses
	// a statement has, so that a replay allocates nothing per UPDATE.
	var scratch [8]float64
	newVals := scratch[:]
	if len(u.Set) > len(scratch) {
		newVals = make([]float64, len(u.Set))
	}
	tb.Update(func(t relation.Tuple) {
		if u.Where.Eval(t.Values) {
			u.assign(t.Values, newVals)
			if matched != nil {
				matched(t.ID)
			}
		}
	})
	return nil
}

// checkSet rejects a SET clause that names no attribute of the table.
func (u *Update) checkSet(width int) error {
	for _, sc := range u.Set {
		if sc.Attr < 0 || sc.Attr >= width {
			return fmt.Errorf("query: SET attribute %d out of range [0,%d)", sc.Attr, width)
		}
	}
	return nil
}

// assign applies the SET clauses to the values of a tuple the WHERE
// matched. newVals is scratch of at least len(u.Set): every SET
// expression is evaluated over the old values before any is assigned.
func (u *Update) assign(values, newVals []float64) {
	for i, sc := range u.Set {
		newVals[i] = sc.Expr.Eval(values)
	}
	for i, sc := range u.Set {
		values[sc.Attr] = newVals[i]
	}
}

// Clone implements Query.
func (u *Update) Clone() Query {
	set := make([]SetClause, len(u.Set))
	for i, sc := range u.Set {
		set[i] = SetClause{Attr: sc.Attr, Expr: sc.Expr.Clone()}
	}
	return &Update{Set: set, Where: u.Where.Clone()}
}

// String implements Query.
func (u *Update) String(s *relation.Schema) string {
	var buf [160]byte
	return string(u.AppendSQL(buf[:0], s))
}

// AppendSQL implements Query.
func (u *Update) AppendSQL(b []byte, s *relation.Schema) []byte {
	b = append(appendTable(append(b, "UPDATE "...), s), " SET "...)
	for i, sc := range u.Set {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = sc.Expr.appendSQL(append(appendAttr(b, s, sc.Attr), " = "...), s)
	}
	return appendWhere(b, u.Where, s)
}

// appendTable appends the schema's table name, or "t" without one.
func appendTable(b []byte, s *relation.Schema) []byte {
	if s != nil {
		return append(b, s.Name()...)
	}
	return append(b, 't')
}

// appendWhere appends " WHERE " and the condition unless it is True.
func appendWhere(b []byte, where Cond, s *relation.Schema) []byte {
	if _, isTrue := where.(True); isTrue {
		return b
	}
	return appendCond(append(b, " WHERE "...), where, s)
}

// Insert is an INSERT statement adding one tuple with constant values.
type Insert struct {
	Values []float64
}

// NewInsert builds an INSERT of the given row.
func NewInsert(values ...float64) *Insert {
	return &Insert{Values: append([]float64(nil), values...)}
}

// Kind implements Query.
func (q *Insert) Kind() Kind { return KindInsert }

// Apply implements Query.
func (q *Insert) Apply(tb *relation.Table) error {
	_, err := tb.Insert(q.Values)
	return err
}

// Clone implements Query.
func (q *Insert) Clone() Query {
	return &Insert{Values: append([]float64(nil), q.Values...)}
}

// String implements Query.
func (q *Insert) String(s *relation.Schema) string {
	var buf [160]byte
	return string(q.AppendSQL(buf[:0], s))
}

// AppendSQL implements Query.
func (q *Insert) AppendSQL(b []byte, s *relation.Schema) []byte {
	b = append(appendTable(append(b, "INSERT INTO "...), s), " VALUES ("...)
	for i, v := range q.Values {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = appendNum(b, v)
	}
	return append(b, ')')
}

// Delete is a DELETE statement removing all tuples matching Where.
type Delete struct {
	Where Cond
}

// NewDelete builds a DELETE with the given condition (nil means all rows).
func NewDelete(cond Cond) *Delete {
	if cond == nil {
		cond = True{}
	}
	return &Delete{Where: cond}
}

// Kind implements Query.
func (q *Delete) Kind() Kind { return KindDelete }

// Apply implements Query.
func (q *Delete) Apply(tb *relation.Table) error {
	tb.DeleteBatch(q.matching(tb, nil))
	return nil
}

// matching appends to ids the ID of every row of tb the WHERE matches,
// in table order.
func (q *Delete) matching(tb *relation.Table, ids []int64) []int64 {
	tb.Rows(func(t relation.Tuple) {
		if q.Where.Eval(t.Values) {
			ids = append(ids, t.ID)
		}
	})
	return ids
}

// Clone implements Query.
func (q *Delete) Clone() Query { return &Delete{Where: q.Where.Clone()} }

// String implements Query.
func (q *Delete) String(s *relation.Schema) string {
	var buf [128]byte
	return string(q.AppendSQL(buf[:0], s))
}

// AppendSQL implements Query.
func (q *Delete) AppendSQL(b []byte, s *relation.Schema) []byte {
	return appendWhere(appendTable(append(b, "DELETE FROM "...), s), q.Where, s)
}

// ReplayAll returns every intermediate state [D0, D1, ..., Dn]. Used by
// tests and the DecTree baseline; QFix itself needs only D0 and Dn.
func ReplayAll(log []Query, d0 *relation.Table) ([]*relation.Table, error) {
	states := make([]*relation.Table, 0, len(log)+1)
	cur := d0.Clone()
	states = append(states, cur)
	for i, q := range log {
		cur = cur.Clone()
		if err := q.Apply(cur); err != nil {
			return nil, fmt.Errorf("query %d (%s): %w", i, q.Kind(), err)
		}
		states = append(states, cur)
	}
	return states, nil
}

// CloneLog deep-copies a query log.
func CloneLog(log []Query) []Query {
	out := make([]Query, len(log))
	for i, q := range log {
		out[i] = q.Clone()
	}
	return out
}
