package query_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/oltp"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/sqlparse"
)

// The reference rendering: the fmt.Sprintf-based String bodies the
// byte-buffer rendering replaced, kept verbatim in behaviour so
// FuzzRenderMatchesFmt can hold the new one to them.

func refFmtNum(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

func refAttr(a int, s *relation.Schema) string {
	if s != nil {
		return s.Attr(a)
	}
	return fmt.Sprintf("a%d", a)
}

func refExpr(e query.LinExpr, s *relation.Schema) string {
	var b strings.Builder
	first := true
	for _, t := range e.Terms {
		name := refAttr(t.Attr, s)
		switch {
		case first && t.Coef == 1:
			b.WriteString(name)
		case first && t.Coef == -1:
			b.WriteString("-" + name)
		case first:
			fmt.Fprintf(&b, "%s * %s", refFmtNum(t.Coef), name)
		case t.Coef == 1:
			b.WriteString(" + " + name)
		case t.Coef == -1:
			b.WriteString(" - " + name)
		case t.Coef < 0:
			fmt.Fprintf(&b, " - %s * %s", refFmtNum(-t.Coef), name)
		default:
			fmt.Fprintf(&b, " + %s * %s", refFmtNum(t.Coef), name)
		}
		first = false
	}
	switch {
	case first:
		b.WriteString(refFmtNum(e.Const))
	case e.Const > 0:
		b.WriteString(" + " + refFmtNum(e.Const))
	case e.Const < 0:
		b.WriteString(" - " + refFmtNum(-e.Const))
	}
	return b.String()
}

func refCond(c query.Cond, s *relation.Schema) string {
	join := func(kids []query.Cond, sep, empty string) string {
		if len(kids) == 0 {
			return empty
		}
		parts := make([]string, len(kids))
		for i, k := range kids {
			parts[i] = refCond(k, s)
			switch k.(type) {
			case *query.And, *query.Or:
				parts[i] = "(" + parts[i] + ")"
			}
		}
		return strings.Join(parts, sep)
	}
	switch c := c.(type) {
	case query.True:
		return "TRUE"
	case *query.Pred:
		return refExpr(c.LHS, s) + " " + c.Op.String() + " " + refFmtNum(c.RHS)
	case *query.And:
		return join(c.Kids, " AND ", "TRUE")
	case *query.Or:
		return join(c.Kids, " OR ", "FALSE")
	}
	panic(fmt.Sprintf("refCond: %T", c))
}

func refStmt(q query.Query, s *relation.Schema) string {
	name := "t"
	if s != nil {
		name = s.Name()
	}
	where := func(c query.Cond) string {
		if _, isTrue := c.(query.True); isTrue {
			return ""
		}
		return " WHERE " + refCond(c, s)
	}
	switch q := q.(type) {
	case *query.Update:
		parts := make([]string, len(q.Set))
		for i, sc := range q.Set {
			parts[i] = refAttr(sc.Attr, s) + " = " + refExpr(sc.Expr, s)
		}
		return "UPDATE " + name + " SET " + strings.Join(parts, ", ") + where(q.Where)
	case *query.Insert:
		parts := make([]string, len(q.Values))
		for i, v := range q.Values {
			parts[i] = refFmtNum(v)
		}
		return "INSERT INTO " + name + " VALUES (" + strings.Join(parts, ", ") + ")"
	case *query.Delete:
		return "DELETE FROM " + name + where(q.Where)
	}
	panic(fmt.Sprintf("refStmt: %T", q))
}

// renderValues are the float64s whose rendering is easiest to get wrong:
// signed zeros, both sides of the 1e15 switch from %d to %g, the first
// power of ten %g writes with an exponent, the subnormals, the largest
// finite value and the non-finite ones.
var renderValues = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, -2.5, 0.3, 1e-7,
	1e15 - 1, -(1e15 - 1), 1e15, -1e15, 1e15 + 2, 1e20, 1e21, -1e21, 123456789e13,
	1 << 53, 1<<53 + 2, 1 << 63, -(1 << 63),
	5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308, math.MaxFloat64,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

// renderSource draws statements over three attributes whose constants
// come from renderValues, the fuzzed value and ordinary numbers.
type renderSource struct {
	rng   *rand.Rand
	extra float64
}

func (r *renderSource) val() float64 {
	switch r.rng.Intn(4) {
	case 0:
		return renderValues[r.rng.Intn(len(renderValues))]
	case 1:
		return r.extra
	case 2:
		return float64(r.rng.Intn(2001) - 1000)
	}
	return r.rng.NormFloat64() * math.Pow(10, float64(r.rng.Intn(40)-20))
}

func (r *renderSource) expr(minTerms int) query.LinExpr {
	terms := make([]query.Term, minTerms+r.rng.Intn(3))
	for i := range terms {
		coef := []float64{1, -1, r.val()}[r.rng.Intn(3)]
		terms[i] = query.Term{Attr: r.rng.Intn(3), Coef: coef}
	}
	e := query.NewLinExpr(r.val(), terms...)
	if len(e.Terms) == 0 && minTerms > 0 {
		e = query.AttrExpr(r.rng.Intn(3))
	}
	return e
}

func (r *renderSource) cond(depth int) query.Cond {
	switch n := r.rng.Intn(6); {
	case n == 0:
		return query.True{}
	case n <= 2 && depth < 3:
		kids := make([]query.Cond, r.rng.Intn(4))
		for i := range kids {
			kids[i] = r.cond(depth + 1)
		}
		if n == 1 {
			return query.NewAnd(kids...)
		}
		return query.NewOr(kids...)
	}
	return query.NewPred(r.expr(1), query.CmpOp(r.rng.Intn(5)), r.val())
}

func (r *renderSource) stmt() query.Query {
	switch r.rng.Intn(3) {
	case 0:
		set := make([]query.SetClause, r.rng.Intn(3)+1)
		for i := range set {
			set[i] = query.SetClause{Attr: r.rng.Intn(3), Expr: r.expr(0)}
		}
		return query.NewUpdate(set, r.cond(0))
	case 1:
		return query.NewInsert(r.val(), r.val(), r.val())
	}
	return query.NewDelete(r.cond(0))
}

// finite reports whether every constant of q is finite: only those
// statements have SQL text the parser reads back.
func finite(q query.Query) bool {
	for _, p := range q.Params() {
		if math.IsNaN(p) || math.IsInf(p, 0) {
			return false
		}
	}
	ok := true
	check := func(e query.LinExpr) {
		for _, t := range e.Terms {
			ok = ok && !math.IsNaN(t.Coef) && !math.IsInf(t.Coef, 0)
		}
	}
	switch q := q.(type) {
	case *query.Update:
		for _, sc := range q.Set {
			check(sc.Expr)
		}
		query.WalkPreds(q.Where, func(p *query.Pred) { check(p.LHS) })
	case *query.Delete:
		query.WalkPreds(q.Where, func(p *query.Pred) { check(p.LHS) })
	}
	return ok
}

// FuzzRenderMatchesFmt holds the byte-buffer rendering of statements to
// the fmt-based one it replaced: for a float64 bit pattern, an INSERT of
// it and a SET to it, and for a seed, random UPDATE, INSERT and DELETE
// statements whose constants mix that value with renderValues, must
// print byte for byte the same, with no schema and with a named one.
// Statements with finite constants must also be a fixpoint of
// print → sqlparse → print, which is how the fleet's workers and the
// history store read them back.
func FuzzRenderMatchesFmt(f *testing.F) {
	for i, v := range renderValues {
		f.Add(math.Float64bits(v), int64(i))
	}
	named := relation.MustSchema("Taxes", []string{"income", "owed", "pay"}, "")
	plain := relation.MustSchema("t", []string{"a0", "a1", "a2"}, "")
	f.Fuzz(func(t *testing.T, bits uint64, seed int64) {
		v := math.Float64frombits(bits)
		r := &renderSource{rng: rand.New(rand.NewSource(seed)), extra: v}
		qs := []query.Query{
			query.NewInsert(v, -v, 0),
			query.NewUpdate([]query.SetClause{{Attr: 1, Expr: query.NewLinExpr(v, query.Term{Attr: 0, Coef: v})}},
				query.AttrPred(2, query.GE, v)),
		}
		for range 4 {
			qs = append(qs, r.stmt())
		}
		for _, q := range qs {
			for _, s := range []*relation.Schema{nil, named} {
				got, want := q.String(s), refStmt(q, s)
				if got != want {
					t.Fatalf("rendering %#v\n got %q\nwant %q", q, got, want)
				}
				if app := q.AppendSQL([]byte("*> "), s); string(app) != "*> "+want {
					t.Fatalf("appending %#v\n got %q\nwant %q", q, app, "*> "+want)
				}
				if !finite(q) {
					continue
				}
				parseWith := s
				if s == nil {
					parseWith = plain
				}
				q2, err := sqlparse.Parse(parseWith, got)
				if err != nil {
					t.Fatalf("%q does not parse back: %v", got, err)
				}
				if p, p2 := q.Params(), q2.Params(); !slices.Equal(p, p2) {
					t.Fatalf("%q reads back with parameters %v, want %v", got, p2, p)
				}
				// The parser drops TRUE conjuncts and redundant parentheses,
				// so the first print of a generated tree may differ from the
				// second; from there on printing and parsing must agree.
				printed := q2.String(s)
				q3, err := sqlparse.Parse(parseWith, printed)
				if err != nil {
					t.Fatalf("%q does not parse back: %v", printed, err)
				}
				if again := q3.String(s); again != printed {
					t.Fatalf("print → parse → print moved\n%q\n%q", printed, again)
				}
			}
		}
	})
}

// BenchmarkRenderLog prints a TPC-C log of 1,200 statements into one
// buffer: through AppendSQL, as the CLI prints a repaired log, and, for
// reference, through String, a string per statement, and through the
// fmt-based rendering String replaced.
func BenchmarkRenderLog(b *testing.B) {
	w := oltp.TPCC(oltp.TPCCConfig{Orders: 2500, Queries: 1200, Seed: 7})
	s := w.D0.Schema()
	for _, r := range []struct {
		name   string
		render func([]byte, query.Query, *relation.Schema) []byte
	}{
		{"append", func(buf []byte, q query.Query, s *relation.Schema) []byte { return q.AppendSQL(buf, s) }},
		{"buffer", func(buf []byte, q query.Query, s *relation.Schema) []byte { return append(buf, q.String(s)...) }},
		{"fmt", func(buf []byte, q query.Query, s *relation.Schema) []byte { return append(buf, refStmt(q, s)...) }},
	} {
		b.Run(r.name, func(b *testing.B) {
			b.ReportAllocs()
			var buf []byte
			for b.Loop() {
				buf = buf[:0]
				for _, q := range w.Log {
					buf = r.render(buf, q, s)
				}
				if len(buf) == 0 {
					b.Fatal("empty rendering")
				}
			}
		})
	}
}
