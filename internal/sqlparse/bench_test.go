package sqlparse_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/oltp"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/sqlparse"
	"repro/internal/workload"
)

// BenchmarkParseLog times parsing an OLTP history from its SQL text, as
// the qfix CLI does on every run: a TPC-C ORDER log (INSERTs of seven
// values, two-conjunct point UPDATEs) and a TATP SUBSCRIBER log (point
// UPDATEs), 1200 and 1100 statements.
func BenchmarkParseLog(b *testing.B) {
	for name, w := range map[string]*workload.Workload{
		"tpcc": oltp.TPCC(oltp.TPCCConfig{Orders: 2500, Queries: 1200, Seed: 7}),
		"tatp": oltp.TATP(oltp.TATPConfig{Subscribers: 2000, Queries: 1100, Seed: 8}),
	} {
		var sql strings.Builder
		for _, q := range w.Log {
			sql.WriteString(q.String(w.Schema) + ";\n")
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(sql.Len()))
			for b.Loop() {
				log, err := sqlparse.ParseLog(w.Schema, sql.String())
				if err != nil || len(log) != len(w.Log) {
					b.Fatalf("%d statements, error %v", len(log), err)
				}
			}
		})
	}
}

// TestParseLogAllocsPerInsert pins what an INSERT costs the parser: the
// Insert and its values, one allocation each, the values in a slice of
// the schema's width that the Insert keeps as it is, and the log sized
// once from the semicolons. The count covers positive, negative,
// fractional and exponent constants, which all lex to one number token.
func TestParseLogAllocsPerInsert(t *testing.T) {
	sch := relation.MustSchema("t", []string{"a", "b", "c", "d", "e"}, "")
	const n = 500
	var sql strings.Builder
	for i := range n {
		fmt.Fprintf(&sql, "INSERT INTO t VALUES (%d, -%d, %d.25, 1e%d, -(%d));\n", i, i, i, i%5, i)
	}
	text := sql.String()
	allocs := testing.AllocsPerRun(5, func() {
		log, err := sqlparse.ParseLog(sch, text)
		if err != nil || len(log) != n {
			t.Fatalf("%d statements, error %v", len(log), err)
		}
	})
	// The parser itself and the log are the two allocations not per INSERT.
	if allocs > 2*n+2 {
		t.Errorf("ParseLog of %d INSERTs: %.0f allocations, want at most %d (two per INSERT, two per log)", n, allocs, 2*n+2)
	}
}

// TestParseLogAllocsPerPredicate pins what a WHERE predicate with a
// constant side costs the parser: the constant folds into the freshly
// parsed left side, where subtracting it as an expression copied the
// left side's terms. ParseLog of BenchmarkParseLog's TATP log allocated
// 6,047 times with the copy, one per predicate more than now.
func TestParseLogAllocsPerPredicate(t *testing.T) {
	w := oltp.TATP(oltp.TATPConfig{Subscribers: 2000, Queries: 1100, Seed: 8})
	var sql strings.Builder
	preds := 0
	for _, q := range w.Log {
		sql.WriteString(q.String(w.Schema) + ";\n")
		switch q := q.(type) {
		case *query.Update:
			query.WalkPreds(q.Where, func(*query.Pred) { preds++ })
		case *query.Delete:
			query.WalkPreds(q.Where, func(*query.Pred) { preds++ })
		}
	}
	text := sql.String()
	allocs := testing.AllocsPerRun(3, func() {
		log, err := sqlparse.ParseLog(w.Schema, text)
		if err != nil || len(log) != len(w.Log) {
			t.Fatalf("%d statements, error %v", len(log), err)
		}
	})
	const withCopy = 6047
	if allocs > withCopy-float64(preds) {
		t.Errorf("ParseLog of the TATP log: %.0f allocations, want at most %d (%d, one fewer per each of its %d predicates)",
			allocs, withCopy-preds, withCopy, preds)
	}
}
