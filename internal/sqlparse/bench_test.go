package sqlparse_test

import (
	"strings"
	"testing"

	"repro/internal/oltp"
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
