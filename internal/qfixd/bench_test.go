package qfixd

import (
	"fmt"
	"testing"

	"repro/internal/oltp"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/workload"
)

// benchTenant loads one long-log TATP history (a `long` tenant of the
// daemon_mixed workload: ~120 subscribers, ~1 000 point UPDATEs, the
// last one corrupted) into a loopback daemon and stages its complaints.
func benchTenant(b *testing.B) (*Client, *workload.Instance) {
	b.Helper()
	_, addr := startDaemon(b, Config{})
	c := dialDaemon(b, addr)

	w := oltp.TATP(oltp.TATPConfig{Subscribers: 115, Queries: 986, Seed: 5000})
	in, err := w.MakeInstance(len(w.Log) - 1)
	if err != nil {
		b.Fatal(err)
	}
	sch := w.Schema
	var rows [][]float64
	w.D0.Rows(func(tp relation.Tuple) { rows = append(rows, tp.Values) })
	if err := c.Create("bench", sch.Name(), sch.Attr(sch.Key()), sch.Attrs(), rows); err != nil {
		b.Fatal(err)
	}
	sql := make([]string, len(in.Dirty))
	for i, q := range in.Dirty {
		sql[i] = q.String(sch)
	}
	if err := c.Append("bench", sql...); err != nil {
		b.Fatal(err)
	}
	if err := c.Complain("bench", in.Complaints); err != nil {
		b.Fatal(err)
	}
	return c, in
}

func benchDiagnose(b *testing.B, c *Client, wantLog int) {
	b.Helper()
	resp, err := c.Diagnose("bench", nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	if !resp.Resolved || len(resp.Log) != wantLog {
		b.Fatalf("resolved=%v, %d statements, want %d", resp.Resolved, len(resp.Log), wantLog)
	}
}

// BenchmarkDaemonRepeat is the audit repeated with nothing changed: a
// round trip, a memo lookup, one write and the client's decode.
func BenchmarkDaemonRepeat(b *testing.B) {
	c, in := benchTenant(b)
	benchDiagnose(b, c, len(in.Dirty))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchDiagnose(b, c, len(in.Dirty))
	}
}

// BenchmarkDaemonAppendDiagnose is the other half of the traffic: one
// durable append (a point UPDATE no complaint depends on), then the
// diagnosis of the grown log, which runs the engine and renders the
// answer from the store's text.
func BenchmarkDaemonAppendDiagnose(b *testing.B) {
	c, in := benchTenant(b)
	benchDiagnose(b, c, len(in.Dirty))
	sch := in.W.Schema
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// msc_location (attribute 4) is never read or written by the
		// generated history, and subscriber 1 is not a complaint's.
		stmt := query.NewUpdate(
			[]query.SetClause{{Attr: 4, Expr: query.ConstExpr(float64(i))}},
			query.AttrPred(sch.Key(), query.EQ, 1)).String(sch)
		if err := c.Append("bench", stmt); err != nil {
			b.Fatal(fmt.Errorf("append %d: %w", i, err))
		}
		benchDiagnose(b, c, len(in.Dirty)+i+1)
	}
}
