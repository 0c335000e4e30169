package query_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/oltp"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/workload"
)

// scanReplay is the reference semantics of a replay: every statement
// applied to the whole table, no executor in between.
func scanReplay(log []query.Query, d0 *relation.Table) (*relation.Table, error) {
	cur := d0.Clone()
	for i, q := range log {
		if err := q.Apply(cur); err != nil {
			return nil, fmt.Errorf("query %d (%s): %w", i, q.Kind(), err)
		}
	}
	return cur, nil
}

// checkReplay replays the log through query.Replay (which indexes what
// the log's size earns) and with every attribute indexed, and requires
// of both what the scan leaves: the same error, or the same table value
// for value (bit patterns, so NaN and -0 count), ID for ID, in row
// order, with the same ID counter.
func checkReplay(t testing.TB, what string, log []query.Query, d0 *relation.Table) {
	t.Helper()
	want, wantErr := scanReplay(log, d0)
	for _, r := range []struct {
		name   string
		replay func([]query.Query, *relation.Table) (*relation.Table, error)
	}{{"Replay", query.Replay}, {"indexed replay", query.ReplayIndexed}} {
		got, err := r.replay(log, d0)
		if wantErr != nil || err != nil {
			if wantErr == nil || err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("%s, %s: error %v, the scan's is %v", what, r.name, err, wantErr)
			}
			continue
		}
		if got.NextID() != want.NextID() || got.Len() != want.Len() {
			t.Fatalf("%s, %s: %d rows, next ID %d; the scan leaves %d rows, next ID %d",
				what, r.name, got.Len(), got.NextID(), want.Len(), want.NextID())
		}
		for i := 0; i < want.Len(); i++ {
			g, w := got.At(i), want.At(i)
			if g.ID != w.ID {
				t.Fatalf("%s, %s: row %d is tuple %d, the scan has tuple %d", what, r.name, i, g.ID, w.ID)
			}
			for a := range w.Values {
				if math.Float64bits(g.Values[a]) != math.Float64bits(w.Values[a]) {
					t.Fatalf("%s, %s: tuple %d attribute %d = %v, the scan has %v",
						what, r.name, g.ID, a, g.Values[a], w.Values[a])
				}
			}
		}
	}
}

var replaySchema = relation.MustSchema("t", []string{"k", "a", "b"}, "k")

// logSource turns bytes into a table and a log over replaySchema; past
// the end it reads zeros. Values come from a domain of a few small
// integers (so keys repeat, SETs land on values other rows hold, and
// INSERTs land in live buckets) plus -0, NaN and non-integers.
type logSource struct{ b []byte }

func (s *logSource) next() int {
	if len(s.b) == 0 {
		return 0
	}
	v := s.b[0]
	s.b = s.b[1:]
	return int(v)
}

func (s *logSource) val() float64 {
	switch v := s.next() % 12; v {
	case 8:
		return math.Copysign(0, -1)
	case 9:
		return math.NaN()
	case 10:
		return 0.5
	case 11:
		return 2.5
	default:
		return float64(v % 4)
	}
}

func (s *logSource) attr() int { return s.next() % replaySchema.Width() }

// pred is mostly "attr = c", otherwise a range or an equality the
// executor must not take for a point predicate.
func (s *logSource) pred() *query.Pred {
	a, c := s.attr(), s.val()
	switch s.next() % 10 {
	case 0:
		return query.AttrPred(a, query.LE, c)
	case 1:
		return query.AttrPred(a, query.GT, c)
	case 2:
		return query.NewPred(query.NewLinExpr(0, query.Term{Attr: a, Coef: 2}), query.EQ, c)
	case 3:
		return query.NewPred(query.NewLinExpr(0, query.Term{Attr: a, Coef: 1}, query.Term{Attr: (a + 1) % 3, Coef: 1}), query.EQ, c)
	case 4:
		return query.NewPred(query.NewLinExpr(1, query.Term{Attr: a, Coef: 1}), query.EQ, c)
	default:
		return query.AttrPred(a, query.EQ, c)
	}
}

func (s *logSource) cond() query.Cond {
	switch s.next() % 8 {
	case 0:
		return query.True{}
	case 1:
		return query.NewOr(s.pred(), s.pred())
	case 2:
		return query.NewAnd(s.pred(), s.pred())
	case 3:
		return query.NewAnd(s.pred(), query.NewOr(s.pred(), s.pred()), s.pred())
	default:
		return s.pred()
	}
}

func (s *logSource) expr() query.LinExpr {
	switch s.next() % 4 {
	case 0:
		return query.NewLinExpr(s.val(), query.Term{Attr: s.attr(), Coef: 1})
	case 1:
		return query.NewLinExpr(0, query.Term{Attr: s.attr(), Coef: 2})
	default:
		return query.ConstExpr(s.val())
	}
}

func (s *logSource) stmt() query.Query {
	switch k := s.next() % 16; {
	case k < 8:
		set := []query.SetClause{{Attr: s.attr(), Expr: s.expr()}}
		if k%2 == 1 {
			set = append(set, query.SetClause{Attr: s.attr(), Expr: s.expr()})
		}
		return query.NewUpdate(set, s.cond())
	case k < 12:
		return query.NewInsert(s.val(), s.val(), s.val())
	case k < 15:
		return query.NewDelete(s.cond())
	default: // now and then a SET on an attribute the schema does not have
		a := s.attr()
		if s.next()%16 == 0 {
			a += replaySchema.Width()
		}
		return query.NewUpdate([]query.SetClause{{Attr: a, Expr: s.expr()}}, s.cond())
	}
}

func (s *logSource) build(maxRows, maxStmts int) (*relation.Table, []query.Query) {
	d0 := relation.NewTable(replaySchema)
	for n := s.next() % (maxRows + 1); n > 0; n-- {
		d0.MustInsert(s.val(), s.val(), s.val())
	}
	log := make([]query.Query, s.next()%(maxStmts+1))
	for i := range log {
		log[i] = s.stmt()
	}
	return d0, log
}

// checkReplayBytes builds a table and a log from data, checks the
// replays, then moves the last constant of every statement (a WHERE
// constant, wherever there is a predicate) and checks them again: an
// executor is made per replay and must read the constants of the day.
func checkReplayBytes(t testing.TB, data []byte, maxRows, maxStmts int) {
	t.Helper()
	d0, log := (&logSource{b: data}).build(maxRows, maxStmts)
	checkReplay(t, "generated log", log, d0)
	for _, q := range log {
		if p := q.Params(); len(p) > 0 {
			p[len(p)-1]++
			if err := q.SetParams(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	checkReplay(t, "generated log, constants moved", log, d0)
}

// TestReplayMatchesScan is the differential property on generated logs:
// tiny ones, where only the forced index runs, and ones long enough that
// query.Replay indexes on its own.
func TestReplayMatchesScan(t *testing.T) {
	for _, size := range [][2]int{{8, 12}, {90, 120}} {
		f := func(seed int64) bool {
			data := make([]byte, 16*(size[0]+size[1]))
			rand.New(rand.NewSource(seed)).Read(data)
			checkReplayBytes(t, data, size[0], size[1])
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReplayIndexMaintenance spells out the cases the index has to
// survive, each on a table small enough to read.
func TestReplayIndexMaintenance(t *testing.T) {
	point := func(attr int, c float64) query.Cond { return query.AttrPred(attr, query.EQ, c) }
	set := func(attr int, e query.LinExpr) []query.SetClause {
		return []query.SetClause{{Attr: attr, Expr: e}}
	}
	inc := func(attr int) query.LinExpr { return query.NewLinExpr(1, query.Term{Attr: attr, Coef: 1}) }
	d0 := relation.NewTable(replaySchema)
	for _, k := range []float64{1, 2, 2, 3, 5, 5, 5} {
		d0.MustInsert(k, 10*k, 0)
	}
	for name, log := range map[string][]query.Query{
		"key rewritten inside the bucket being walked": {
			query.NewUpdate(set(0, inc(0)), point(0, 5)), // every 5 becomes 6
			query.NewUpdate(set(1, query.ConstExpr(-1)), point(0, 6)),
			query.NewUpdate(set(1, query.ConstExpr(-2)), point(0, 5)), // matches nothing now
		},
		"key moved onto a value another row holds, and back": {
			query.NewUpdate(set(0, query.ConstExpr(2)), point(0, 1)),
			query.NewUpdate(set(2, inc(2)), point(0, 2)), // three rows, each once
			query.NewUpdate(set(0, query.ConstExpr(1)), query.NewAnd(point(0, 2), point(1, 10))),
			query.NewUpdate(set(2, inc(2)), point(0, 2)),
			query.NewUpdate(set(2, inc(2)), point(0, 1)),
		},
		"key written twice by one statement": {
			query.NewUpdate([]query.SetClause{{Attr: 0, Expr: query.ConstExpr(9)}, {Attr: 0, Expr: query.ConstExpr(3)}}, point(0, 2)),
			query.NewUpdate(set(2, inc(2)), point(0, 3)),
			query.NewUpdate(set(2, inc(2)), point(0, 9)),
		},
		"scanning UPDATE rewrites the key": {
			query.NewUpdate(set(1, inc(1)), point(0, 2)), // index built
			query.NewUpdate(set(0, inc(0)), query.AttrPred(0, query.GE, 2)),
			query.NewUpdate(set(1, inc(1)), point(0, 2)), // nothing holds 2 any more
			query.NewUpdate(set(1, inc(1)), point(0, 3)),
		},
		"INSERT into a live bucket, DELETEs by point and by range": {
			query.NewUpdate(set(1, inc(1)), point(0, 5)),
			query.NewInsert(5, 0, 0),
			query.NewUpdate(set(1, inc(1)), point(0, 5)),
			query.NewDelete(query.NewAnd(point(0, 5), query.AttrPred(1, query.GE, 50))),
			query.NewUpdate(set(1, inc(1)), point(0, 5)),
			query.NewDelete(query.AttrPred(0, query.LE, 2)),
			query.NewUpdate(set(1, inc(1)), point(0, 2)),
			query.NewInsert(2, 0, 0),
			query.NewDelete(point(0, 2)),
			query.NewInsert(2, 7, 7),
		},
		"NaN, -0 and a fraction as keys": {
			query.NewUpdate(set(0, query.ConstExpr(math.NaN())), point(0, 1)),
			query.NewUpdate(set(1, inc(1)), point(0, math.NaN())), // NaN equals nothing
			query.NewUpdate(set(0, query.ConstExpr(math.Copysign(0, -1))), point(0, 3)),
			query.NewUpdate(set(1, inc(1)), point(0, 0)), // -0 = 0
			query.NewUpdate(set(0, query.ConstExpr(0)), point(0, 0)),
			query.NewUpdate(set(0, query.ConstExpr(0.5)), point(0, math.Copysign(0, -1))),
			query.NewUpdate(set(1, inc(1)), point(0, 0.5)),
		},
		"SET attribute out of range, after indexed statements": {
			query.NewUpdate(set(1, inc(1)), point(0, 5)),
			query.NewUpdate(set(7, query.ConstExpr(1)), point(0, 5)),
		},
	} {
		checkReplay(t, name, log, d0)
	}

	_, err := query.ReplayIndexed([]query.Query{
		query.NewInsert(1, 1, 1),
		query.NewUpdate(set(3, query.ConstExpr(1)), point(0, 5)),
	}, d0)
	if want := "query 1 (UPDATE): query: SET attribute 3 out of range [0,3)"; err == nil || err.Error() != want {
		t.Errorf("indexed UPDATE with a bad SET attribute: error %v, want %q", err, want)
	}
}

// oltpLogs is every internal/oltp generator at two sizes, one of which
// the executor indexes.
func oltpLogs() map[string]*workload.Workload {
	return map[string]*workload.Workload{
		"tpcc small": oltp.TPCC(oltp.TPCCConfig{Orders: 60, Queries: 40, Seed: 11}),
		"tpcc":       oltp.TPCC(oltp.TPCCConfig{Orders: 2500, Queries: 1200, Seed: 7}),
		"tatp small": oltp.TATP(oltp.TATPConfig{Subscribers: 12, Queries: 30, Seed: 12}),
		"tatp":       oltp.TATP(oltp.TATPConfig{Subscribers: 2000, Queries: 1100, Seed: 8}),
	}
}

func TestReplayMatchesScanOLTP(t *testing.T) {
	for name, w := range oltpLogs() {
		checkReplay(t, name, w.Log, w.D0)
		// And a corrupted history, as a diagnosis replays it.
		for i := len(w.Log) - 1; i >= 0; i-- {
			if _, ok := w.Log[i].(*query.Update); ok {
				in, err := w.MakeInstance(i)
				if err != nil {
					t.Fatal(err)
				}
				checkReplay(t, name+", corrupted", in.Dirty, w.D0)
				break
			}
		}
	}
}

// TestReplayIndexingRule pins which attributes a replay indexes: the
// key of a point-statement history, unless the table is tiny or the
// point statements few; nothing for range statements however many.
func TestReplayIndexingRule(t *testing.T) {
	logs := oltpLogs()
	logs["tatp 40x30"] = oltp.TATP(oltp.TATPConfig{Subscribers: 40, Queries: 30, Seed: 12})
	logs["tatp 40x15"] = oltp.TATP(oltp.TATPConfig{Subscribers: 40, Queries: 15, Seed: 12})
	for name, want := range map[string][]int{
		"tatp":       {0},    // WHERE s_id = c
		"tpcc":       {0, 1}, // WHERE o_id = c AND o_d_id = d
		"tatp 40x30": {0},
		"tatp 40x15": nil, // too few statements to pay for the build
		"tatp small": nil, // 12 rows: a scan is as cheap as a lookup
		"tpcc small": nil, // three UPDATEs among the INSERTs
	} {
		if got := query.IndexedAttrs(logs[name].Log, logs[name].D0); !slices.Equal(got, want) {
			t.Errorf("%s: indexed attributes %v, want %v", name, got, want)
		}
	}
	w, err := workload.Generate(workload.Config{ND: 500, Nq: 300, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := query.IndexedAttrs(w.Log, w.D0); got != nil {
		t.Errorf("range-UPDATE workload: indexed attributes %v, want none", got)
	}
}

// FuzzReplayIndexed: at most 8 rows and 12 statements over 3
// attributes, decoded from the input by logSource.
func FuzzReplayIndexed(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x04\x01\x00\x00\x05\x01\x00\x05\x02\x00\x05\x03\x00\x03\x00\x00\x00\x01\x04\x00\x05\x09"))
	// Rows (0,0,0), (1,1,0), (2,0,1). DELETE WHERE a = 0.5 builds a's
	// index; UPDATE SET a = 3 WHERE k = 0 moves the first row from a's
	// chain of 0 to its chain of 3; DELETE WHERE a = 0 must still find
	// the third row on the chain the first one left, and DELETE WHERE
	// a = 3 the first row on the chain it joined.
	f.Add([]byte{3, 0, 0, 0, 1, 1, 0, 2, 0, 1, 4,
		12, 4, 1, 10, 5,
		0, 1, 2, 3, 4, 0, 0, 5,
		12, 4, 1, 0, 5,
		12, 4, 1, 3, 5})
	// Rows (0,0,0), (1,0,0). UPDATE SET b = 1 WHERE a = 0 builds a's
	// index; the first row's a goes to NaN (on no chain) and back to 0,
	// the second row's to 2 and back to 0; then UPDATE SET b = b + 1
	// WHERE a = 0 must bump each row once, each listed on the chain once.
	f.Add([]byte{2, 0, 0, 0, 1, 0, 0, 6,
		0, 2, 2, 1, 4, 1, 0, 5,
		0, 1, 2, 9, 4, 0, 0, 5,
		0, 1, 2, 0, 4, 0, 0, 5,
		0, 1, 2, 2, 4, 0, 1, 5,
		0, 1, 2, 0, 4, 0, 1, 5,
		0, 2, 0, 1, 2, 4, 1, 0, 5})
	f.Fuzz(func(t *testing.T, data []byte) { checkReplayBytes(t, data, 8, 12) })
}

// BenchmarkReplayOLTP times one replay of an OLTP history through
// query.Replay and, for reference, through the scan it replaces: a TATP
// log of point UPDATEs, an insert-heavy TPC-C log, and a TATP log of 30
// statements over 40 rows, close to where indexing stops paying (Replay
// must not be the slower of the two there).
func BenchmarkReplayOLTP(b *testing.B) {
	for _, c := range []struct {
		name string
		w    *workload.Workload
	}{
		{"tatp", oltp.TATP(oltp.TATPConfig{Subscribers: 2000, Queries: 1100, Seed: 8})},
		{"tpcc", oltp.TPCC(oltp.TPCCConfig{Orders: 2500, Queries: 1200, Seed: 7})},
		{"small", oltp.TATP(oltp.TATPConfig{Subscribers: 40, Queries: 30, Seed: 12})},
	} {
		for _, r := range []struct {
			name   string
			replay func([]query.Query, *relation.Table) (*relation.Table, error)
		}{{"replay", query.Replay}, {"scan", scanReplay}} {
			b.Run(c.name+"/"+r.name, func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					if _, err := r.replay(c.w.Log, c.w.D0); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// TestReplayAllocationsBounded: what a replay allocates does not grow
// with its log. The table's clone, the executor's scratch and each
// index (its map and its one slice of entries) come to a few dozen
// allocations on BenchmarkReplayOLTP's TPC-C and TATP logs, where a
// slice per indexed value took 1,848 and 2,017.
func TestReplayAllocationsBounded(t *testing.T) {
	logs := oltpLogs()
	for _, name := range []string{"tpcc", "tatp"} {
		w := logs[name]
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := query.Replay(w.Log, w.D0); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 40 {
			t.Errorf("%s: a replay of %d statements over %d rows allocated %.0f times, want at most 40",
				name, len(w.Log), w.D0.Len(), allocs)
		}
	}
}

// TestDeleteMatchesPerRowLoop: a DELETE matching half of 10 000 rows
// leaves the table, its order and its ID counter as deleting the
// matching rows one at a time does.
func TestDeleteMatchesPerRowLoop(t *testing.T) {
	d0 := relation.NewTable(replaySchema)
	for i := 0; i < 10000; i++ {
		d0.MustInsert(float64(i), float64(i*7%10), 0)
	}
	del := query.NewDelete(query.AttrPred(1, query.LT, 5))
	want := d0.Clone()
	for _, id := range want.IDs() {
		if tp, _ := want.Get(id); del.Where.Eval(tp.Values) {
			want.Delete(id)
		}
	}
	got := d0.Clone()
	if err := del.Apply(got); err != nil {
		t.Fatal(err)
	}
	if got.Len() != 5000 || got.NextID() != want.NextID() || !slices.Equal(got.IDs(), want.IDs()) {
		t.Fatalf("DELETE left %d rows, next ID %d; the per-row loop %d rows, next ID %d (or another order)",
			got.Len(), got.NextID(), want.Len(), want.NextID())
	}
	if d := relation.DiffTables(want, got, 0); len(d) != 0 {
		t.Fatalf("%d tuples differ from the per-row loop", len(d))
	}
}
