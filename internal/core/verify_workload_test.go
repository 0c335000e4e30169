// External test: the tuple-wise verification a diagnosis runs on every
// candidate repair, held to the full replay it replaces — Replay of the
// candidate from D0 and DiffTables against the dirty final state — on
// the paper's generator, the OLTP generators, hand-built cases and
// fuzzed logs.
package core_test

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/encode"
	"repro/internal/oltp"
	"repro/internal/query"
	"repro/internal/relation"
)

// sameValues compares two rows bit for bit.
func sameValues(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// sameTuple compares two optional tuples by ID and bits.
func sameTuple(a, b *relation.Tuple) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.ID == b.ID && sameValues(a.Values, b.Values)
}

// checkVerify verifies repaired, a repair of the verifier's log, and
// holds every part a diagnosis reads to the full replay: the diff is
// DiffTables(dirty final, Replay(repaired, d0), 1e-9) ID for ID and bit
// for bit, the final view is the replayed table row for row, and the
// complaint verdict and the refinement's domain bound are what the
// replayed table gives them.
func checkVerify(t testing.TB, name string, v *core.Verifier, d0 *relation.Table, repaired []query.Query, complaints []core.Complaint) {
	t.Helper()
	ref, err := query.Replay(repaired, d0)
	got := v.Verify(repaired)
	if err != nil || !got.OK {
		if (err == nil) != got.OK {
			t.Errorf("%s: verification ok=%v, replay error %v", name, got.OK, err)
		}
		return
	}
	want := relation.DiffTables(v.DirtyFinal(), ref, 1e-9)
	if len(got.Diff) != len(want) {
		t.Errorf("%s: %d diffs, replay has %d", name, len(got.Diff), len(want))
	}
	for i := range min(len(got.Diff), len(want)) {
		g, w := got.Diff[i], want[i]
		if g.ID != w.ID || !sameTuple(g.Before, w.Before) || !sameTuple(g.After, w.After) {
			t.Errorf("%s: diff %d is %+v, replay's %+v", name, i, g, w)
			break
		}
	}
	ref.Rows(func(r relation.Tuple) {
		if g, ok := got.Final(r.ID); !ok || !sameValues(g.Values, r.Values) {
			t.Errorf("%s: final row %d is %v (live %v), replay's %v", name, r.ID, g.Values, ok, r.Values)
		}
	})
	v.DirtyFinal().Rows(func(r relation.Tuple) {
		if _, ok := got.Final(r.ID); ok && !refHas(ref, r.ID) {
			t.Errorf("%s: row %d is in the final view, not in the replay", name, r.ID)
		}
	})
	for i, r := range got.Rows {
		if i > 0 && r.ID <= got.Rows[i-1].ID {
			t.Errorf("%s: rows out of ID order at %d", name, r.ID)
		}
		if r.Values != nil && !refHas(ref, r.ID) {
			t.Errorf("%s: row %d is in the final view, not in the replay", name, r.ID)
		}
	}
	if w := core.ComplaintsResolved(ref, complaints, 1e-6); got.Resolved() != w {
		t.Errorf("%s: resolved=%v, the replay says %v", name, got.Resolved(), w)
	}
	if w := encode.DomainBound(d0, repaired, ref); math.Float64bits(got.Bound()) != math.Float64bits(w) {
		t.Errorf("%s: domain bound %v, the replay gives %v", name, got.Bound(), w)
	}
}

func refHas(tb *relation.Table, id int64) bool {
	_, ok := tb.Pos(id)
	return ok
}

// rewrite returns log with n of its statements rewritten: each picked
// statement is cloned and some of its constants moved by up to ±spread
// (a clone may keep every constant, which counts as no rewrite). Picks
// are drawn from idx when it is not empty.
func rewrite(rng *rand.Rand, log []query.Query, n int, spread int, idx []int) []query.Query {
	out := slices.Clone(log)
	for range n {
		k := rng.Intn(len(log))
		if len(idx) > 0 {
			k = idx[rng.Intn(len(idx))]
		}
		p := out[k].Params()
		for j := range p {
			if rng.Intn(2) == 0 {
				p[j] += float64(rng.Intn(2*spread+1) - spread)
			}
		}
		q := out[k].Clone()
		if err := q.SetParams(p); err != nil {
			panic(err)
		}
		out[k] = q
	}
	return out
}

// kindAt lists the positions of the log's statements of one kind.
func kindAt(log []query.Query, kind query.Kind) []int {
	var idx []int
	for i, q := range log {
		if q.Kind() == kind {
			idx = append(idx, i)
		}
	}
	return idx
}

// withDeletes interleaves DELETEs into log, each removing the rows whose
// attribute attr holds one of the values D0 has there, so that a log of
// UPDATEs and INSERTs gains rows the dirty suffix deletes.
func withDeletes(rng *rand.Rand, d0 *relation.Table, log []query.Query, attr, n int) []query.Query {
	out := slices.Clone(log)
	for range n {
		v := d0.At(rng.Intn(d0.Len())).Values[attr]
		at := rng.Intn(len(out) + 1)
		out = slices.Insert(out, at, query.Query(query.NewDelete(query.AttrPred(attr, query.EQ, v))))
	}
	return out
}

// TestVerifyMatchesFullReplay holds the tuple-wise verification to the
// full replay on pinned synthetic, TPC-C and TATP instances with one to
// three statements rewritten (WHERE and SET constants, INSERT values,
// DELETE conditions), on hand-built cases, and on partitions verifying
// at once against one history.
func TestVerifyMatchesFullReplay(t *testing.T) {
	type instance struct {
		name       string
		d0         *relation.Table
		dirty      []query.Query
		truth      []query.Query // the uncorrupted log, or nil
		complaints []core.Complaint
		spread     int
	}
	var cases []instance
	for i, in := range pinnedInstances(t) {
		cases = append(cases, instance{name: "pinned" + string(rune('0'+i)), d0: in.W.D0,
			dirty: in.Dirty, truth: in.W.Log, complaints: in.Complaints, spread: 20})
	}
	tp := tpccInstance(t)
	cases = append(cases, instance{"tpcc", tp.W.D0, tp.Dirty, tp.W.Log, tp.Complaints, 3})
	tw := oltp.TATP(oltp.TATPConfig{Subscribers: 1500, Queries: 600, Seed: 3})
	ta, err := tw.MakeInstance(lastUpdate(t, tw.Log))
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, instance{"tatp", ta.W.D0, ta.Dirty, ta.W.Log, ta.Complaints, 3})
	rng := rand.New(rand.NewSource(58))
	cases = append(cases, instance{name: "tpcc-deletes", d0: tp.W.D0,
		dirty: withDeletes(rng, tp.W.D0, tp.Dirty, 0, 12), complaints: tp.Complaints, spread: 3})

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			v, err := core.NewVerifier(c.d0, c.dirty, c.complaints)
			if err != nil {
				t.Fatal(err)
			}
			checkVerify(t, "identity", v, c.d0, c.dirty, c.complaints)
			if c.truth != nil {
				checkVerify(t, "truth", v, c.d0, c.truth, c.complaints)
			}
			rng := rand.New(rand.NewSource(int64(len(c.dirty))))
			for _, kind := range []query.Kind{query.KindUpdate, query.KindInsert, query.KindDelete} {
				idx := kindAt(c.dirty, kind)
				if len(idx) == 0 {
					continue
				}
				for n := 1; n <= 3; n++ {
					for range 4 {
						checkVerify(t, kind.String(), v, c.d0, rewrite(rng, c.dirty, n, c.spread, idx), c.complaints)
					}
				}
			}
		})
	}

	t.Run("hand-built", func(t *testing.T) {
		sch := relation.MustSchema("t", []string{"a", "b"}, "")
		d0 := relation.NewTable(sch)
		d0.MustInsert(5, 0)
		d0.MustInsert(6, 0)
		set := func(attr int, c float64) []query.SetClause {
			return []query.SetClause{{Attr: attr, Expr: query.ConstExpr(c)}}
		}
		dirty := []query.Query{
			query.NewUpdate(set(0, 7), query.AttrPred(0, query.EQ, 5)), // row 1: 5 → 7
			query.NewInsert(3, 1),
			query.NewUpdate(set(1, 9), query.AttrPred(0, query.EQ, 3)), // the inserted row
			query.NewDelete(query.AttrPred(0, query.EQ, 7)),            // row 1, deleted later
			query.NewUpdate(set(1, 2), query.AttrPred(1, query.LE, 1)),
		}
		at := func(k int, p ...float64) []query.Query {
			out := slices.Clone(dirty)
			out[k] = dirty[k].Clone()
			if err := out[k].SetParams(p); err != nil {
				t.Fatal(err)
			}
			return out
		}
		v, err := core.NewVerifier(d0, dirty, nil)
		if err != nil {
			t.Fatal(err)
		}
		for name, rep := range map[string][]query.Query{
			// Row 1 is live at the rewritten UPDATE and deleted by the
			// dirty suffix; the repair no longer moves it onto the DELETE.
			"deleted later, kept": at(0, 7, 4),
			"repaired insert":     at(1, 4, 1),
			"repaired delete":     at(3, 6),
			"same constants":      at(2, 9, 3),
			"set constant":        at(2, 8, 3),
		} {
			checkVerify(t, name, v, d0, rep, nil)
		}
		if got := v.Verify(at(0, 7, 4)); len(got.Rows) == 0 || got.Rows[0].ID != 1 || got.Rows[0].Values == nil {
			t.Errorf("deleted later, kept: rows %+v, want row 1 live", got.Rows)
		}
	})

	// Partitions verify their candidates at once against one history:
	// a partitioned diagnosis, and candidates checked concurrently.
	t.Run("partitioned", func(t *testing.T) {
		w, corrupt, err := bench.PartitionClusters(3, 12, 4, 5)
		if err != nil {
			t.Fatal(err)
		}
		in, err := w.MakeInstance(corrupt...)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := core.Diagnose(in.W.D0, in.Dirty, in.Complaints, core.Options{Algorithm: core.Incremental,
			TupleSlicing: true, QuerySlicing: true, Partition: 3, TimeLimit: 30 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Stats.Partitions < 2 {
			t.Fatalf("setup: %d partitions", rep.Stats.Partitions)
		}
		v, err := core.NewVerifier(in.W.D0, in.Dirty, in.Complaints)
		if err != nil {
			t.Fatal(err)
		}
		checkVerify(t, "repair", v, in.W.D0, rep.Log, in.Complaints)
		var wg sync.WaitGroup
		for g := range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(g)))
				for range 8 {
					checkVerify(t, "concurrent", v, in.W.D0, rewrite(rng, in.Dirty, 1+rng.Intn(3), 30, nil), in.Complaints)
				}
			}()
		}
		wg.Wait()
	})
}

// FuzzVerifyMatchesReplay decodes a D0, a log and a rewrite of it from
// bytes and holds the tuple-wise verification to the full replay.
// Values and constants are small integers, so statements match, miss
// and collide often. The seeds are a row that the dirty suffix deletes
// and the repair keeps, and a repaired INSERT.
func FuzzVerifyMatchesReplay(f *testing.F) {
	// width 1; D0 [5]; UPDATE SET a=7 WHERE a=5; DELETE WHERE a=7; the
	// UPDATE's WHERE constant moved by -1.
	f.Add([]byte{0, 1, 9, 1, 0, 0, 0, 11, 0, 0, 9, 1, 0, 0, 11, 0, 0, 1, 3})
	// width 2; D0 [1 2]; INSERT (3, 4); UPDATE SET a=0 WHERE b=4; the
	// INSERT's second value moved by +1.
	f.Add([]byte{1, 1, 5, 6, 1, 2, 7, 8, 0, 0, 0, 4, 1, 0, 8, 0, 0, 1, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		d0, dirty, repaired := decodeVerifyCase(data)
		v, err := core.NewVerifier(d0, dirty, nil)
		if err != nil {
			t.Fatal(err)
		}
		checkVerify(t, "fuzz", v, d0, repaired, nil)
	})
}

// decodeVerifyCase reads, one byte each and zero past the end: the
// width (1–3), the D0 row count (0–7) and their values, the statement
// count (1–8) and each statement — kind (UPDATE, DELETE, INSERT), then
// for an UPDATE its SET attribute, form (constant or attribute plus
// constant), constant, WHERE attribute, operator and constant, for a
// DELETE its WHERE, for an INSERT its values — and last the rewrite
// count (1–3) and each rewrite: statement, parameter, delta (−4…4).
// Values and constants are b%16 − 4.
func decodeVerifyCase(data []byte) (*relation.Table, []query.Query, []query.Query) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b
	}
	val := func() float64 { return float64(next()%16 - 4) }
	width := 1 + next()%3
	attrs := []string{"a", "b", "c"}[:width]
	d0 := relation.NewTable(relation.MustSchema("t", attrs, ""))
	row := func() []float64 {
		r := make([]float64, width)
		for i := range r {
			r[i] = val()
		}
		return r
	}
	for range next() % 8 {
		d0.MustInsert(row()...)
	}
	ops := []query.CmpOp{query.EQ, query.LE, query.GE, query.LT, query.GT}
	where := func() query.Cond { return query.AttrPred(next()%width, ops[next()%len(ops)], val()) }
	log := make([]query.Query, 1+next()%8)
	for k := range log {
		switch next() % 3 {
		case 0:
			attr := next() % width
			expr := query.ConstExpr(0)
			if next()%2 == 1 {
				expr = query.AttrExpr(attr)
			}
			expr.Const = val()
			log[k] = query.NewUpdate([]query.SetClause{{Attr: attr, Expr: expr}}, where())
		case 1:
			log[k] = query.NewDelete(where())
		default:
			log[k] = query.NewInsert(row()...)
		}
	}
	repaired := slices.Clone(log)
	for range 1 + next()%3 {
		k := next() % len(log)
		p := repaired[k].Params()
		p[next()%len(p)] += float64(next()%9 - 4)
		q := repaired[k].Clone()
		if err := q.SetParams(p); err != nil {
			panic(err)
		}
		repaired[k] = q
	}
	return d0, log, repaired
}

// TestVerifyAllocatesNoTable: verifying a repair of the newest TPC-C
// UPDATE allocates under a tenth of what a clone of D0 does — the clone
// every full replay starts with.
func TestVerifyAllocatesNoTable(t *testing.T) {
	in := tpccInstance(t)
	v, err := core.NewVerifier(in.W.D0, in.Dirty, in.Complaints)
	if err != nil {
		t.Fatal(err)
	}
	repaired := slices.Clone(in.Dirty)
	for _, i := range in.CorruptIdx {
		repaired[i] = in.W.Log[i]
	}
	if got := v.Verify(repaired); !got.Resolved() {
		t.Fatal("setup: the true log does not resolve the complaints")
	}
	bytesPer := func(f func()) uint64 {
		const n = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range n {
			f()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / n
	}
	clone := bytesPer(func() { in.W.D0.Clone() })
	verify := bytesPer(func() { v.Verify(repaired) })
	t.Logf("verification %d B, D0 clone %d B", verify, clone)
	if verify*10 >= clone {
		t.Errorf("verification allocates %d B, not under a tenth of a D0 clone's %d B", verify, clone)
	}
}

// BenchmarkVerify sets the tuple-wise verification of a TPC-C repair
// against the replay and diff it replaces, for a repair of the newest
// UPDATE (age 1) and of the oldest, whose rows are carried through the
// whole log.
func BenchmarkVerify(b *testing.B) {
	in := tpccInstance(b)
	ups := kindAt(in.Dirty, query.KindUpdate)
	for _, c := range []struct {
		name string
		k    int
	}{{"age1", ups[len(ups)-1]}, {"oldest", ups[0]}} {
		repaired := slices.Clone(in.Dirty)
		p := repaired[c.k].Params()
		p[len(p)-1]++ // the WHERE's last constant: another order
		repaired[c.k] = repaired[c.k].Clone()
		if err := repaired[c.k].SetParams(p); err != nil {
			b.Fatal(err)
		}
		v, err := core.NewVerifier(in.W.D0, in.Dirty, in.Complaints)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name+"/tuplewise", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				v.Verify(repaired)
			}
		})
		b.Run(c.name+"/replay", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				final, err := query.Replay(repaired, in.W.D0)
				if err != nil {
					b.Fatal(err)
				}
				relation.DiffTables(v.DirtyFinal(), final, 1e-9)
			}
		})
	}
}
