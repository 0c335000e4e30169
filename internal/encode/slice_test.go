package encode

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/query"
	"repro/internal/relation"
)

// sliceCase draws one tuple-sliced encoding: a small table, a log mixing
// UPDATE, INSERT and DELETE with two parameterized queries, complaints on
// a surviving D0 tuple, on an inserted tuple and on a tuple the log
// deleted (where the draw has them), and soft tuples next to them. The
// complaints need not be satisfiable: the cases pin what Encode builds,
// not what the solver makes of it.
func sliceCase(seed int64) (*relation.Table, []query.Query, []Complaint, Options) {
	rng := rand.New(rand.NewSource(seed))
	const width = 3
	sch := relation.MustSchema("T", []string{"a", "b", "c"}, "")
	d0 := relation.NewTable(sch)
	for i, n := 0, 12+rng.Intn(9); i < n; i++ {
		d0.MustInsert(float64(rng.Intn(100)), float64(rng.Intn(100)), float64(rng.Intn(100)))
	}
	rangePred := func() query.Cond {
		lo := float64(rng.Intn(90))
		a := rng.Intn(width)
		return query.NewAnd(query.AttrPred(a, query.GE, lo), query.AttrPred(a, query.LE, lo+float64(5+rng.Intn(25))))
	}
	var log []query.Query
	for i, n := 0, 10+rng.Intn(7); i < n; i++ {
		switch k := rng.Intn(10); {
		case k < 2:
			log = append(log, query.NewInsert(float64(rng.Intn(100)), float64(rng.Intn(100)), float64(rng.Intn(100))))
		case k < 4:
			log = append(log, query.NewDelete(rangePred()))
		case k < 7:
			log = append(log, query.NewUpdate([]query.SetClause{{Attr: rng.Intn(width),
				Expr: query.ConstExpr(float64(rng.Intn(100)))}}, rangePred()))
		default:
			log = append(log, query.NewUpdate([]query.SetClause{{Attr: rng.Intn(width),
				Expr: query.NewLinExpr(float64(1+rng.Intn(9)), query.Term{Attr: rng.Intn(width), Coef: 1})}}, rangePred()))
		}
	}
	states, err := query.ReplayAll(log, d0)
	if err != nil {
		panic(err)
	}
	final := states[len(states)-1]

	// Sort every tuple the log ever held into survivors of D0, inserted
	// and deleted ones, in ID order.
	var kept, inserted, deleted []relation.Tuple
	for id := int64(1); id < final.NextID(); id++ {
		if t, ok := final.Get(id); ok {
			if id < d0.NextID() {
				kept = append(kept, t)
			} else {
				inserted = append(inserted, t)
			}
			continue
		}
		for k := len(states) - 1; k >= 0; k-- {
			if t, ok := states[k].Get(id); ok {
				deleted = append(deleted, t) // as last seen alive
				break
			}
		}
	}
	var complaints []Complaint
	var soft []int64
	pick := func(from []relation.Tuple, mk func(relation.Tuple) Complaint) {
		if len(from) == 0 {
			return
		}
		i := rng.Intn(len(from))
		complaints = append(complaints, mk(from[i]))
		if len(from) > 1 {
			soft = append(soft, from[(i+1)%len(from)].ID)
		}
	}
	bumped := func(t relation.Tuple) Complaint {
		t.Values[rng.Intn(width)] += 1
		return Complaint{TupleID: t.ID, Exists: true, Values: t.Values}
	}
	pick(kept, bumped)
	pick(inserted, bumped)
	pick(deleted, func(t relation.Tuple) Complaint { // should have survived
		return Complaint{TupleID: t.ID, Exists: true, Values: t.Values}
	})
	ids := make([]int64, len(complaints))
	used := make(map[int64]bool)
	for i, c := range complaints {
		ids[i] = c.TupleID
		used[c.TupleID] = true
	}
	for _, id := range soft {
		used[id] = true
	}
	for _, t := range kept { // should have been deleted
		if !used[t.ID] {
			complaints = append(complaints, Complaint{TupleID: t.ID, Exists: false})
			ids = append(ids, t.ID)
			break
		}
	}
	p := rng.Intn(len(log))
	return d0, log, complaints, Options{
		ParamQueries: map[int]bool{p: true, (p + 1 + rng.Intn(len(log)-1)) % len(log): true},
		TupleIDs:     ids,
		SoftTupleIDs: soft,
	}
}

// The sliced dirty replay must be indistinguishable from a replay of the
// whole table, for the tuples the encoding tracks: after every log step
// each tracked tuple's values and liveness are the full replay's, a
// wanted tuple is tracked from the step that inserts it, and the ID
// counter moves as the full table's does.
func TestSlicedDirtyReplayMatchesFullReplay(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		d0, log, complaints, opt := sliceCase(seed)
		states, err := query.ReplayAll(log, d0)
		if err != nil {
			t.Fatal(err)
		}
		e, err := newEncoder(d0, log, complaints, opt)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		check := func(step int, full *relation.Table) {
			t.Helper()
			if e.dirty.NextID() != full.NextID() {
				t.Fatalf("seed %d step %d: next ID %d, full replay %d", seed, step, e.dirty.NextID(), full.NextID())
			}
			if e.dirty.Len() > len(e.wantIDs) {
				t.Fatalf("seed %d step %d: sliced table holds %d rows for %d wanted tuples", seed, step, e.dirty.Len(), len(e.wantIDs))
			}
			for id := range e.wantIDs {
				if ts := e.tracked[id]; (ts != nil) != (id < full.NextID()) {
					t.Fatalf("seed %d step %d: tuple %d tracked=%v, full replay has allocated IDs below %d",
						seed, step, id, ts != nil, full.NextID())
				}
			}
			for _, ts := range e.order {
				want, alive := full.Get(ts.id)
				if ts.dirtyAlive != alive {
					t.Fatalf("seed %d step %d: tuple %d alive=%v, full replay %v", seed, step, ts.id, ts.dirtyAlive, alive)
				}
				if alive && !want.Equal(relation.Tuple{Values: ts.dirtyVals}, 0) {
					t.Fatalf("seed %d step %d: tuple %d = %v, full replay %v", seed, step, ts.id, ts.dirtyVals, want.Values)
				}
			}
		}
		check(-1, states[0])
		for i := range log {
			if err := e.step(i); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, i, err)
			}
			check(i, states[i+1])
		}
	}
}

// sliceGolden holds what Encode built for sliceCase(seed) at the commit
// before the encoder's dirty replay was sliced and its domain bound split
// out (88c0259): model size, and a digest over every parameter's log
// coordinate, original value, model variable and bounds (which carry M).
var sliceGolden = []struct {
	seed                       int64
	rows, vars, binaries, tups int
	params                     int
	digest                     uint64
}{
	{1, 149, 56, 38, 4, 4, 0x2dbc9bb22bcc085d},
	{2, 363, 134, 100, 6, 5, 0x5ae8af7d0d375515},
	{3, 407, 153, 115, 6, 6, 0xa023f45647f310a4},
	{4, 193, 75, 45, 6, 6, 0xf122f01844577ef0},
	{5, 466, 169, 117, 7, 6, 0xabb3447ed0256049},
	{6, 661, 233, 155, 7, 6, 0x71339b05f4331864},
	{7, 713, 247, 155, 5, 6, 0xac47b1f310efaa1e},
	{8, 267, 98, 54, 7, 6, 0x43b7e279d1d5ec7a},
}

func TestSlicedEncodingMatchesGolden(t *testing.T) {
	for _, g := range sliceGolden {
		d0, log, complaints, opt := sliceCase(g.seed)
		res, err := Encode(d0, log, complaints, opt)
		if err != nil {
			t.Fatalf("seed %d: %v", g.seed, err)
		}
		h := fnv.New64a()
		for _, p := range res.Params {
			lb, ub := res.Model.Bounds(p.Var)
			fmt.Fprintf(h, "%d/%d/%v/%d/%v/%v;", p.Query, p.Index, p.Orig, p.Var, lb, ub)
		}
		got := fmt.Sprintf("{%d, %d, %d, %d, %d, %d, %#x},", g.seed, res.Stats.Rows, res.Stats.Vars,
			res.Stats.Binaries, res.Stats.TuplesTracked, len(res.Params), h.Sum64())
		want := fmt.Sprintf("{%d, %d, %d, %d, %d, %d, %#x},", g.seed, g.rows, g.vars,
			g.binaries, g.tups, g.params, g.digest)
		if got != want {
			t.Errorf("encoding drifted from the golden:\n got %s\nwant %s", got, want)
		}
	}
}
