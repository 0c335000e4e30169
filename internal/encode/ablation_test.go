package encode

import (
	"testing"
	"time"

	"repro/internal/query"
	"repro/internal/relation"
)

// The reference switches must preserve answers while changing model sizes.

func TestNoFoldingEquivalentButBigger(t *testing.T) {
	// A log whose prefix folds away entirely under the default encoder:
	// noFolding must encode every predicate evaluation symbolically.
	sch := relationSchemaAB(t)
	d0 := relationTableAB(sch)
	var log []query.Query
	for i := 0; i < 9; i++ {
		log = append(log, query.NewUpdate(
			[]query.SetClause{{Attr: 1, Expr: query.NewLinExpr(1, query.Term{Attr: 1, Coef: 1})}},
			query.AttrPred(0, query.GE, float64(i*10))))
	}
	log = append(log, query.NewUpdate(
		[]query.SetClause{{Attr: 1, Expr: query.ConstExpr(777)}},
		query.AttrPred(0, query.GE, 80)))
	dirty, err := query.Replay(log, d0)
	if err != nil {
		t.Fatal(err)
	}
	tp, _ := dirty.Get(9)
	complaints := []Complaint{{TupleID: 9, Exists: true, Values: tp.Values}}

	folded, err := Encode(d0, log, complaints, Options{
		ParamQueries: map[int]bool{9: true},
		TupleIDs:     []int64{9},
	})
	if err != nil {
		t.Fatal(err)
	}
	exhaustive, err := Encode(d0, log, complaints, Options{
		ParamQueries: map[int]bool{9: true},
		TupleIDs:     []int64{9},
		noFolding:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if exhaustive.Stats.Rows <= folded.Stats.Rows {
		t.Errorf("noFolding rows %d not larger than folded %d",
			exhaustive.Stats.Rows, folded.Stats.Rows)
	}
	if exhaustive.Stats.Binaries <= folded.Stats.Binaries {
		t.Errorf("noFolding binaries %d not larger than folded %d",
			exhaustive.Stats.Binaries, folded.Stats.Binaries)
	}

	// Both must produce a valid repair with the same data effect.
	for name, res := range map[string]*Result{"folded": folded, "exhaustive": exhaustive} {
		mres, vals := res.Solve(60*time.Second, 0)
		if !mres.HasSolution {
			t.Fatalf("%s: no solution (%v)", name, mres.Status)
		}
		repaired := applyRepair(t, log, res.Params, vals)
		final, err := query.Replay(repaired, d0)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range complaints {
			got, ok := final.Get(c.TupleID)
			if !ok || got.Values[1] != c.Values[1] {
				t.Errorf("%s: complaint %d unresolved", name, c.TupleID)
			}
		}
	}
}

func relationSchemaAB(t *testing.T) *relation.Schema {
	t.Helper()
	return relation.MustSchema("T", []string{"a", "b"}, "")
}

func relationTableAB(sch *relation.Schema) *relation.Table {
	tb := relation.NewTable(sch)
	for i := 0; i < 10; i++ {
		tb.MustInsert(float64(i*10), 0)
	}
	return tb
}

func TestNoParamWindowsEquivalent(t *testing.T) {
	d0, log, complaints := figure2()
	for _, noWin := range []bool{false, true} {
		res, err := Encode(d0, log, complaints, Options{
			ParamQueries:   map[int]bool{0: true},
			TupleIDs:       []int64{3, 4},
			noParamWindows: noWin,
		})
		if err != nil {
			t.Fatal(err)
		}
		mres, vals := res.Solve(60*time.Second, 0)
		if !mres.HasSolution {
			t.Fatalf("noWin=%v: %v", noWin, mres.Status)
		}
		repaired := applyRepair(t, log, res.Params, vals)
		theta := repaired[0].(*query.Update).Where.(*query.Pred).RHS
		if theta <= 86500 {
			t.Errorf("noWin=%v: theta = %v", noWin, theta)
		}
	}
}

func TestWindowsShrinkParamBounds(t *testing.T) {
	d0, log, complaints := figure2()
	win, err := Encode(d0, log, complaints, Options{
		ParamQueries: map[int]bool{0: true},
		TupleIDs:     []int64{3, 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	noWin, err := Encode(d0, log, complaints, Options{
		ParamQueries:   map[int]bool{0: true},
		TupleIDs:       []int64{3, 4},
		noParamWindows: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The WHERE parameter (index 1) must have a tighter range with
	// windows on.
	span := func(r *Result, idx int) float64 {
		lb, ub := r.Model.Bounds(r.Params[idx].Var)
		return ub - lb
	}
	if span(win, 1) >= span(noWin, 1) {
		t.Errorf("window span %v not tighter than %v", span(win, 1), span(noWin, 1))
	}
	// The original value always stays inside the window.
	lb, ub := win.Model.Bounds(win.Params[1].Var)
	if orig := win.Params[1].Orig; orig < lb || orig > ub {
		t.Errorf("orig %v outside window [%v, %v]", orig, lb, ub)
	}
}
