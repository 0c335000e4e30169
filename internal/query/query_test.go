package query

import (
	"math"
	"testing"

	"repro/internal/relation"
)

func taxSchema() *relation.Schema {
	return relation.MustSchema("Taxes", []string{"income", "owed", "pay"}, "")
}

// figure2D0 builds the D0 table of the paper's Figure 2.
func figure2D0() *relation.Table {
	tb := relation.NewTable(taxSchema())
	tb.MustInsert(9500, 950, 8550)
	tb.MustInsert(90000, 22500, 67500)
	tb.MustInsert(86000, 21500, 64500)
	tb.MustInsert(86500, 21625, 64875)
	return tb
}

// figure2Log returns the corrupted log of Figure 2 (q1 has the transposed
// digits 85700 instead of 87500).
func figure2Log() []Query {
	q1 := NewUpdate(
		[]SetClause{{Attr: 1, Expr: NewLinExpr(0, Term{Attr: 0, Coef: 0.3})}},
		AttrPred(0, GE, 85700),
	)
	q2 := NewInsert(85800, 21450, 0)
	q3 := NewUpdate(
		[]SetClause{{Attr: 2, Expr: NewLinExpr(0, Term{Attr: 0, Coef: 1}, Term{Attr: 1, Coef: -1})}},
		nil,
	)
	return []Query{q1, q2, q3}
}

func TestFigure2Replay(t *testing.T) {
	dn, err := Replay(figure2Log(), figure2D0())
	if err != nil {
		t.Fatal(err)
	}
	// Expected D3 from Figure 2 (the paper's table labels it D4).
	want := [][]float64{
		{9500, 950, 8550},
		{90000, 27000, 63000},
		{86000, 25800, 60200},
		{86500, 25950, 60550},
		{85800, 21450, 64350},
	}
	if dn.Len() != len(want) {
		t.Fatalf("Dn has %d rows, want %d", dn.Len(), len(want))
	}
	i := 0
	dn.Rows(func(tp relation.Tuple) {
		for j, w := range want[i] {
			if math.Abs(tp.Values[j]-w) > 1e-9 {
				t.Errorf("row %d attr %d = %v, want %v", i, j, tp.Values[j], w)
			}
		}
		i++
	})
}

func TestFigure2TrueLogReplay(t *testing.T) {
	log := figure2Log()
	// Repair q1's WHERE constant to 87500: only t2 (income 90000) matches.
	if err := log[0].SetParams([]float64{0, 87500}); err != nil {
		t.Fatal(err)
	}
	dn, err := Replay(log, figure2D0())
	if err != nil {
		t.Fatal(err)
	}
	t3, _ := dn.Get(3)
	if t3.Values[1] != 21500 || t3.Values[2] != 64500 {
		t.Errorf("true replay t3 = %v", t3.Values)
	}
	t4, _ := dn.Get(4)
	if t4.Values[1] != 21625 || t4.Values[2] != 64875 {
		t.Errorf("true replay t4 = %v", t4.Values)
	}
}

func TestUpdateSimultaneousSemantics(t *testing.T) {
	// SET a = b, b = a must swap, not chain.
	tb := relation.NewTable(relation.MustSchema("t", []string{"a", "b"}, ""))
	tb.MustInsert(1, 2)
	u := NewUpdate([]SetClause{
		{Attr: 0, Expr: AttrExpr(1)},
		{Attr: 1, Expr: AttrExpr(0)},
	}, nil)
	if err := u.Apply(tb); err != nil {
		t.Fatal(err)
	}
	got, _ := tb.Get(1)
	if got.Values[0] != 2 || got.Values[1] != 1 {
		t.Errorf("swap produced %v, want [2 1]", got.Values)
	}
}

func TestUpdateBadAttr(t *testing.T) {
	tb := relation.NewTable(relation.MustSchema("t", []string{"a"}, ""))
	tb.MustInsert(1)
	u := NewUpdate([]SetClause{{Attr: 5, Expr: ConstExpr(0)}}, nil)
	if err := u.Apply(tb); err == nil {
		t.Error("out-of-range SET attr accepted")
	}
}

func TestDeleteAndInsert(t *testing.T) {
	tb := relation.NewTable(relation.MustSchema("t", []string{"a", "b"}, ""))
	tb.MustInsert(1, 10)
	tb.MustInsert(2, 20)
	tb.MustInsert(3, 30)
	d := NewDelete(AttrPred(0, GE, 2))
	if err := d.Apply(tb); err != nil {
		t.Fatal(err)
	}
	if tb.Len() != 1 {
		t.Fatalf("after delete len=%d", tb.Len())
	}
	ins := NewInsert(7, 70)
	if err := ins.Apply(tb); err != nil {
		t.Fatal(err)
	}
	if tb.Len() != 2 {
		t.Fatalf("after insert len=%d", tb.Len())
	}
}

func TestCondEval(t *testing.T) {
	vals := []float64{5, 10}
	cases := []struct {
		c    Cond
		want bool
	}{
		{True{}, true},
		{AttrPred(0, EQ, 5), true},
		{AttrPred(0, EQ, 6), false},
		{AttrPred(0, LT, 5), false},
		{AttrPred(0, LE, 5), true},
		{AttrPred(1, GT, 9), true},
		{AttrPred(1, GE, 11), false},
		{NewAnd(AttrPred(0, EQ, 5), AttrPred(1, EQ, 10)), true},
		{NewAnd(AttrPred(0, EQ, 5), AttrPred(1, EQ, 11)), false},
		{NewOr(AttrPred(0, EQ, 4), AttrPred(1, EQ, 10)), true},
		{NewOr(AttrPred(0, EQ, 4), AttrPred(1, EQ, 11)), false},
		{NewOr(), false},
		{NewAnd(), true},
		{NewPred(NewLinExpr(0, Term{0, 2}, Term{1, -1}), EQ, 0), true}, // 2*5-10=0
	}
	for i, tc := range cases {
		if got := tc.c.Eval(vals); got != tc.want {
			t.Errorf("case %d: %s = %v, want %v", i, tc.c.String(nil), got, tc.want)
		}
	}
}

func TestLinExprNormalization(t *testing.T) {
	e := NewLinExpr(3, Term{2, 1}, Term{0, 2}, Term{2, -1}, Term{1, 4})
	// attr 2 cancels; sorted by attr
	if len(e.Terms) != 2 || e.Terms[0].Attr != 0 || e.Terms[1].Attr != 1 {
		t.Fatalf("normalize = %+v", e)
	}
	if got := e.Eval([]float64{10, 100, 1000}); got != 3+20+400 {
		t.Errorf("Eval = %v", got)
	}
	sum := e.Add(NewLinExpr(-3, Term{0, -2}, Term{1, -4}))
	if !sum.IsConst() || sum.Const != 0 {
		t.Errorf("Add cancel = %+v", sum)
	}
	sc := e.Scale(2)
	if sc.Const != 6 || sc.Terms[0].Coef != 4 {
		t.Errorf("Scale = %+v", sc)
	}
	if z := e.Scale(0); !z.IsConst() || z.Const != 0 {
		t.Errorf("Scale(0) = %+v", z)
	}
}

func TestParamsRoundTrip(t *testing.T) {
	for _, q := range figure2Log() {
		p := q.Params()
		mod := make([]float64, len(p))
		for i := range p {
			mod[i] = p[i] + float64(i) + 1
		}
		q2 := q.Clone()
		if err := q2.SetParams(mod); err != nil {
			t.Fatalf("%s: %v", q.Kind(), err)
		}
		got := q2.Params()
		for i := range mod {
			if got[i] != mod[i] {
				t.Errorf("%s param %d: got %v want %v", q.Kind(), i, got[i], mod[i])
			}
		}
		// Original untouched by clone's SetParams.
		for i := range p {
			if q.Params()[i] != p[i] {
				t.Errorf("%s: SetParams on clone mutated original", q.Kind())
			}
		}
	}
}

func TestSetParamsArityErrors(t *testing.T) {
	for _, q := range figure2Log() {
		if err := q.SetParams([]float64{}); err == nil && len(q.Params()) > 0 {
			t.Errorf("%s accepted wrong arity", q.Kind())
		}
	}
}

func TestDistance(t *testing.T) {
	a := figure2Log()
	b := CloneLog(a)
	if d := Distance(a, b); d != 0 {
		t.Errorf("identical logs distance = %v", d)
	}
	if err := b[0].SetParams([]float64{0, 87500}); err != nil {
		t.Fatal(err)
	}
	if d := Distance(a, b); d != 1800 {
		t.Errorf("distance = %v, want 1800", d)
	}
}

func TestDirectImpactDependency(t *testing.T) {
	u := NewUpdate(
		[]SetClause{{Attr: 2, Expr: NewLinExpr(0, Term{0, 1}, Term{1, -1})}},
		AttrPred(3, GE, 10),
	)
	di := DirectImpact(u, 5)
	if !di.Has(2) || di.Len() != 1 {
		t.Errorf("DirectImpact = %v", di.Sorted())
	}
	dep := Dependency(u)
	want := NewAttrSet(0, 1, 3)
	if !dep.ContainsAll(want) || !want.ContainsAll(dep) {
		t.Errorf("Dependency = %v", dep.Sorted())
	}
	ins := NewInsert(1, 2, 3, 4, 5)
	if di := DirectImpact(ins, 5); di.Len() != 5 {
		t.Errorf("INSERT DirectImpact = %v", di.Sorted())
	}
	if dep := Dependency(ins); dep.Len() != 0 {
		t.Errorf("INSERT Dependency = %v", dep.Sorted())
	}
	del := NewDelete(AttrPred(1, LE, 3))
	if di := DirectImpact(del, 4); di.Len() != 4 {
		t.Errorf("DELETE DirectImpact = %v", di.Sorted())
	}
	if dep := Dependency(del); !dep.Has(1) || dep.Len() != 1 {
		t.Errorf("DELETE Dependency = %v", dep.Sorted())
	}
}

func TestAttrSetOps(t *testing.T) {
	a := NewAttrSet(1, 2, 3)
	b := NewAttrSet(3, 4)
	if !a.Intersects(b) || !b.Intersects(a) {
		t.Error("Intersects failed")
	}
	if a.Intersects(NewAttrSet(9)) {
		t.Error("false intersection")
	}
	c := a.Clone()
	c.Union(b)
	if c.Len() != 4 || a.Len() != 3 {
		t.Error("Union/Clone wrong")
	}
	if !c.ContainsAll(a) || a.ContainsAll(c) {
		t.Error("ContainsAll wrong")
	}
	got := c.Sorted()
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Error("Sorted not sorted")
		}
	}
}

func TestStringRendering(t *testing.T) {
	s := taxSchema()
	log := figure2Log()
	want := []string{
		"UPDATE Taxes SET owed = 0.3 * income WHERE income >= 85700",
		"INSERT INTO Taxes VALUES (85800, 21450, 0)",
		"UPDATE Taxes SET pay = income - owed",
	}
	for i, q := range log {
		if got := q.String(s); got != want[i] {
			t.Errorf("q%d String = %q, want %q", i+1, got, want[i])
		}
	}
	del := NewDelete(NewOr(AttrPred(0, LT, 5), NewAnd(AttrPred(1, GE, 2), AttrPred(2, EQ, 0))))
	got := del.String(s)
	want2 := "DELETE FROM Taxes WHERE income < 5 OR (owed >= 2 AND pay = 0)"
	if got != want2 {
		t.Errorf("delete String = %q, want %q", got, want2)
	}
}

func TestReplayAllStates(t *testing.T) {
	states, err := ReplayAll(figure2Log(), figure2D0())
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 4 {
		t.Fatalf("got %d states", len(states))
	}
	if states[0].Len() != 4 || states[2].Len() != 5 {
		t.Errorf("state sizes: D0=%d D2=%d", states[0].Len(), states[2].Len())
	}
	// States are independent snapshots.
	t1, _ := states[0].Get(3)
	if t1.Values[1] != 21500 {
		t.Errorf("D0 mutated by later queries: %v", t1.Values)
	}
}

func TestSameStructure(t *testing.T) {
	a := NewUpdate([]SetClause{{Attr: 0, Expr: ConstExpr(1)}}, AttrPred(0, EQ, 2))
	b := NewUpdate([]SetClause{{Attr: 1, Expr: ConstExpr(9)}}, AttrPred(1, EQ, 7))
	c := NewUpdate([]SetClause{{Attr: 0, Expr: ConstExpr(1)}},
		NewAnd(AttrPred(0, EQ, 2), AttrPred(1, LE, 3)))
	if !sameStructure(a, b) {
		t.Error("same-arity updates not recognized")
	}
	if sameStructure(a, c) {
		t.Error("different-arity updates recognized")
	}
	if sameStructure(a, NewInsert(1, 2)) {
		t.Error("cross-kind recognized")
	}
}
