package workload

import (
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/relation"
)

func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{ND: 50, Na: 5, Nq: 20, Seed: 42}
	a := MustGenerate(cfg)
	b := MustGenerate(cfg)
	if d := query.Distance(a.Log, b.Log); d != 0 {
		t.Errorf("same seed produced different logs (distance %v)", d)
	}
	c := MustGenerate(Config{ND: 50, Na: 5, Nq: 20, Seed: 43})
	if len(a.Log) != len(c.Log) {
		t.Fatalf("log lengths differ")
	}
	// Different seeds should (overwhelmingly) differ somewhere.
	same := true
	for i := range a.Log {
		if a.Log[i].String(a.Schema) != c.Log[i].String(c.Schema) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical logs")
	}
}

func TestGenerateShapes(t *testing.T) {
	w := MustGenerate(Config{ND: 30, Na: 4, Nq: 50, Seed: 7})
	if w.D0.Len() != 30 {
		t.Errorf("ND = %d", w.D0.Len())
	}
	if w.Schema.Width() != 5 || w.Schema.Key() != 0 {
		t.Errorf("schema = %v", w.Schema)
	}
	for i, q := range w.Log {
		u, ok := q.(*query.Update)
		if !ok {
			t.Fatalf("q%d is %T, want UPDATE (UpdateOnly default)", i, q)
		}
		if len(u.Set) != 1 {
			t.Errorf("q%d has %d SET clauses", i, len(u.Set))
		}
		if u.Set[0].Attr == 0 {
			t.Errorf("q%d writes the key", i)
		}
	}
}

func TestValueDomain(t *testing.T) {
	w := MustGenerate(Config{ND: 100, Na: 3, Nq: 10, Vd: 50, Seed: 1})
	w.D0.Rows(func(tp relation.Tuple) {
		for a := 1; a < len(tp.Values); a++ {
			v := tp.Values[a]
			if v < 0 || v > 50 || v != math.Trunc(v) {
				t.Errorf("value %v outside integer domain [0, 50]", v)
			}
		}
	})
	// Query constants also live in the domain.
	for _, q := range w.Log {
		for _, p := range q.Params() {
			if p < 0 || p > 50+w.Config.Range {
				t.Errorf("query param %v outside domain", p)
			}
		}
	}
}

func TestPointWhereTargetsKeys(t *testing.T) {
	w := MustGenerate(Config{ND: 40, Na: 3, Nq: 30, Where: PointWhere, Seed: 3})
	for i, q := range w.Log {
		pr, ok := q.(*query.Update).Where.(*query.Pred)
		if !ok || pr.Op != query.EQ {
			t.Fatalf("q%d WHERE is not a point predicate: %s", i, q.String(w.Schema))
		}
		if len(pr.LHS.Terms) != 1 || pr.LHS.Terms[0].Attr != 0 {
			t.Errorf("q%d point predicate not on key", i)
		}
		if pr.RHS < 1 || pr.RHS > 40 {
			t.Errorf("q%d key %v out of range", i, pr.RHS)
		}
	}
}

func TestRelativeSet(t *testing.T) {
	w := MustGenerate(Config{ND: 20, Na: 3, Nq: 10, Set: RelativeSet, Seed: 5})
	for i, q := range w.Log {
		sc := q.(*query.Update).Set[0]
		if len(sc.Expr.Terms) != 1 || sc.Expr.Terms[0].Attr != sc.Attr || sc.Expr.Terms[0].Coef != 1 {
			t.Errorf("q%d SET not relative: %s", i, q.String(w.Schema))
		}
	}
}

func TestMixes(t *testing.T) {
	w := MustGenerate(Config{ND: 20, Na: 3, Nq: 60, Mix: Mixed, Seed: 11})
	counts := map[query.Kind]int{}
	for _, q := range w.Log {
		counts[q.Kind()]++
	}
	if counts[query.KindUpdate] == 0 || counts[query.KindInsert] == 0 || counts[query.KindDelete] == 0 {
		t.Errorf("mixed workload missing kinds: %v", counts)
	}
	ins := MustGenerate(Config{ND: 20, Na: 3, Nq: 10, Mix: InsertOnly, Seed: 11})
	for _, q := range ins.Log {
		if q.Kind() != query.KindInsert {
			t.Error("InsertOnly produced non-insert")
		}
	}
	del := MustGenerate(Config{ND: 20, Na: 3, Nq: 10, Mix: DeleteOnly, Seed: 11})
	for _, q := range del.Log {
		if q.Kind() != query.KindDelete {
			t.Error("DeleteOnly produced non-delete")
		}
	}
}

func TestSkewConcentratesAttrs(t *testing.T) {
	flat := MustGenerate(Config{ND: 10, Na: 10, Nq: 300, Seed: 9, Skew: 0})
	skew := MustGenerate(Config{ND: 10, Na: 10, Nq: 300, Seed: 9, Skew: 2})
	count := func(w *Workload) map[int]int {
		m := map[int]int{}
		for _, q := range w.Log {
			m[q.(*query.Update).Set[0].Attr]++
		}
		return m
	}
	cf, cs := count(flat), count(skew)
	if cs[1] <= cf[1] {
		t.Errorf("skewed attr-1 count %d not above uniform %d", cs[1], cf[1])
	}
	if cs[1] < 150 {
		t.Errorf("skew=2 should concentrate on a1, got %d/300", cs[1])
	}
}

func TestCorruptPreservesStructure(t *testing.T) {
	w := MustGenerate(Config{ND: 30, Na: 4, Nq: 20, Seed: 13})
	dirty, err := w.Corrupt(7)
	if err != nil {
		t.Fatal(err)
	}
	if dirty[7].Kind() != w.Log[7].Kind() || len(dirty[7].Params()) != len(w.Log[7].Params()) {
		t.Error("corruption changed structure")
	}
	// Range width preserved.
	var origPreds, dirtyPreds []*query.Pred
	query.WalkPreds(w.Log[7].(*query.Update).Where, func(p *query.Pred) { origPreds = append(origPreds, p) })
	query.WalkPreds(dirty[7].(*query.Update).Where, func(p *query.Pred) { dirtyPreds = append(dirtyPreds, p) })
	if len(origPreds) == 2 {
		ow := origPreds[1].RHS - origPreds[0].RHS
		dw := dirtyPreds[1].RHS - dirtyPreds[0].RHS
		if math.Abs(ow-dw) > 1e-9 {
			t.Errorf("range width changed: %v -> %v", ow, dw)
		}
	}
	// Other queries untouched.
	for i := range w.Log {
		if i != 7 && query.Distance([]query.Query{w.Log[i]}, []query.Query{dirty[i]}) != 0 {
			t.Errorf("query %d modified by corruption of 7", i)
		}
	}
	if _, err := w.Corrupt(99); err == nil {
		t.Error("out-of-range corrupt accepted")
	}
}

func TestMakeInstanceAndEvaluate(t *testing.T) {
	w := MustGenerate(Config{ND: 60, Na: 4, Nq: 15, Seed: 17, Range: 30})
	in, err := w.MakeInstance(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.Complaints) == 0 {
		t.Skip("harmless corruption for this seed; fine")
	}
	// The truth log scores perfectly.
	acc, err := in.Evaluate(w.Log)
	if err != nil {
		t.Fatal(err)
	}
	if acc.F1 < 1-1e-9 {
		t.Errorf("truth log F1 = %v, want 1 (%+v)", acc.F1, acc)
	}
	// The dirty log repairs nothing: recall 0.
	acc2, err := in.Evaluate(in.Dirty)
	if err != nil {
		t.Fatal(err)
	}
	if acc2.Recall != 0 || acc2.Repaired != 0 {
		t.Errorf("dirty log scored %+v", acc2)
	}
}

func TestIncompleteComplaints(t *testing.T) {
	w := MustGenerate(Config{ND: 80, Na: 4, Nq: 15, Seed: 19, Range: 40})
	in, err := w.MakeInstance(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.Complaints) < 4 {
		t.Skip("not enough complaints for this seed")
	}
	half := in.Incomplete(0.5, 1)
	if len(half) == 0 || len(half) >= len(in.Complaints) {
		t.Errorf("incomplete(0.5) kept %d of %d", len(half), len(in.Complaints))
	}
	all := in.Incomplete(0, 1)
	if len(all) != len(in.Complaints) {
		t.Errorf("incomplete(0) kept %d of %d", len(all), len(in.Complaints))
	}
	one := in.Incomplete(1, 1)
	if len(one) != 1 {
		t.Errorf("incomplete(1) must keep at least one complaint, kept %d", len(one))
	}
}

func TestEndToEndSyntheticRepair(t *testing.T) {
	// The headline integration test: generate, corrupt the most recent
	// query, diagnose with inc1-tuple, and demand a high-quality repair.
	w := MustGenerate(Config{ND: 100, Na: 5, Nq: 20, Seed: 23, Range: 20})
	in, err := w.MakeInstance(19)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.Complaints) == 0 {
		t.Skip("harmless corruption")
	}
	rep, err := core.Diagnose(w.D0, in.Dirty, in.Complaints, core.Options{
		Algorithm:    core.Incremental,
		TupleSlicing: true,
		QuerySlicing: true,
		TimeLimit:    60 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Resolved {
		t.Fatalf("not resolved: %+v", rep.Stats)
	}
	acc, err := in.Evaluate(rep.Log)
	if err != nil {
		t.Fatal(err)
	}
	if acc.F1 < 0.99 {
		t.Errorf("F1 = %v (%+v)", acc.F1, acc)
	}
}

func TestScoreEdgeCases(t *testing.T) {
	w := MustGenerate(Config{ND: 10, Na: 2, Nq: 3, Seed: 29})
	final, _ := query.Replay(w.Log, w.D0)
	// dirty == truth == repaired: perfect scores.
	acc := Score(final, final, final)
	if acc.Precision != 1 || acc.Recall != 1 || acc.F1 != 1 {
		t.Errorf("identical states: %+v", acc)
	}
}
