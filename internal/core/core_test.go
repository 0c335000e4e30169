package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/query"
	"repro/internal/relation"
)

func figure2() (*relation.Table, []query.Query, []query.Query) {
	sch := relation.MustSchema("Taxes", []string{"income", "owed", "pay"}, "")
	d0 := relation.NewTable(sch)
	d0.MustInsert(9500, 950, 8550)
	d0.MustInsert(90000, 22500, 67500)
	d0.MustInsert(86000, 21500, 64500)
	d0.MustInsert(86500, 21625, 64875)
	mk := func(theta float64) []query.Query {
		return []query.Query{
			query.NewUpdate(
				[]query.SetClause{{Attr: 1, Expr: query.NewLinExpr(0, query.Term{Attr: 0, Coef: 0.3})}},
				query.AttrPred(0, query.GE, theta)),
			query.NewInsert(85800, 21450, 0),
			query.NewUpdate(
				[]query.SetClause{{Attr: 2, Expr: query.NewLinExpr(0,
					query.Term{Attr: 0, Coef: 1}, query.Term{Attr: 1, Coef: -1})}},
				nil),
		}
	}
	return d0, mk(85700), mk(87500) // dirty, truth
}

func completeComplaints(t *testing.T, d0 *relation.Table, dirty, truth []query.Query) []Complaint {
	t.Helper()
	df, err := query.Replay(dirty, d0)
	if err != nil {
		t.Fatal(err)
	}
	tf, err := query.Replay(truth, d0)
	if err != nil {
		t.Fatal(err)
	}
	return ComplaintsFromDiff(df, tf, 1e-9)
}

func TestFigure2Incremental(t *testing.T) {
	d0, dirty, truth := figure2()
	complaints := completeComplaints(t, d0, dirty, truth)
	if len(complaints) != 2 {
		t.Fatalf("expected 2 complaints, got %d", len(complaints))
	}
	rep, err := Diagnose(d0, dirty, complaints, Options{
		Algorithm:    Incremental,
		TupleSlicing: true,
		QuerySlicing: true,
		TimeLimit:    30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Resolved {
		t.Fatalf("repair not resolved: %+v", rep.Stats)
	}
	if len(rep.Changed) != 1 || rep.Changed[0] != 0 {
		t.Errorf("changed queries = %v, want [0]", rep.Changed)
	}
	// The repaired final state must equal the true final state exactly.
	repFinal, err := query.Replay(rep.Log, d0)
	if err != nil {
		t.Fatal(err)
	}
	truthFinal, _ := query.Replay(truth, d0)
	if diffs := relation.DiffTables(repFinal, truthFinal, 1e-6); len(diffs) != 0 {
		t.Errorf("repaired state differs from truth: %+v", diffs)
	}
	if rep.Distance <= 0 {
		t.Errorf("distance = %v", rep.Distance)
	}
}

func TestFigure2Basic(t *testing.T) {
	d0, dirty, truth := figure2()
	complaints := completeComplaints(t, d0, dirty, truth)
	rep, err := Diagnose(d0, dirty, complaints, Options{
		Algorithm: Basic,
		TimeLimit: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Resolved {
		t.Fatalf("basic repair not resolved: %+v", rep.Stats)
	}
}

func TestEmptyComplaints(t *testing.T) {
	d0, dirty, _ := figure2()
	rep, err := Diagnose(d0, dirty, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Resolved || rep.Distance != 0 || len(rep.Changed) != 0 {
		t.Errorf("identity repair expected: %+v", rep)
	}
}

func TestEmptyLogError(t *testing.T) {
	d0, _, _ := figure2()
	if _, err := Diagnose(d0, nil, nil, Options{}); err == nil {
		t.Error("empty log accepted")
	}
}

// A complaint names a whole target tuple (Definition 4): one whose
// values do not match the schema's width, or hold NaN or an infinity,
// is refused with an error on every path, never indexed past or
// compared. A deletion complaint carries no values at all.
func TestComplaintArityRejected(t *testing.T) {
	d0, dirty, truth := figure2()
	good := completeComplaints(t, d0, dirty, truth)
	for _, values := range [][]float64{nil, {86000}, {86000, 21500}, {86000, 21500, 64500, 1},
		{math.NaN(), 21500, 64500}, {86000, math.Inf(1), 64500}, {86000, 21500, math.Inf(-1)}} {
		bad := append([]Complaint{{TupleID: good[0].TupleID, Exists: true, Values: values}}, good[1:]...)
		for name, opt := range map[string]Options{
			"basic":       {Algorithm: Basic},
			"incremental": {Algorithm: Incremental, TupleSlicing: true, QuerySlicing: true},
			"partitioned": {Algorithm: Incremental, QuerySlicing: true, AttrSlicing: true, Partition: 2},
		} {
			if _, err := Diagnose(d0, dirty, bad, opt); err == nil {
				t.Errorf("%s: a complaint with values %v for 3 attributes was accepted", name, values)
			}
		}
	}
	deleted := append([]Complaint{{TupleID: 1, Exists: false}}, good...)
	if _, err := Diagnose(d0, dirty, deleted, Options{Algorithm: Basic}); err != nil {
		t.Errorf("a deletion complaint without values: %v", err)
	}
}

func TestFullImpact(t *testing.T) {
	// q0 writes a0; q1 reads a0 writes a1; q2 reads a1 writes a2;
	// q3 reads a3 writes a3 (detached chain).
	log := []query.Query{
		query.NewUpdate([]query.SetClause{{Attr: 0, Expr: query.ConstExpr(1)}}, nil),
		query.NewUpdate([]query.SetClause{{Attr: 1, Expr: query.ConstExpr(1)}},
			query.AttrPred(0, query.GE, 0)),
		query.NewUpdate([]query.SetClause{{Attr: 2, Expr: query.ConstExpr(1)}},
			query.AttrPred(1, query.GE, 0)),
		query.NewUpdate([]query.SetClause{{Attr: 3, Expr: query.ConstExpr(1)}},
			query.AttrPred(3, query.GE, 0)),
	}
	full := FullImpact(log, 4)
	check := func(i int, want ...int) {
		t.Helper()
		ws := query.NewAttrSet(want...)
		if !full[i].ContainsAll(ws) || !ws.ContainsAll(full[i]) {
			t.Errorf("F(q%d) = %v, want %v", i, full[i].Sorted(), want)
		}
	}
	check(0, 0, 1, 2) // a0 -> q1 writes a1 -> q2 writes a2
	check(1, 1, 2)
	check(2, 2)
	check(3, 3)
}

func TestFullImpactSetExprDependency(t *testing.T) {
	// Relative SET reads count as dependencies: q1's "SET b = a + 1"
	// reads a, so q0's impact propagates through it.
	log := []query.Query{
		query.NewUpdate([]query.SetClause{{Attr: 0, Expr: query.ConstExpr(5)}}, nil),
		query.NewUpdate([]query.SetClause{{Attr: 1,
			Expr: query.NewLinExpr(1, query.Term{Attr: 0, Coef: 1})}}, nil),
	}
	full := FullImpact(log, 2)
	if !full[0].Has(1) {
		t.Errorf("F(q0) = %v, want to include attr 1", full[0].Sorted())
	}
}

func TestQuerySlicingReducesCandidates(t *testing.T) {
	// Two detached attribute groups; corruption in the a0/a1 chain means
	// queries touching only a2/a3 are irrelevant.
	sch := relation.MustSchema("T", []string{"a0", "a1", "a2", "a3"}, "")
	d0 := relation.NewTable(sch)
	for i := 0; i < 6; i++ {
		d0.MustInsert(float64(i*10), 0, float64(i*10), 0)
	}
	mk := func(theta float64) []query.Query {
		return []query.Query{
			query.NewUpdate([]query.SetClause{{Attr: 3, Expr: query.ConstExpr(7)}},
				query.AttrPred(2, query.GE, 20)), // irrelevant chain
			query.NewUpdate([]query.SetClause{{Attr: 1, Expr: query.ConstExpr(1)}},
				query.AttrPred(0, query.GE, theta)), // corrupted
			query.NewUpdate([]query.SetClause{{Attr: 3, Expr: query.ConstExpr(9)}},
				query.AttrPred(2, query.GE, 40)), // irrelevant chain
		}
	}
	dirty, truth := mk(10), mk(30)
	complaints := completeComplaints(t, d0, dirty, truth)
	rep, err := Diagnose(d0, dirty, complaints, Options{
		Algorithm:        Incremental,
		TupleSlicing:     true,
		QuerySlicing:     true,
		AttrSlicing:      true,
		SingleCorruption: true,
		TimeLimit:        30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Resolved {
		t.Fatalf("not resolved: %+v", rep.Stats)
	}
	if rep.Stats.RelevantQueries != 1 {
		t.Errorf("relevant queries = %d, want 1", rep.Stats.RelevantQueries)
	}
	if len(rep.Changed) != 1 || rep.Changed[0] != 1 {
		t.Errorf("changed = %v, want [1]", rep.Changed)
	}
}

func TestIncrementalScansBatches(t *testing.T) {
	// Corruption in the OLDEST query: incremental must walk past the
	// newer candidates before finding it.
	sch := relation.MustSchema("T", []string{"a", "b"}, "")
	d0 := relation.NewTable(sch)
	for i := 0; i < 5; i++ {
		d0.MustInsert(float64(i*10), 0)
	}
	mk := func(theta float64) []query.Query {
		return []query.Query{
			query.NewUpdate([]query.SetClause{{Attr: 1, Expr: query.ConstExpr(1)}},
				query.AttrPred(0, query.GE, theta)), // corrupted (oldest)
			query.NewUpdate([]query.SetClause{{Attr: 1, Expr: query.NewLinExpr(10, query.Term{Attr: 1, Coef: 1})}},
				query.AttrPred(0, query.GE, 100)), // matches nothing
			query.NewUpdate([]query.SetClause{{Attr: 1, Expr: query.NewLinExpr(100, query.Term{Attr: 1, Coef: 1})}},
				query.AttrPred(0, query.GE, 200)), // matches nothing
		}
	}
	dirty, truth := mk(10), mk(30)
	complaints := completeComplaints(t, d0, dirty, truth)
	rep, err := Diagnose(d0, dirty, complaints, Options{
		Algorithm:    Incremental,
		TupleSlicing: true,
		TimeLimit:    30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Resolved {
		t.Fatalf("not resolved: %+v", rep.Stats)
	}
	if rep.Stats.BatchesTried < 2 {
		t.Errorf("batches tried = %d, want >= 2 (newest batches first)", rep.Stats.BatchesTried)
	}
	if len(rep.Changed) != 1 || rep.Changed[0] != 0 {
		t.Errorf("changed = %v, want [0]", rep.Changed)
	}
}

func TestIncrementalOldCorruption(t *testing.T) {
	// Corruption in Figure 2's oldest query: the newer batches yield
	// nothing clean, so the scan must reach query 0.
	d0, dirty, truth := figure2()
	complaints := completeComplaints(t, d0, dirty, truth)
	rep, err := Diagnose(d0, dirty, complaints, Options{
		Algorithm:    Incremental,
		TupleSlicing: true,
		TimeLimit:    30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Resolved {
		t.Fatalf("not resolved: %+v", rep.Stats)
	}
	if len(rep.Changed) != 1 || rep.Changed[0] != 0 {
		t.Errorf("changed = %v, want [0]", rep.Changed)
	}
}

// figure5b builds Figure 5(b): the dirty and true range intervals are
// disjoint and a non-complaint tuple sits between them. Minimizing
// distance alone stretches the repaired interval over the middle tuple;
// the refinement step must pull it back.
func figure5b() (d0 *relation.Table, dirty, truth []query.Query) {
	sch := relation.MustSchema("T", []string{"a", "v"}, "")
	d0 = relation.NewTable(sch)
	d0.MustInsert(15, 0) // id 1: inside the true interval
	d0.MustInsert(30, 0) // id 2: between the intervals (non-complaint)
	d0.MustInsert(50, 0) // id 3: inside the dirty interval
	mk := func(lo, hi float64) []query.Query {
		return []query.Query{
			query.NewUpdate([]query.SetClause{{Attr: 1, Expr: query.ConstExpr(1)}},
				query.NewAnd(query.AttrPred(0, query.GE, lo), query.AttrPred(0, query.LE, hi))),
		}
	}
	return d0, mk(40, 60), mk(10, 20)
}

func TestRefinementExcludesNonComplaints(t *testing.T) {
	d0, dirty, truth := figure5b()
	complaints := completeComplaints(t, d0, dirty, truth)
	// Complete complaint set: id1 (should be matched) and id3 (should
	// not); id2 matched under neither log, so it is a non-complaint.
	if len(complaints) != 2 {
		t.Fatalf("expected 2 complaints, got %+v", complaints)
	}
	rep, err := Diagnose(d0, dirty, complaints, Options{
		Algorithm:    Incremental,
		TupleSlicing: true,
		TimeLimit:    30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Resolved {
		t.Fatalf("not resolved: %+v", rep.Stats)
	}
	if !rep.Stats.Refined {
		t.Error("refinement did not run (step-1 should have over-generalized)")
	}
	final, _ := query.Replay(rep.Log, d0)
	t1, _ := final.Get(1)
	t2, _ := final.Get(2)
	t3, _ := final.Get(3)
	if t1.Values[1] != 1 {
		t.Errorf("t1.v = %v, want 1 (complaint)", t1.Values[1])
	}
	if t2.Values[1] != 0 {
		t.Errorf("t2.v = %v, want 0 (refinement must exclude the middle tuple)", t2.Values[1])
	}
	if t3.Values[1] != 0 {
		t.Errorf("t3.v = %v, want 0 (complaint)", t3.Values[1])
	}
}

func TestSkipRefine(t *testing.T) {
	d0, dirty, truth := figure2()
	complaints := completeComplaints(t, d0, dirty, truth)
	rep, err := Diagnose(d0, dirty, complaints, Options{
		Algorithm:    Incremental,
		TupleSlicing: true,
		SkipRefine:   true,
		TimeLimit:    30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Resolved {
		t.Fatal("not resolved")
	}
	if rep.Stats.Refined {
		t.Error("refinement ran despite SkipRefine")
	}
}

func TestComplaintsResolved(t *testing.T) {
	sch := relation.MustSchema("T", []string{"a"}, "")
	tb := relation.NewTable(sch)
	tb.MustInsert(5)
	ok := ComplaintsResolved(tb, []Complaint{{TupleID: 1, Exists: true, Values: []float64{5}}}, 1e-9)
	if !ok {
		t.Error("resolved complaint reported unresolved")
	}
	bad := ComplaintsResolved(tb, []Complaint{{TupleID: 1, Exists: true, Values: []float64{6}}}, 1e-9)
	if bad {
		t.Error("unresolved complaint reported resolved")
	}
	if ComplaintsResolved(tb, []Complaint{{TupleID: 1, Exists: false}}, 1e-9) {
		t.Error("existing tuple passed nonexistence complaint")
	}
	if !ComplaintsResolved(tb, []Complaint{{TupleID: 9, Exists: false}}, 1e-9) {
		t.Error("missing tuple failed nonexistence complaint")
	}
	for _, want := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if ComplaintsResolved(tb, []Complaint{{TupleID: 1, Exists: true, Values: []float64{want}}}, 1e-9) {
			t.Errorf("complaint asking for %v reported resolved against 5", want)
		}
	}
}

// randomWorkload builds a random log over a small table, corrupts one
// query, and returns everything needed for an end-to-end check.
func randomWorkload(rng *rand.Rand) (*relation.Table, []query.Query, []query.Query, int) {
	sch := relation.MustSchema("T", []string{"a0", "a1", "a2"}, "")
	d0 := relation.NewTable(sch)
	nd := rng.Intn(10) + 5
	for i := 0; i < nd; i++ {
		d0.MustInsert(float64(rng.Intn(100)), float64(rng.Intn(100)), float64(rng.Intn(100)))
	}
	nq := rng.Intn(4) + 2
	var log []query.Query
	for i := 0; i < nq; i++ {
		switch rng.Intn(6) {
		case 0:
			log = append(log, query.NewInsert(float64(rng.Intn(100)),
				float64(rng.Intn(100)), float64(rng.Intn(100))))
		case 1:
			log = append(log, query.NewDelete(
				query.NewAnd(query.AttrPred(rng.Intn(3), query.GE, float64(rng.Intn(40)+60)),
					query.AttrPred(rng.Intn(3), query.LE, 200))))
		default:
			lo := float64(rng.Intn(80))
			log = append(log, query.NewUpdate(
				[]query.SetClause{{Attr: rng.Intn(3), Expr: query.ConstExpr(float64(rng.Intn(100)))}},
				query.NewAnd(query.AttrPred(rng.Intn(3), query.GE, lo),
					query.AttrPred(rng.Intn(3), query.LE, lo+float64(rng.Intn(30)+10)))))
		}
	}
	corrupt := rng.Intn(nq)
	truth := query.CloneLog(log)
	cq := log[corrupt]
	p := cq.Params()
	for j := range p {
		if rng.Intn(2) == 0 {
			p[j] = float64(rng.Intn(100))
		}
	}
	_ = cq.SetParams(p)
	return d0, log, truth, corrupt
}

// Property: for random single-corruption logs with complete complaint
// sets, incremental QFix finds a repair that resolves every complaint.
func TestQuickIncrementalResolves(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d0, dirty, truth, _ := randomWorkload(rng)
		dirtyFinal, err := query.Replay(dirty, d0)
		if err != nil {
			return true
		}
		truthFinal, err := query.Replay(truth, d0)
		if err != nil {
			return true
		}
		complaints := ComplaintsFromDiff(dirtyFinal, truthFinal, 1e-9)
		if len(complaints) == 0 {
			return true
		}
		rep, err := Diagnose(d0, dirty, complaints, Options{
			Algorithm:    Incremental,
			TupleSlicing: true,
			QuerySlicing: true,
			TimeLimit:    20 * time.Second,
		})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if !rep.Resolved {
			t.Logf("seed %d: unresolved (stats %+v)", seed, rep.Stats)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: the repair distance never exceeds the corruption distance
// (the truth itself is a feasible repair for the parameterized query).
func TestQuickRepairDistanceBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d0, dirty, truth, corrupt := randomWorkload(rng)
		dirtyFinal, err := query.Replay(dirty, d0)
		if err != nil {
			return true
		}
		truthFinal, err := query.Replay(truth, d0)
		if err != nil {
			return true
		}
		complaints := ComplaintsFromDiff(dirtyFinal, truthFinal, 1e-9)
		if len(complaints) == 0 {
			return true
		}
		rep, err := Diagnose(d0, dirty, complaints, Options{
			Algorithm:    Incremental,
			TupleSlicing: true,
			SkipRefine:   true,
			TimeLimit:    20 * time.Second,
		})
		if err != nil || !rep.Resolved {
			return true // covered by the other property
		}
		corruptionDist := query.Distance(dirty, truth)
		// Only comparable when the repair touched exactly the corrupted
		// query (otherwise an earlier batch found a cheaper fix, which is
		// fine and typically even smaller).
		if len(rep.Changed) == 1 && rep.Changed[0] == corrupt {
			if rep.Distance > corruptionDist+1e-6 {
				t.Logf("seed %d: distance %v > corruption %v", seed, rep.Distance, corruptionDist)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestTotalTimeLimit(t *testing.T) {
	d0, dirty, truth := figure2()
	complaints := completeComplaints(t, d0, dirty, truth)
	start := time.Now()
	rep, err := Diagnose(d0, dirty, complaints, Options{
		Algorithm:      Incremental,
		TupleSlicing:   true,
		TotalTimeLimit: time.Nanosecond, // expires immediately
	})
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 10*time.Second {
		t.Error("total time limit ignored")
	}
	if rep.Resolved {
		t.Log("resolved despite tiny budget (first batch won the race); acceptable")
	}
	_ = rep
}

func TestDistanceAccountsAllParams(t *testing.T) {
	d0, dirty, truth := figure2()
	complaints := completeComplaints(t, d0, dirty, truth)
	rep, err := Diagnose(d0, dirty, complaints, Options{
		Algorithm:    Incremental,
		TupleSlicing: true,
		TimeLimit:    30 * time.Second,
	})
	if err != nil || !rep.Resolved {
		t.Fatalf("setup failed: %v %+v", err, rep)
	}
	// Recompute distance by hand and compare.
	want := query.Distance(dirty, rep.Log)
	if math.Abs(rep.Distance-want) > 1e-9 {
		t.Errorf("distance %v != recomputed %v", rep.Distance, want)
	}
}

// Every Options field is a configuration the tests and benchmarks have
// to cover. This number may only be lowered: a new knob has to retire
// an old one.
func TestOptionsFieldBudget(t *testing.T) {
	const budget = 16
	if n := reflect.TypeOf(Options{}).NumField(); n != budget {
		t.Errorf("Options has %d fields, budget is %d", n, budget)
	}
}
