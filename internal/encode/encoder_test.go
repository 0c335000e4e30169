package encode

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/milp"
	"repro/internal/query"
	"repro/internal/relation"
)

// figure2 builds the paper's running example (Figure 2): D0, the
// corrupted log (q1's predicate constant transposed 87500 -> 85700), and
// the two complaints on t3 and t4.
func figure2() (*relation.Table, []query.Query, []Complaint) {
	sch := relation.MustSchema("Taxes", []string{"income", "owed", "pay"}, "")
	d0 := relation.NewTable(sch)
	d0.MustInsert(9500, 950, 8550)
	d0.MustInsert(90000, 22500, 67500)
	d0.MustInsert(86000, 21500, 64500)
	d0.MustInsert(86500, 21625, 64875)
	log := []query.Query{
		query.NewUpdate(
			[]query.SetClause{{Attr: 1, Expr: query.NewLinExpr(0, query.Term{Attr: 0, Coef: 0.3})}},
			query.AttrPred(0, query.GE, 85700)),
		query.NewInsert(85800, 21450, 0),
		query.NewUpdate(
			[]query.SetClause{{Attr: 2, Expr: query.NewLinExpr(0,
				query.Term{Attr: 0, Coef: 1}, query.Term{Attr: 1, Coef: -1})}},
			nil),
	}
	complaints := []Complaint{
		{TupleID: 3, Exists: true, Values: []float64{86000, 21500, 64500}},
		{TupleID: 4, Exists: true, Values: []float64{86500, 21625, 64875}},
	}
	return d0, log, complaints
}

// applyRepair writes solved parameter values back into a cloned log.
func applyRepair(t *testing.T, log []query.Query, refs []ParamRef, vals []float64) []query.Query {
	t.Helper()
	out := query.CloneLog(log)
	byQuery := map[int][]float64{}
	for qi, q := range out {
		byQuery[qi] = q.Params()
	}
	for i, r := range refs {
		byQuery[r.Query][r.Index] = vals[i]
	}
	for qi, q := range out {
		if err := q.SetParams(byQuery[qi]); err != nil {
			t.Fatalf("SetParams q%d: %v", qi, err)
		}
	}
	return out
}

func solveEncoded(t *testing.T, res *Result) []float64 {
	t.Helper()
	mres, vals := res.SolveOpts(milp.Options{TimeLimit: 30 * time.Second})
	if !mres.HasSolution {
		t.Fatalf("no solution: status=%v nodes=%d", mres.Status, mres.Nodes)
	}
	return vals
}

func TestFigure2TupleSliced(t *testing.T) {
	d0, log, complaints := figure2()
	res, err := Encode(d0, log, complaints, Options{
		ParamQueries: map[int]bool{0: true},
		TupleIDs:     []int64{3, 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	vals := solveEncoded(t, res)
	repaired := applyRepair(t, log, res.Params, vals)

	// The repaired WHERE constant must exclude t4 (income 86500): theta
	// in (86500, +inf); distance-minimal is just above 86500.
	theta := repaired[0].(*query.Update).Where.(*query.Pred).RHS
	if theta <= 86500 {
		t.Errorf("repaired theta = %v, want > 86500", theta)
	}
	// Replaying the repaired log resolves both complaints.
	final, err := query.Replay(repaired, d0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range complaints {
		got, ok := final.Get(c.TupleID)
		if !ok {
			t.Fatalf("tuple %d missing after repair", c.TupleID)
		}
		for a, want := range c.Values {
			if math.Abs(got.Values[a]-want) > 1e-6 {
				t.Errorf("tuple %d attr %d = %v, want %v", c.TupleID, a, got.Values[a], want)
			}
		}
	}
}

func TestFigure2Basic(t *testing.T) {
	d0, log, complaints := figure2()
	res, err := Encode(d0, log, complaints, Options{
		ParamQueries:     map[int]bool{0: true, 1: true, 2: true},
		FixNonComplaints: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	vals := solveEncoded(t, res)
	repaired := applyRepair(t, log, res.Params, vals)
	final, err := query.Replay(repaired, d0)
	if err != nil {
		t.Fatal(err)
	}
	// Under basic, ALL tuples must land exactly: t2 stays matched (27000),
	// the inserted tuple keeps its dirty values, t1 untouched.
	want := map[int64][]float64{
		1: {9500, 950, 8550},
		2: {90000, 27000, 63000},
		3: {86000, 21500, 64500},
		4: {86500, 21625, 64875},
		5: {85800, 21450, 64350},
	}
	if final.Len() != len(want) {
		t.Fatalf("final has %d tuples", final.Len())
	}
	for id, w := range want {
		got, ok := final.Get(id)
		if !ok {
			t.Fatalf("tuple %d missing", id)
		}
		for a := range w {
			if math.Abs(got.Values[a]-w[a]) > 1e-6 {
				t.Errorf("tuple %d attr %d = %v, want %v", id, a, got.Values[a], w[a])
			}
		}
	}
}

func TestIdentityRepairWhenNoComplaints(t *testing.T) {
	// With no complaints and hard non-complaint constraints, the optimal
	// repair is the original log (distance 0).
	d0, log, _ := figure2()
	res, err := Encode(d0, log, nil, Options{
		ParamQueries:     map[int]bool{0: true, 2: true},
		FixNonComplaints: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	mres, vals := res.SolveOpts(milp.Options{TimeLimit: 30 * time.Second})
	if !mres.HasSolution {
		t.Fatalf("status %v", mres.Status)
	}
	if mres.Obj > 1e-5 {
		t.Errorf("identity repair should cost 0, got %v", mres.Obj)
	}
	for i, r := range res.Params {
		if math.Abs(vals[i]-r.Orig) > 1e-5 {
			t.Errorf("param %d moved: %v -> %v", i, r.Orig, vals[i])
		}
	}
}

func TestPointUpdateKeyRepair(t *testing.T) {
	// UPDATE ... WHERE id = K with a corrupted key: the repair must
	// retarget the equality predicate to the complained-about tuple.
	sch := relation.MustSchema("T", []string{"id", "val"}, "id")
	d0 := relation.NewTable(sch)
	for i := 1; i <= 5; i++ {
		d0.MustInsert(float64(i), 10*float64(i))
	}
	// Truth: UPDATE T SET val=999 WHERE id=3. Corruption: id=2.
	log := []query.Query{
		query.NewUpdate([]query.SetClause{{Attr: 1, Expr: query.ConstExpr(999)}},
			query.AttrPred(0, query.EQ, 2)),
	}
	complaints := []Complaint{
		{TupleID: 2, Exists: true, Values: []float64{2, 20}},  // should not have changed
		{TupleID: 3, Exists: true, Values: []float64{3, 999}}, // should have changed
	}
	res, err := Encode(d0, log, complaints, Options{
		ParamQueries: map[int]bool{0: true},
		TupleIDs:     []int64{2, 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	vals := solveEncoded(t, res)
	repaired := applyRepair(t, log, res.Params, vals)
	key := repaired[0].(*query.Update).Where.(*query.Pred).RHS
	if math.Abs(key-3) > 1e-6 {
		t.Errorf("repaired key = %v, want 3", key)
	}
}

func TestDeleteRepairWithLiveness(t *testing.T) {
	// q1 DELETE WHERE a >= 10 (corrupted; truth >= 100) wrongly removes a
	// tuple; q2 then updates survivors. The complaint demands the tuple
	// exist with q2's effect applied, exercising liveness threading.
	sch := relation.MustSchema("T", []string{"a", "b"}, "")
	d0 := relation.NewTable(sch)
	d0.MustInsert(50, 1)
	d0.MustInsert(200, 1)
	log := []query.Query{
		query.NewDelete(query.AttrPred(0, query.GE, 10)),
		query.NewUpdate([]query.SetClause{{Attr: 1, Expr: query.NewLinExpr(5, query.Term{Attr: 1, Coef: 1})}},
			query.AttrPred(0, query.GE, 0)),
	}
	complaints := []Complaint{
		{TupleID: 1, Exists: true, Values: []float64{50, 6}},
	}
	res, err := Encode(d0, log, complaints, Options{
		ParamQueries: map[int]bool{0: true},
		TupleIDs:     []int64{1},
	})
	if err != nil {
		t.Fatal(err)
	}
	vals := solveEncoded(t, res)
	repaired := applyRepair(t, log, res.Params, vals)
	theta := repaired[0].(*query.Delete).Where.(*query.Pred).RHS
	if theta <= 50 {
		t.Errorf("repaired delete threshold = %v, want > 50", theta)
	}
	final, err := query.Replay(repaired, d0)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := final.Get(1)
	if !ok || math.Abs(got.Values[1]-6) > 1e-6 {
		t.Errorf("tuple 1 after repair: %v ok=%v, want [50 6]", got.Values, ok)
	}
}

func TestInsertValueRepair(t *testing.T) {
	sch := relation.MustSchema("T", []string{"a", "b"}, "")
	d0 := relation.NewTable(sch)
	d0.MustInsert(1, 1)
	log := []query.Query{
		query.NewInsert(70, 80), // corrupted; truth (7, 8)
	}
	complaints := []Complaint{
		{TupleID: 2, Exists: true, Values: []float64{7, 8}},
	}
	res, err := Encode(d0, log, complaints, Options{
		ParamQueries: map[int]bool{0: true},
		TupleIDs:     []int64{2},
	})
	if err != nil {
		t.Fatal(err)
	}
	vals := solveEncoded(t, res)
	repaired := applyRepair(t, log, res.Params, vals)
	ins := repaired[0].(*query.Insert)
	if math.Abs(ins.Values[0]-7) > 1e-6 || math.Abs(ins.Values[1]-8) > 1e-6 {
		t.Errorf("repaired insert = %v, want [7 8]", ins.Values)
	}
}

func TestDeleteShouldHaveDeletedComplaint(t *testing.T) {
	// Complaint t -> ⊥: the tuple should have been deleted. The repaired
	// DELETE predicate must cover it.
	sch := relation.MustSchema("T", []string{"a"}, "")
	d0 := relation.NewTable(sch)
	d0.MustInsert(5)
	d0.MustInsert(15)
	log := []query.Query{
		query.NewDelete(query.AttrPred(0, query.GE, 10)), // truth: >= 4
	}
	complaints := []Complaint{
		{TupleID: 1, Exists: false},
	}
	res, err := Encode(d0, log, complaints, Options{
		ParamQueries: map[int]bool{0: true},
		TupleIDs:     []int64{1},
	})
	if err != nil {
		t.Fatal(err)
	}
	vals := solveEncoded(t, res)
	repaired := applyRepair(t, log, res.Params, vals)
	final, err := query.Replay(repaired, d0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := final.Get(1); ok {
		t.Error("tuple 1 still exists after repair")
	}
}

func TestConstantFoldingKeepsModelsSmall(t *testing.T) {
	// A 20-query log where only the last query is parameterized: every
	// earlier query must fold away entirely.
	sch := relation.MustSchema("T", []string{"a", "b"}, "")
	d0 := relation.NewTable(sch)
	for i := 0; i < 10; i++ {
		d0.MustInsert(float64(i*10), 0)
	}
	var log []query.Query
	for i := 0; i < 19; i++ {
		log = append(log, query.NewUpdate(
			[]query.SetClause{{Attr: 1, Expr: query.NewLinExpr(1, query.Term{Attr: 1, Coef: 1})}},
			query.AttrPred(0, query.GE, float64(i*5))))
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
	res, err := Encode(d0, log, complaints, Options{
		ParamQueries: map[int]bool{19: true},
		TupleIDs:     []int64{9},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Rows > 40 {
		t.Errorf("expected tiny model after folding, got %d rows", res.Stats.Rows)
	}
	if res.Stats.FoldedSigmas != 0 {
		// Only parameterized queries are counted; q19 is symbolic here.
		t.Logf("folded sigmas: %d", res.Stats.FoldedSigmas)
	}
	solveEncoded(t, res)
}

func TestAttributeSlicingWithPromotion(t *testing.T) {
	// 6-attribute table; the corrupted query touches a1 only. Encoding
	// with Attrs={0,1} must still solve correctly.
	sch := relation.MustSchema("T", []string{"k", "a1", "a2", "a3", "a4", "a5"}, "k")
	d0 := relation.NewTable(sch)
	for i := 1; i <= 4; i++ {
		d0.MustInsert(float64(i), 10, 20, 30, 40, 50)
	}
	log := []query.Query{
		query.NewUpdate([]query.SetClause{{Attr: 1, Expr: query.ConstExpr(99)}},
			query.AttrPred(0, query.GE, 2)), // truth: >= 4
	}
	complaints := []Complaint{
		{TupleID: 2, Exists: true, Values: []float64{2, 10, 20, 30, 40, 50}},
		{TupleID: 3, Exists: true, Values: []float64{3, 10, 20, 30, 40, 50}},
		{TupleID: 4, Exists: true, Values: []float64{4, 99, 20, 30, 40, 50}},
	}
	res, err := Encode(d0, log, complaints, Options{
		ParamQueries: map[int]bool{0: true},
		TupleIDs:     []int64{2, 3, 4},
		Attrs:        []int{0, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	vals := solveEncoded(t, res)
	repaired := applyRepair(t, log, res.Params, vals)
	theta := repaired[0].(*query.Update).Where.(*query.Pred).RHS
	if theta <= 3 || theta > 4 {
		t.Errorf("repaired theta = %v, want in (3, 4]", theta)
	}
}

func TestFrozenComplaintAttrError(t *testing.T) {
	// Complaint on an attribute outside the slice whose target differs
	// from the dirty value: the encoder must reject with a clear error.
	sch := relation.MustSchema("T", []string{"a", "b"}, "")
	d0 := relation.NewTable(sch)
	d0.MustInsert(1, 2)
	log := []query.Query{
		query.NewUpdate([]query.SetClause{{Attr: 0, Expr: query.ConstExpr(5)}}, nil),
	}
	complaints := []Complaint{{TupleID: 1, Exists: true, Values: []float64{5, 99}}}
	_, err := Encode(d0, log, complaints, Options{
		ParamQueries: map[int]bool{0: true},
		Attrs:        []int{0},
	})
	if err == nil {
		t.Fatal("expected frozen-attribute error")
	}
}

func TestComplaintOnUnknownTuple(t *testing.T) {
	sch := relation.MustSchema("T", []string{"a"}, "")
	d0 := relation.NewTable(sch)
	d0.MustInsert(1)
	log := []query.Query{query.NewInsert(2.0)}
	_, err := Encode(d0, log, []Complaint{{TupleID: 99, Exists: true, Values: []float64{1}}},
		Options{ParamQueries: map[int]bool{0: true}})
	if err == nil {
		t.Fatal("expected unknown-tuple error")
	}
}

func TestInfeasibleComplaint(t *testing.T) {
	// No parameterized query can influence the complaint attribute: the
	// model must come back infeasible (not error), matching the paper's
	// treatment of unsatisfiable complaint sets.
	sch := relation.MustSchema("T", []string{"a", "b"}, "")
	d0 := relation.NewTable(sch)
	d0.MustInsert(1, 2)
	log := []query.Query{
		query.NewUpdate([]query.SetClause{{Attr: 0, Expr: query.ConstExpr(5)}}, nil),
	}
	// Complaint wants b=99, but only attr a is ever written.
	complaints := []Complaint{{TupleID: 1, Exists: true, Values: []float64{5, 99}}}
	res, err := Encode(d0, log, complaints, Options{
		ParamQueries: map[int]bool{0: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	mres, _ := res.SolveOpts(milp.Options{TimeLimit: time.Second})
	if mres.Status != milp.Infeasible {
		t.Errorf("status = %v, want infeasible", mres.Status)
	}
}

func TestIncompleteComplaintSetBasicInfeasible(t *testing.T) {
	// The §6 scenario: with an incomplete complaint set, basic declares
	// infeasibility, while tuple slicing succeeds.
	d0, log, complaints := figure2()
	onlyT4 := complaints[1:] // drop the complaint on t3

	basicRes, err := Encode(d0, log, onlyT4, Options{
		ParamQueries:     map[int]bool{0: true},
		FixNonComplaints: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	mres, _ := basicRes.SolveOpts(milp.Options{TimeLimit: 10 * time.Second})
	if mres.Status != milp.Infeasible {
		t.Errorf("basic with incomplete complaints: status = %v, want infeasible", mres.Status)
	}

	slicedRes, err := Encode(d0, log, onlyT4, Options{
		ParamQueries: map[int]bool{0: true},
		TupleIDs:     []int64{4},
	})
	if err != nil {
		t.Fatal(err)
	}
	sres, vals := slicedRes.SolveOpts(milp.Options{TimeLimit: 10 * time.Second})
	if !sres.HasSolution {
		t.Fatalf("sliced: status = %v", sres.Status)
	}
	repaired := applyRepair(t, log, slicedRes.Params, vals)
	theta := repaired[0].(*query.Update).Where.(*query.Pred).RHS
	if theta <= 86500 {
		t.Errorf("sliced repair theta = %v, want > 86500", theta)
	}
}

func TestRefinementSoftTuples(t *testing.T) {
	// Figure 5(b) scenario: dirty and truth intervals overlap complaints;
	// a non-complaint tuple sits between them. The refinement objective
	// must keep it out of the repaired interval when possible.
	sch := relation.MustSchema("T", []string{"a", "v"}, "")
	d0 := relation.NewTable(sch)
	d0.MustInsert(10, 0) // complaint: was wrongly updated
	d0.MustInsert(20, 0) // non-complaint in between
	d0.MustInsert(30, 0) // complaint: correctly updated
	// Truth: UPDATE SET v=1 WHERE a >= 25. Dirty: a >= 5.
	log := []query.Query{
		query.NewUpdate([]query.SetClause{{Attr: 1, Expr: query.ConstExpr(1)}},
			query.AttrPred(0, query.GE, 5)),
	}
	complaints := []Complaint{
		{TupleID: 1, Exists: true, Values: []float64{10, 0}},
		{TupleID: 3, Exists: true, Values: []float64{30, 1}},
	}
	res, err := Encode(d0, log, complaints, Options{
		ParamQueries: map[int]bool{0: true},
		TupleIDs:     []int64{1, 3},
		SoftTupleIDs: []int64{2},
	})
	if err != nil {
		t.Fatal(err)
	}
	vals := solveEncoded(t, res)
	repaired := applyRepair(t, log, res.Params, vals)
	theta := repaired[0].(*query.Update).Where.(*query.Pred).RHS
	// Without the soft tuple the distance-minimal theta would be just
	// above 10 (e.g. 10.5), catching tuple 2. With the refinement
	// objective the solver must push theta past 20.
	if theta <= 20 {
		t.Errorf("refined theta = %v, want > 20 (soft tuple excluded)", theta)
	}
	if theta > 30 {
		t.Errorf("refined theta = %v overshot the matched complaint", theta)
	}
}

func TestMultiPredicateConjunction(t *testing.T) {
	// Range predicate (two conjoined comparisons) with one corrupted
	// endpoint.
	sch := relation.MustSchema("T", []string{"a", "v"}, "")
	d0 := relation.NewTable(sch)
	d0.MustInsert(10, 0)
	d0.MustInsert(20, 0)
	d0.MustInsert(30, 0)
	// Truth: a in [15, 25] -> v=1. Corruption: a in [15, 35].
	log := []query.Query{
		query.NewUpdate([]query.SetClause{{Attr: 1, Expr: query.ConstExpr(1)}},
			query.NewAnd(query.AttrPred(0, query.GE, 15), query.AttrPred(0, query.LE, 35))),
	}
	complaints := []Complaint{
		{TupleID: 2, Exists: true, Values: []float64{20, 1}},
		{TupleID: 3, Exists: true, Values: []float64{30, 0}},
	}
	res, err := Encode(d0, log, complaints, Options{
		ParamQueries: map[int]bool{0: true},
		TupleIDs:     []int64{2, 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	vals := solveEncoded(t, res)
	repaired := applyRepair(t, log, res.Params, vals)
	w := repaired[0].(*query.Update).Where.(*query.And)
	lo := w.Kids[0].(*query.Pred).RHS
	hi := w.Kids[1].(*query.Pred).RHS
	if lo > 20 || hi < 20 || hi >= 30 {
		t.Errorf("repaired range [%v, %v], want to include 20 and exclude 30", lo, hi)
	}
}

func TestDisjunctionEncoding(t *testing.T) {
	sch := relation.MustSchema("T", []string{"a", "v"}, "")
	d0 := relation.NewTable(sch)
	d0.MustInsert(10, 0)
	d0.MustInsert(50, 0)
	// Truth: (a <= 5 OR a >= 45) -> v=1. Corruption: (a <= 15 OR a >= 45).
	log := []query.Query{
		query.NewUpdate([]query.SetClause{{Attr: 1, Expr: query.ConstExpr(1)}},
			query.NewOr(query.AttrPred(0, query.LE, 15), query.AttrPred(0, query.GE, 45))),
	}
	complaints := []Complaint{
		{TupleID: 1, Exists: true, Values: []float64{10, 0}},
		{TupleID: 2, Exists: true, Values: []float64{50, 1}},
	}
	res, err := Encode(d0, log, complaints, Options{
		ParamQueries: map[int]bool{0: true},
		TupleIDs:     []int64{1, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	vals := solveEncoded(t, res)
	repaired := applyRepair(t, log, res.Params, vals)
	final, err := query.Replay(repaired, d0)
	if err != nil {
		t.Fatal(err)
	}
	t1, _ := final.Get(1)
	t2, _ := final.Get(2)
	if t1.Values[1] != 0 || t2.Values[1] != 1 {
		t.Errorf("after repair: t1.v=%v t2.v=%v, want 0 and 1", t1.Values[1], t2.Values[1])
	}
}

// Property: for random single-corruption UPDATE logs, the encoder+solver
// produce a repair that resolves every complaint on replay.
func TestQuickRepairResolvesComplaints(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sch := relation.MustSchema("T", []string{"a0", "a1", "a2"}, "")
		d0 := relation.NewTable(sch)
		nd := rng.Intn(8) + 4
		for i := 0; i < nd; i++ {
			d0.MustInsert(float64(rng.Intn(100)), float64(rng.Intn(100)), float64(rng.Intn(100)))
		}
		nq := rng.Intn(3) + 1
		var trueLog []query.Query
		for i := 0; i < nq; i++ {
			attr := rng.Intn(3)
			setAttr := rng.Intn(3)
			lo := float64(rng.Intn(80))
			trueLog = append(trueLog, query.NewUpdate(
				[]query.SetClause{{Attr: setAttr, Expr: query.ConstExpr(float64(rng.Intn(100)))}},
				query.NewAnd(query.AttrPred(attr, query.GE, lo),
					query.AttrPred(attr, query.LE, lo+float64(rng.Intn(20)+5)))))
		}
		corruptIdx := rng.Intn(nq)
		dirtyLog := query.CloneLog(trueLog)
		cu := dirtyLog[corruptIdx].(*query.Update)
		p := cu.Params()
		p[0] = float64(rng.Intn(100))         // SET constant
		p[1] = float64(rng.Intn(80))          // range lower bound
		p[2] = p[1] + float64(rng.Intn(20)+5) // range upper bound
		if err := cu.SetParams(p); err != nil {
			return false
		}

		trueFinal, err := query.Replay(trueLog, d0)
		if err != nil {
			return false
		}
		dirtyFinal, err := query.Replay(dirtyLog, d0)
		if err != nil {
			return false
		}
		diffs := relation.DiffTables(dirtyFinal, trueFinal, 1e-9)
		if len(diffs) == 0 {
			return true // corruption happened to be harmless
		}
		var complaints []Complaint
		var ids []int64
		for _, d := range diffs {
			complaints = append(complaints, Complaint{
				TupleID: d.ID, Exists: true, Values: d.After.Values})
			ids = append(ids, d.ID)
		}
		res, err := Encode(d0, dirtyLog, complaints, Options{
			ParamQueries: map[int]bool{corruptIdx: true},
			TupleIDs:     ids,
		})
		if err != nil {
			t.Logf("seed %d: encode error: %v", seed, err)
			return false
		}
		mres, vals := res.SolveOpts(milp.Options{TimeLimit: 20 * time.Second})
		if !mres.HasSolution {
			// The true parameters are a feasible assignment, so this
			// must not happen.
			t.Logf("seed %d: no solution (%v), model %d rows %d bins",
				seed, mres.Status, res.Stats.Rows, res.Stats.Binaries)
			return false
		}
		repaired := applyRepair(t, dirtyLog, res.Params, vals)
		final, err := query.Replay(repaired, d0)
		if err != nil {
			return false
		}
		for _, c := range complaints {
			got, ok := final.Get(c.TupleID)
			if !ok {
				t.Logf("seed %d: tuple %d missing", seed, c.TupleID)
				return false
			}
			for a, want := range c.Values {
				if math.Abs(got.Values[a]-want) > 1e-4 {
					t.Logf("seed %d: tuple %d attr %d = %v, want %v",
						seed, c.TupleID, a, got.Values[a], want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: the ground-truth parameters always satisfy the encoded
// constraint system (solver obj <= distance(dirty, truth)).
func TestQuickTrueParamsFeasible(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sch := relation.MustSchema("T", []string{"a0", "a1"}, "")
		d0 := relation.NewTable(sch)
		for i := 0; i < 6; i++ {
			d0.MustInsert(float64(rng.Intn(50)), float64(rng.Intn(50)))
		}
		trueQ := query.NewUpdate(
			[]query.SetClause{{Attr: 1, Expr: query.NewLinExpr(float64(rng.Intn(20)),
				query.Term{Attr: 1, Coef: 1})}},
			query.AttrPred(0, query.GE, float64(rng.Intn(50))))
		dirtyQ := trueQ.Clone().(*query.Update)
		p := dirtyQ.Params()
		p[0] += float64(rng.Intn(30) + 1)
		p[1] = float64(rng.Intn(50))
		if err := dirtyQ.SetParams(p); err != nil {
			return false
		}
		trueLog := []query.Query{trueQ}
		dirtyLog := []query.Query{dirtyQ}
		trueFinal, _ := query.Replay(trueLog, d0)
		dirtyFinal, _ := query.Replay(dirtyLog, d0)
		diffs := relation.DiffTables(dirtyFinal, trueFinal, 1e-9)
		if len(diffs) == 0 {
			return true
		}
		var complaints []Complaint
		var ids []int64
		for _, d := range diffs {
			complaints = append(complaints, Complaint{TupleID: d.ID, Exists: true, Values: d.After.Values})
			ids = append(ids, d.ID)
		}
		res, err := Encode(d0, dirtyLog, complaints, Options{
			ParamQueries: map[int]bool{0: true},
			TupleIDs:     ids,
		})
		if err != nil {
			return false
		}
		mres, _ := res.SolveOpts(milp.Options{TimeLimit: 20 * time.Second})
		if !mres.HasSolution {
			t.Logf("seed %d: infeasible but truth is a witness", seed)
			return false
		}
		trueDist := query.Distance(dirtyLog, trueLog)
		if mres.Obj > trueDist+1e-5 {
			t.Logf("seed %d: obj %v exceeds truth distance %v", seed, mres.Obj, trueDist)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestStatsPopulated(t *testing.T) {
	d0, log, complaints := figure2()
	res, err := Encode(d0, log, complaints, Options{
		ParamQueries: map[int]bool{0: true},
		TupleIDs:     []int64{3, 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.Rows == 0 || st.Vars == 0 || st.Binaries == 0 || st.TuplesTracked != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestAffHelpers(t *testing.T) {
	a := constAff(3)
	if !a.isConst() || a.lo != 3 || a.hi != 3 {
		t.Errorf("constAff = %+v", a)
	}
	m := milp.NewModel()
	v := m.NewContinuous(-2, 5)
	av := varAff(m, v)
	if av.lo != -2 || av.hi != 5 {
		t.Errorf("varAff bounds = %v %v", av.lo, av.hi)
	}
	sum := a.add(av)
	if sum.lo != 1 || sum.hi != 8 || sum.c != 3 {
		t.Errorf("add = %+v", sum)
	}
	neg := sum.scale(-2)
	if neg.lo != -16 || neg.hi != -2 {
		t.Errorf("scale = %+v", neg)
	}
	if !neg.normalized() {
		t.Error("terms not sorted")
	}
	cancel := av.add(av.scale(-1))
	if !cancel.isConst() || cancel.lo != 0 || cancel.hi != 0 {
		t.Errorf("cancel = %+v", cancel)
	}
	if finiteOr(math.Inf(1), 7) != 7 || finiteOr(math.Inf(-1), 7) != -7 || finiteOr(3, 7) != 3 {
		t.Error("finiteOr wrong")
	}
}
