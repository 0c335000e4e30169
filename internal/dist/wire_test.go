package dist_test

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/sqlparse"
	"repro/internal/wirelock"
)

// TestWireLock diffs the job and result frames' schema against the
// committed wire.lock; `go test -run TestWireLock -update` rewrites it.
func TestWireLock(t *testing.T) {
	wirelock.Check(t, dist.Job{}, dist.Result{})
}

// fixtureSubproblem builds a subproblem exercising every wire case:
// a table with a deleted row (the ID counter must survive the trip),
// all three statement kinds, nested AND/OR conditions with every
// comparison operator, the AND shapes the parser flattens, and a fully
// populated option set.
func fixtureSubproblem(t *testing.T) core.Subproblem {
	t.Helper()
	sch := relation.MustSchema("T", []string{"a", "b", "c"}, "a")
	d0 := relation.NewTable(sch)
	d0.MustInsert(1, 10, 100)
	d0.MustInsert(2, 20, 200)
	d0.MustInsert(3, 30, 300)
	if !d0.Delete(2) {
		t.Fatal("setup: delete failed")
	}

	log := []query.Query{
		query.NewUpdate(
			[]query.SetClause{
				{Attr: 1, Expr: query.NewLinExpr(5, query.Term{Attr: 0, Coef: 2}, query.Term{Attr: 2, Coef: -0.5})},
				{Attr: 2, Expr: query.ConstExpr(7)},
			},
			query.NewAnd(
				query.AttrPred(0, query.GE, 1),
				query.NewOr(
					query.AttrPred(1, query.LT, 25),
					query.AttrPred(2, query.GT, 150),
					query.NewPred(query.NewLinExpr(0, query.Term{Attr: 0, Coef: 1}, query.Term{Attr: 1, Coef: 1}), query.EQ, 33),
				),
				query.AttrPred(2, query.LE, 400),
			)),
		query.NewInsert(4, 40, 400),
		query.NewDelete(query.AttrPred(1, query.GT, 1000)),
		query.NewUpdate([]query.SetClause{{Attr: 0, Expr: query.AttrExpr(0)}}, nil), // no WHERE
		// An AND of one predicate and an empty one parse back flattened.
		query.NewDelete(query.NewAnd(query.AttrPred(2, query.LT, 0))),
		query.NewUpdate([]query.SetClause{{Attr: 2, Expr: query.ConstExpr(-0.25)}}, query.NewAnd()),
	}

	return core.Subproblem{
		D0:  d0,
		Log: log,
		Complaints: []core.Complaint{
			{TupleID: 1, Exists: true, Values: []float64{1, 10, 100}},
			{TupleID: 3, Exists: false},
		},
		Options: core.Options{
			Algorithm:        core.Incremental,
			K:                2,
			TupleSlicing:     true,
			QuerySlicing:     true,
			AttrSlicing:      true,
			SingleCorruption: true,
			SkipRefine:       true,
			Candidates:       []int{0, 3},
			TimeLimit:        90 * time.Second,
			TotalTimeLimit:   5 * time.Minute,
			MaxNodes:         1234,
		},
	}
}

func TestJobRoundTrip(t *testing.T) {
	sub := fixtureSubproblem(t)
	job, err := dist.EncodeJob(42, sub)
	if err != nil {
		t.Fatal(err)
	}
	// Through the actual wire representation.
	raw, err := json.Marshal(job)
	if err != nil {
		t.Fatal(err)
	}
	var onWire dist.Job
	if err := json.Unmarshal(raw, &onWire); err != nil {
		t.Fatal(err)
	}
	if onWire.ID != 42 || onWire.Version != dist.WireVersion {
		t.Fatalf("header = id %d v%d, want id 42 v%d", onWire.ID, onWire.Version, dist.WireVersion)
	}
	got, err := dist.DecodeJob(&onWire)
	if err != nil {
		t.Fatal(err)
	}

	// Table: identical rows, IDs, and — critically — ID counter, so a
	// replayed INSERT allocates the same tuple ID on both sides.
	if got.D0.NextID() != sub.D0.NextID() {
		t.Errorf("NextID = %d, want %d", got.D0.NextID(), sub.D0.NextID())
	}
	if diffs := relation.DiffTables(sub.D0, got.D0, 0); len(diffs) != 0 {
		t.Errorf("D0 differs after round trip: %+v", diffs)
	}
	if got.D0.Schema().Key() != sub.D0.Schema().Key() {
		t.Errorf("schema key = %d, want %d", got.D0.Schema().Key(), sub.D0.Schema().Key())
	}

	// Log: each statement as the parser reads its SQL back, with the
	// same parameters (so a result's vectors map back onto the job's
	// own log), and the same replay semantics.
	sch := sub.D0.Schema()
	for i, q := range sub.Log {
		if want := sqlparse.MustParse(sch, q.String(sch)); !reflect.DeepEqual(got.Log[i], want) {
			t.Errorf("query %d: %s, want %s", i, tree(got.Log[i]), tree(want))
		}
		if g, w := got.Log[i].Params(), q.Params(); !reflect.DeepEqual(g, w) {
			t.Errorf("query %d: params %v, want %v", i, g, w)
		}
	}
	wantFinal, err := query.Replay(sub.Log, sub.D0)
	if err != nil {
		t.Fatal(err)
	}
	gotFinal, err := query.Replay(got.Log, got.D0)
	if err != nil {
		t.Fatal(err)
	}
	if diffs := relation.DiffTables(wantFinal, gotFinal, 0); len(diffs) != 0 {
		t.Errorf("replayed finals differ: %+v", diffs)
	}

	if !reflect.DeepEqual(got.Complaints, sub.Complaints) {
		t.Errorf("complaints differ: %+v != %+v", got.Complaints, sub.Complaints)
	}
	if !reflect.DeepEqual(got.Options, sub.Options) {
		t.Errorf("options differ:\n got %+v\nwant %+v", got.Options, sub.Options)
	}
}

func TestResultRoundTrip(t *testing.T) {
	sub := fixtureSubproblem(t)
	rep := &core.Repair{
		Log:      sub.Log,
		Changed:  []int{0, 2},
		Distance: 3.5,
		Resolved: true,
		Stats: core.Stats{
			Rows: 10, Vars: 20, Binaries: 5, BatchesTried: 2,
			RelevantQueries: 3, PlanPasses: 1,
			EncodeTime: time.Millisecond, SolveTime: 2 * time.Millisecond,
			LastStatus: "optimal",
		},
	}
	res, err := dist.EncodeResult(7, rep, nil)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var onWire dist.Result
	if err := json.Unmarshal(raw, &onWire); err != nil {
		t.Fatal(err)
	}
	got, err := dist.DecodeResult(&onWire)
	if err != nil {
		t.Fatal(err)
	}
	if got.Distance != rep.Distance || got.Resolved != rep.Resolved {
		t.Errorf("distance/resolved = %v/%v, want %v/%v",
			got.Distance, got.Resolved, rep.Distance, rep.Resolved)
	}
	if !reflect.DeepEqual(got.Changed, rep.Changed) {
		t.Errorf("changed = %v, want %v", got.Changed, rep.Changed)
	}
	if !reflect.DeepEqual(got.Stats, rep.Stats) {
		t.Errorf("stats differ:\n got %+v\nwant %+v", got.Stats, rep.Stats)
	}
	// The log stays home: the result carries each changed statement's
	// parameters, in Changed order, and DecodeResult leaves Log to the
	// coordinator, which holds the job's.
	if got.Log != nil {
		t.Errorf("decoded repair has a %d-statement log; a result carries none", len(got.Log))
	}
	wantParams := [][]float64{rep.Log[0].Params(), rep.Log[2].Params()}
	if !reflect.DeepEqual(onWire.Params, wantParams) {
		t.Errorf("params = %v, want %v", onWire.Params, wantParams)
	}

	// Solver errors travel as Result.Err and come back as Go errors.
	errRes, err := dist.EncodeResult(8, nil, errTest)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dist.DecodeResult(errRes); err == nil {
		t.Error("worker-side error did not propagate through DecodeResult")
	}
}

var errTest = &testError{}

type testError struct{}

func (*testError) Error() string { return "synthetic solver failure" }

// A frame of any version but WireVersion — newer or older — is refused
// by both decoders and by the worker-side handler.
func TestVersionMismatchRejected(t *testing.T) {
	for _, v := range []int{dist.WireVersion + 1, dist.WireVersion - 1} {
		job, err := dist.EncodeJob(1, fixtureSubproblem(t))
		if err != nil {
			t.Fatal(err)
		}
		job.Version = v
		if _, err := dist.DecodeJob(job); err == nil {
			t.Errorf("DecodeJob accepted a v%d job", v)
		}
		// The worker-side handler must reject it too, as an error Result —
		// InProc runs exactly the server's handler.
		res, err := dist.InProc{}.Do(context.Background(), job)
		if err != nil {
			t.Fatal(err)
		}
		if res.Err == "" {
			t.Errorf("worker solved a v%d job", v)
		}
		if _, err := dist.DecodeResult(&dist.Result{Version: v}); err == nil {
			t.Errorf("DecodeResult accepted a v%d result", v)
		}
	}
}
