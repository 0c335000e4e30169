// External test: the engine's encoder and diagnoser against the paper's
// §4 model (textbook_workload_test.go). The encoder folds decisive
// predicates, confines predicate parameters to windows and hands the
// MILP to presolve; the property says none of that changes which
// repairs exist or how far the nearest one is from the log.
package core_test

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/encode"
	"repro/internal/milp"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/workload"
)

// minimalityCase is one instance of the property.
type minimalityCase struct {
	name       string
	d0         *relation.Table
	log        []query.Query
	complaints []core.Complaint
	// sets lists the parameterized query sets compared at batch level;
	// nil means every query together and each query alone.
	sets [][]int
	// endToEnd also diagnoses the instance under each option set of
	// checkEndToEnd; only instances of about 10 rows × 4 queries keep
	// Basic, which parameterizes every query at once, inside the limit.
	endToEnd bool
	// check, when set, asserts case-specific facts about one batch.
	check func(t *testing.T, b batchPair)
}

// batchPair is one parameterized set solved both ways.
type batchPair struct {
	set      []int
	eng      *encode.Result
	engRes   milp.Result
	engVals  []float64
	book     *textbook
	bookRes  milp.Result
	skipped  bool // either side hit its limit
	feasible bool // the textbook found a repair
}

// TestEncoderMatchesTextbookModel is the minimality property. At batch
// level, for each parameterized set, the engine's encoding (folding,
// windows, presolve; engine solver defaults) and the textbook §4 model
// (none of them) agree: the engine reports infeasible only where the
// textbook does, and otherwise both optima are equal within 1e-6
// relative. Every engine parameter's bounds also lie inside the
// textbook's box [θ_orig − M, θ_orig + M] and contain θ_orig.
//
// End to end, every resolved core.Diagnose repair replays cleanly, and
// its distance relates to the textbook optimum over all queries (opt) as
// §5 says:
//   - Basic, no slicing: = opt. It solves exactly the textbook's problem.
//   - Incremental, K=1: ≥ opt, and = the single-query optimum of the
//     newest query whose own set is feasible. Each batch restricts the
//     repair to one query; without tuple slicing every non-complaint
//     tuple is pinned, so the first feasible batch from the end has no
//     damage and is returned.
//   - QuerySlicing: = opt. A query whose full impact misses the
//     complaint attributes cannot move a complaint attribute (§5.2), so
//     the optimum leaves it unchanged and dropping it loses nothing.
//   - AttrSlicing: = opt. Attributes no relevant query reaches keep
//     their dirty values in every repair (§5.3), so freezing them loses
//     nothing.
//   - TupleSlicing with SkipRefine: ≤ opt. Step 1 of §5.1 drops the
//     non-complaint tuples' constraints, a relaxation of the textbook's
//     model, and it still resolves whenever the textbook is feasible.
//   - SingleCorruption (with QuerySlicing): ≥ opt. It keeps only the
//     queries whose full impact covers every complaint attribute (§5.2),
//     a restriction of the textbook's search.
//
// A solve that hits its time limit on either side is skipped and
// counted, never asserted; the run fails if too few comparisons remain.
// Under -short the hand-built instances and the first generator seed
// run.
func TestEncoderMatchesTextbookModel(t *testing.T) {
	limit, want := 20*time.Second, 10
	gen := generatorCases(t)
	if testing.Short() {
		limit, want, gen = 5*time.Second, 3, gen[:1]
	}
	cases := append(handBuiltCases(t), gen...)
	compared, skipped, diagnosed := 0, 0, 0
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			all := make([]int, len(c.log))
			for i := range all {
				all[i] = i
			}
			sets := c.sets
			if sets == nil {
				sets = [][]int{all}
				for i := range c.log {
					sets = append(sets, []int{i})
				}
			}
			pairs := make(map[string]batchPair)
			for _, set := range sets {
				p := solveBoth(t, c, set, limit)
				pairs[fmt.Sprint(set)] = p
				if p.skipped {
					skipped++
					continue
				}
				compared++
				comparePair(t, p)
				if c.check != nil {
					c.check(t, p)
				}
			}
			if c.endToEnd {
				diagnosed += checkEndToEnd(t, c, pairs, all, limit)
			}
		})
	}
	t.Logf("%d batch comparisons, %d skipped at the %v limit; %d diagnoses checked",
		compared, skipped, limit, diagnosed)
	if compared < want {
		t.Errorf("only %d comparisons without a limit stop, want at least %d", compared, want)
	}
}

// solveBoth encodes and solves one parameterized set with the engine's
// encoder and with the textbook model.
func solveBoth(t *testing.T, c minimalityCase, set []int, limit time.Duration) batchPair {
	t.Helper()
	param := make(map[int]bool, len(set))
	for _, i := range set {
		param[i] = true
	}
	enc := make([]encode.Complaint, len(c.complaints))
	want := make(map[int64][]float64, len(c.complaints))
	for i, cp := range c.complaints {
		enc[i] = encode.Complaint{TupleID: cp.TupleID, Exists: cp.Exists, Values: cp.Values}
		if cp.Exists {
			want[cp.TupleID] = cp.Values
		} else {
			want[cp.TupleID] = nil
		}
	}
	p := batchPair{set: set}
	var err error
	p.eng, err = encode.Encode(c.d0, c.log, enc, encode.Options{ParamQueries: param, FixNonComplaints: true})
	if err != nil {
		t.Fatal(err)
	}
	p.engRes, p.engVals = p.eng.SolveOpts(milp.Options{TimeLimit: limit})
	if p.book, err = buildTextbook(c.d0, c.log, want, param); err != nil {
		t.Fatal(err)
	}
	p.bookRes = p.book.m.Solve(milp.Options{NoPresolve: true, TimeLimit: limit})
	p.skipped = p.engRes.Status == milp.Limit || p.bookRes.Status == milp.Limit
	p.feasible = p.bookRes.Status == milp.Optimal
	return p
}

// comparePair asserts the batch-level half of the property.
func comparePair(t *testing.T, p batchPair) {
	t.Helper()
	if len(p.eng.Params) != len(p.book.theta) {
		t.Fatalf("set %v: engine has %d parameters, textbook %d", p.set, len(p.eng.Params), len(p.book.theta))
	}
	for j, ep := range p.eng.Params {
		bp := p.book.theta[j]
		if ep.Query != bp.query || ep.Index != bp.index || ep.Orig != bp.orig {
			t.Fatalf("set %v: parameter %d is q%d[%d]=%v in the engine, q%d[%d]=%v in the textbook",
				p.set, j, ep.Query, ep.Index, ep.Orig, bp.query, bp.index, bp.orig)
		}
		lb, ub := p.eng.Model.Bounds(ep.Var)
		blb, bub := p.book.m.Bounds(bp.v)
		if lb < blb || ub > bub || ep.Orig < lb || ep.Orig > ub {
			t.Errorf("set %v: q%d[%d] engine bounds [%v, %v] escape the box [%v, %v] or miss θ_orig %v",
				p.set, ep.Query, ep.Index, lb, ub, blb, bub, ep.Orig)
		}
	}
	switch {
	case p.engRes.Status == milp.Infeasible:
		if p.feasible {
			t.Errorf("set %v: engine infeasible, textbook optimum %v", p.set, p.bookRes.Obj)
		}
	case !p.feasible:
		t.Errorf("set %v: engine %v (obj %v), textbook %v", p.set, p.engRes.Status, p.engRes.Obj, p.bookRes.Status)
	case !near(p.engRes.Obj, p.bookRes.Obj, 1e-6):
		t.Errorf("set %v: engine optimum %v, textbook %v", p.set, p.engRes.Obj, p.bookRes.Obj)
	}
}

func near(a, b, rel float64) bool {
	return math.Abs(a-b) <= rel*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// checkEndToEnd asserts the end-to-end half of the property (see the
// relations on TestEncoderMatchesTextbookModel) and returns how many
// diagnoses it checked.
func checkEndToEnd(t *testing.T, c minimalityCase, pairs map[string]batchPair, all []int, limit time.Duration) int {
	t.Helper()
	full := pairs[fmt.Sprint(all)]
	if full.skipped {
		return 0
	}
	// The newest query whose single-query set is feasible, and its
	// optimum: what Incremental K=1 must return.
	newest, newestOpt := -1, 0.0
	for i := len(all) - 1; i >= 0 && newest < 0; i-- {
		p := pairs[fmt.Sprint([]int{i})]
		if p.skipped {
			return 0
		}
		if p.feasible {
			newest, newestOpt = i, p.bookRes.Obj
		}
	}
	runs := []struct {
		name string
		opt  core.Options
		rel  string // relation of the repair's distance to opt
	}{
		{"basic", core.Options{TimeLimit: limit}, "="},
		{"incremental", core.Options{Algorithm: core.Incremental, K: 1, TimeLimit: limit}, "incremental"},
		{"query-slicing", core.Options{QuerySlicing: true, TimeLimit: limit}, "="},
		{"attr-slicing", core.Options{AttrSlicing: true, TimeLimit: limit}, "="},
		{"tuple-slicing", core.Options{TupleSlicing: true, SkipRefine: true, TimeLimit: limit}, "<="},
		{"single-corruption", core.Options{QuerySlicing: true, SingleCorruption: true, TimeLimit: limit}, ">="},
	}
	opt, checked := full.bookRes.Obj, 0
	tol := 1e-6 * math.Max(1, opt)
	for _, r := range runs {
		rep, err := core.Diagnose(c.d0, c.log, c.complaints, r.opt)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if rep.Stats.TimeLimitStops+rep.Stats.NodeLimitStops > 0 {
			continue
		}
		checked++
		if rep.Resolved {
			final, err := query.Replay(rep.Log, c.d0)
			if err != nil || !core.ComplaintsResolved(final, c.complaints, 1e-6) {
				t.Errorf("%s: resolved repair does not replay cleanly (%v)", r.name, err)
			}
		}
		d := rep.Distance
		switch r.rel {
		case "=":
			if rep.Resolved != full.feasible || rep.Resolved && !near(d, opt, 1e-6) {
				t.Errorf("%s: resolved=%v distance %v, textbook feasible=%v optimum %v", r.name, rep.Resolved, d, full.feasible, opt)
			}
		case "incremental":
			if rep.Resolved != (newest >= 0) || rep.Resolved && (!near(d, newestOpt, 1e-6) || d < opt-tol) {
				t.Errorf("%s: resolved=%v distance %v, want the q%d optimum %v (≥ %v)", r.name, rep.Resolved, d, newest, newestOpt, opt)
			}
		case "<=":
			if full.feasible && (!rep.Resolved || d > opt+tol) {
				t.Errorf("%s: resolved=%v distance %v, want ≤ textbook optimum %v", r.name, rep.Resolved, d, opt)
			}
		case ">=":
			if rep.Resolved && (!full.feasible || d < opt-tol) {
				t.Errorf("%s: distance %v, want ≥ textbook optimum %v (feasible=%v)", r.name, d, opt, full.feasible)
			}
		}
	}
	return checked
}

// generatorCases are fixed workload.Generate seeds, each with one
// corrupted query: 10 rows × 4 queries for the end-to-end half, 20 rows
// × 5–6 queries for batches only, some with INSERT and DELETE statements
// in the mix. Every seed has complaints; the value domain of 20 makes
// the range predicates match a quarter of the rows.
func generatorCases(t *testing.T) []minimalityCase {
	t.Helper()
	specs := []struct {
		nd, nq, corrupt int
		mix             workload.QueryMix
		seeds           []int64
		singlesOnly     bool
	}{
		{10, 4, 1, workload.Mixed, []int64{1, 9}, false},
		{10, 4, 1, workload.UpdateOnly, []int64{1, 2, 6}, false},
		{20, 5, 1, workload.UpdateOnly, []int64{1, 5, 9}, false},
		{20, 5, 1, workload.Mixed, []int64{1, 3, 5, 7}, false},
		{20, 6, 2, workload.UpdateOnly, []int64{2, 4, 6}, true},
	}
	var out []minimalityCase
	for _, s := range specs {
		for _, seed := range s.seeds {
			w, err := workload.Generate(workload.Config{ND: s.nd, Nq: s.nq, Na: 4, Vd: 20, Mix: s.mix, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			in, err := w.MakeInstance(s.corrupt)
			if err != nil {
				t.Fatal(err)
			}
			c := minimalityCase{
				name: fmt.Sprintf("gen-nd%d-nq%d-mix%d-seed%d", s.nd, s.nq, s.mix, seed),
				d0:   w.D0, log: in.Dirty, complaints: in.Complaints, endToEnd: s.nd <= 10,
			}
			if s.singlesOnly {
				for i := range in.Dirty {
					c.sets = append(c.sets, []int{i})
				}
			}
			out = append(out, c)
		}
	}
	return out
}

// handBuiltCases are the instances the generator seeds rarely produce:
// an optimum that needs an expression exactly at 0 under each
// comparison operator, a parameter just past its predicate's value
// range, a log whose prefix folds away, and the paper's Figure 2.
func handBuiltCases(t *testing.T) []minimalityCase {
	t.Helper()
	var out []minimalityCase
	complaintsOf := func(d0 *relation.Table, dirty, truth []query.Query) []core.Complaint {
		df, err := query.Replay(dirty, d0)
		if err != nil {
			t.Fatal(err)
		}
		tf, err := query.Replay(truth, d0)
		if err != nil {
			t.Fatal(err)
		}
		return core.ComplaintsFromDiff(df, tf, 1e-9)
	}
	set := func(attr int, c float64) []query.SetClause {
		return []query.SetClause{{Attr: attr, Expr: query.ConstExpr(c)}}
	}

	// Boundary: q2's "b op 2" sits exactly at 0 on t1, whose b stays 2.
	// Once q0 is parameterized, t1's a is symbolic, so q1 may or may not
	// set its b to v, and q2's expression b − 2 has an interval with one
	// end exactly at 0: [0, 3] for v = 5, [−2, 0] for v = 0. The fold
	// rule at that end decides t1's c, which the repair must leave as it
	// is. v puts the end where the comparison flips at 0.
	for _, tc := range []struct {
		op query.CmpOp
		v  float64
	}{{query.EQ, 5}, {query.LE, 5}, {query.GE, 0}, {query.LT, 0}, {query.GT, 5}} {
		sch := relation.MustSchema("T", []string{"a", "b", "c"}, "")
		d0 := relation.NewTable(sch)
		for _, a := range []float64{1, 5, 2} {
			d0.MustInsert(a, 2, 0)
		}
		mk := func(rhs float64) []query.Query {
			return []query.Query{
				query.NewUpdate(set(0, 4), query.AttrPred(0, query.GE, rhs)),
				query.NewUpdate(set(1, tc.v), query.AttrPred(0, query.GE, 3)),
				query.NewUpdate(set(2, 1), query.AttrPred(1, tc.op, 2)),
			}
		}
		out = append(out, minimalityCase{
			name: "boundary-" + tc.op.String(), d0: d0, log: mk(3),
			complaints: complaintsOf(d0, mk(3), mk(2)), endToEnd: true,
		})
	}

	// Window edge: including the tuple with the largest a in "a < θ"
	// needs θ = 3 + ε, past the range of a by more than half of ε.
	{
		sch := relation.MustSchema("T", []string{"a", "b"}, "")
		d0 := relation.NewTable(sch)
		for a := 1.0; a <= 3; a++ {
			d0.MustInsert(a, 0)
		}
		mk := func(rhs float64) []query.Query {
			return []query.Query{query.NewUpdate(set(1, 1), query.AttrPred(0, query.LT, rhs))}
		}
		out = append(out, minimalityCase{
			name: "window-edge", d0: d0, log: mk(3),
			complaints: complaintsOf(d0, mk(3), mk(4)), endToEnd: true,
			check: func(t *testing.T, b batchPair) {
				if !near(b.bookRes.Obj, textbookEps, 1e-9) {
					t.Errorf("optimum %v, want θ moved by ε", b.bookRes.Obj)
				}
			},
		})
	}

	// Prefix fold: nine relative updates that fold away entirely once
	// only q9 is parameterized, then q9's corrupted predicate.
	{
		sch := relation.MustSchema("T", []string{"a", "b"}, "")
		d0 := relation.NewTable(sch)
		for i := 0; i < 10; i++ {
			d0.MustInsert(float64(i*10), 0)
		}
		mk := func(rhs float64) []query.Query {
			var log []query.Query
			for i := 0; i < 9; i++ {
				log = append(log, query.NewUpdate(
					[]query.SetClause{{Attr: 1, Expr: query.NewLinExpr(1, query.Term{Attr: 1, Coef: 1})}},
					query.AttrPred(0, query.GE, float64(i*10))))
			}
			return append(log, query.NewUpdate(set(1, 777), query.AttrPred(0, query.GE, rhs)))
		}
		out = append(out, minimalityCase{
			name: "prefix-fold", d0: d0, log: mk(80),
			complaints: complaintsOf(d0, mk(80), mk(70)), sets: [][]int{{9}},
			check: func(t *testing.T, b batchPair) {
				es, bm := b.eng.Stats, b.book.m
				if bm.NumConstrs() <= es.Rows || bm.NumIntVars() <= es.Binaries {
					t.Errorf("textbook %d rows / %d binaries, engine %d / %d: folding should shrink the model",
						bm.NumConstrs(), bm.NumIntVars(), es.Rows, es.Binaries)
				}
			},
		})
	}

	// Figure 2: q0's "income >= 87500" transposed to 85700; the repaired
	// constant must exclude t4 (income 86500) on both sides.
	{
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
		out = append(out, minimalityCase{
			name: "figure2", d0: d0, log: mk(85700),
			complaints: complaintsOf(d0, mk(85700), mk(87500)), sets: [][]int{{0}},
			check: func(t *testing.T, b batchPair) {
				// Parameter 1 is q0's WHERE constant (after its SET constant).
				if b.engVals == nil || b.engVals[1] <= 86500 {
					t.Errorf("engine θ = %v, want > 86500", b.engVals)
				}
				if th := b.bookRes.X[b.book.theta[1].v]; th <= 86500 {
					t.Errorf("textbook θ = %v, want > 86500", th)
				}
			},
		})
	}
	return out
}
