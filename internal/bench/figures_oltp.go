package bench

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/dectree"
	"repro/internal/linfit"
	"repro/internal/oltp"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/workload"
)

// Fig9OLTP reproduces Figure 9: repair latency on the TPC-C and TATP
// benchmarks as the corruption moves deeper into the log. Complaint sets
// are tiny (1–2 tuples) and tuple+query slicing shrinks the encodings to
// under ~100 constraints, giving near-interactive repairs (§7.4).
func (r *Runner) Fig9OLTP() (*Table, error) {
	orders, tpccQ := pick(r.Scale, 200, 600, 6000), pick(r.Scale, 100, 300, 2000)
	subs, tatpQ := pick(r.Scale, 200, 500, 5000), pick(r.Scale, 100, 300, 2000)
	ages := pick(r.Scale, []int{1, 50}, []int{1, 50, 150, 300}, []int{1, 100, 500, 1500})
	t := &Table{ID: "fig9", Title: "OLTP benchmarks: latency vs corruption age",
		XLabel:  "age",
		Caption: fmt.Sprintf("TPC-C: %d orders/%d queries; TATP: %d subscribers/%d queries", orders, tpccQ, subs, tatpQ)}
	opts := core.Options{Algorithm: core.Incremental, K: 1,
		TupleSlicing: true, QuerySlicing: true, SingleCorruption: true}
	return r.sweep(t, labels("%d", ages), []string{"tpcc", "tatp"}, func(x, s, rep int) (point, error) {
		if s == 0 {
			w := oltp.TPCC(oltp.TPCCConfig{Orders: orders, Queries: tpccQ, Seed: r.Seed + int64(rep)*331})
			return r.repair(w, opts, tpccQ-ages[x])
		}
		w := oltp.TATP(oltp.TATPConfig{Subscribers: subs, Queries: tatpQ, Seed: r.Seed + int64(rep)*351})
		return r.repair(w, opts, tatpQ-ages[x])
	}, func(_ int, pts []point) string { return modelSizeNote(pts) })
}

// Fig10DecTree reproduces Figure 10 (Appendix A): the decision-tree
// baseline against QFix on a single corrupted UPDATE with a complete
// complaint set. DecTree stays fast but its F1 starts near 0.5 and
// degrades; QFix repairs exactly. It is written out rather than swept:
// a repetition whose corruption changes no tuple is left out of every
// series.
func (r *Runner) Fig10DecTree() (*Table, error) {
	sizes := pick(r.Scale, []int{100, 300}, []int{100, 300, 1000}, []int{100, 500, 1000, 2000, 5000})
	t := &Table{ID: "fig10", Title: "DecTree baseline vs QFix (single corrupted UPDATE)",
		XLabel:  "ND",
		Caption: "constant SET, range WHERE, complete complaint set; selectivity ∝ 1/ND"}
	qfixOpts := core.Options{Algorithm: core.Basic, TupleSlicing: true}
	dectreeFix := func(d0 *relation.Table, q *query.Update, truth *relation.Table) (*query.Update, error) {
		return dectree.RepairQuery(d0, q, truth, dectree.Options{})
	}
	for _, nd := range sizes {
		var qpts, dpts, lpts []point
		for rep := 0; rep < r.reps(); rep++ {
			w := workload.MustGenerate(workload.Config{
				ND: nd, Na: 5, Nq: 1, Vd: 200, Range: math.Max(4, 4000/float64(nd)),
				Seed: r.Seed + int64(rep)*371 + int64(nd),
			})
			in, err := w.MakeInstance(0)
			if err != nil {
				return nil, err
			}
			if len(in.Complaints) == 0 {
				continue
			}
			qpts = append(qpts, r.measure(in, in.Complaints, qfixOpts))
			dpts = append(dpts, measureBaseline(in, dectreeFix))
			lpts = append(lpts, measureBaseline(in, linfit.Repair))
		}
		r.addRow(t, "qfix", fmt.Sprint(nd), qpts, "")
		r.addRow(t, "dectree", fmt.Sprint(nd), dpts, "")
		r.addRow(t, "linfit", fmt.Sprint(nd), lpts, "")
	}
	return t, nil
}

// measureBaseline runs a single-query repair baseline (Appendix A's
// decision tree, or the technical report's linear system) and scores it.
func measureBaseline(in *workload.Instance,
	fix func(d0 *relation.Table, q *query.Update, truth *relation.Table) (*query.Update, error)) point {
	start := time.Now()
	dirtyQ, ok := in.Dirty[0].(*query.Update)
	if !ok {
		return point{}
	}
	repaired, err := fix(in.W.D0, dirtyQ, in.TruthFinal)
	p := point{ms: ms(time.Since(start))}
	if err != nil {
		return p
	}
	p.resolved = true
	if acc, err := in.Evaluate([]query.Query{repaired}); err == nil {
		p.acc = acc
	}
	return p
}

// modelSizeNote reports the mean constraint rows per encode attempt —
// the quantity behind the paper's "often less than 100 in total" claim
// for OLTP workloads (§7.4).
func modelSizeNote(pts []point) string {
	rows, batches := 0, 0
	for _, p := range pts {
		rows += p.stats.Rows
		batches += p.stats.BatchesTried
	}
	if batches == 0 {
		return ""
	}
	return fmt.Sprintf("~%d rows/solve", rows/batches)
}

// Example2 reproduces the §7.4 case study: the Figure 2 tax-bracket
// example is fully repaired (the paper reports 35 ms on CPLEX).
func (r *Runner) Example2() (*Table, error) {
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
	dirty, truth := mk(85700), mk(87500)
	dirtyFinal, err := query.Replay(dirty, d0)
	if err != nil {
		return nil, err
	}
	truthFinal, err := query.Replay(truth, d0)
	if err != nil {
		return nil, err
	}
	complaints := core.ComplaintsFromDiff(dirtyFinal, truthFinal, 1e-9)

	start := time.Now()
	rep, err := core.Diagnose(d0, dirty, complaints, core.Options{
		Algorithm: core.Incremental, K: 1,
		TupleSlicing: true, QuerySlicing: true,
		TimeLimit: r.timeLimit(),
	})
	elapsed := time.Since(start)
	if err != nil {
		return nil, err
	}
	repFinal, err := query.Replay(rep.Log, d0)
	if err != nil {
		return nil, err
	}
	acc := workload.Score(dirtyFinal, truthFinal, repFinal)
	t := &Table{ID: "ex2", Title: "Figure 2 tax example, end-to-end repair",
		XLabel:  "case",
		Caption: "paper: fully repaired in 35 ms (CPLEX)"}
	r.addRow(t, "qfix", "figure2", []point{{ms: ms(elapsed), acc: acc, resolved: rep.Resolved, stats: rep.Stats}},
		fmt.Sprintf("repaired q%v, distance %.1f", rep.Changed, rep.Distance))
	return t, nil
}
