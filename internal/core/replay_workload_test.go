// External test: the replay budget's moving parts against the paper's
// workload generator and the OLTP generators — the domain bound the
// diagnoser hands the encoder, and the per-stage benchmarks of the OLTP
// path (impact closure, whole diagnosis).
package core_test

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/encode"
	"repro/internal/obs"
	"repro/internal/oltp"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/workload"
)

// lastUpdate returns the index of the most recent UPDATE of the log.
func lastUpdate(tb testing.TB, log []query.Query) int {
	tb.Helper()
	for i := len(log) - 1; i >= 0; i-- {
		if _, ok := log[i].(*query.Update); ok {
			return i
		}
	}
	tb.Fatal("log has no UPDATE")
	return 0
}

// tpccInstance corrupts the most recent Delivery UPDATE of a TPC-C ORDER
// history of the benchmark's size.
func tpccInstance(tb testing.TB) *workload.Instance {
	tb.Helper()
	w := oltp.TPCC(oltp.TPCCConfig{Orders: 2500, Queries: 1200, Seed: 7})
	in, err := w.MakeInstance(lastUpdate(tb, w.Log))
	if err != nil {
		tb.Fatal(err)
	}
	if len(in.Complaints) == 0 {
		tb.Fatal("setup: corruption produced no complaints")
	}
	return in
}

var oltpOptions = core.Options{Algorithm: core.Incremental, TupleSlicing: true,
	QuerySlicing: true, TimeLimit: 30 * time.Second}

// ownBound is the M Encode derives for itself (Options.DomainBound zero)
// by replaying the log.
func ownBound(t *testing.T, d0 *relation.Table, log []query.Query) float64 {
	t.Helper()
	final, err := query.Replay(log, d0)
	if err != nil {
		t.Fatal(err)
	}
	return encode.DomainBound(d0, log, final)
}

// TestDiagnoserHandsEncoderItsOwnBound: the M the diagnoser derives from
// a final state it already holds — the planning replay for the input log,
// a candidate's verification replay for a refinement round's base log —
// must be bit for bit the M Encode would derive by replaying that log
// itself, or models (and repairs) would drift. Read off the encode spans
// of real diagnoses.
func TestDiagnoserHandsEncoderItsOwnBound(t *testing.T) {
	type inst struct {
		name       string
		d0         *relation.Table
		dirty      []query.Query
		complaints []core.Complaint
	}
	var insts []inst
	add := func(name string, in *workload.Instance) {
		insts = append(insts, inst{name, in.W.D0, in.Dirty, in.Complaints})
	}
	add("tpcc", tpccInstance(t))
	tw := oltp.TATP(oltp.TATPConfig{Subscribers: 1500, Queries: 600, Seed: 3})
	tin, err := tw.MakeInstance(lastUpdate(t, tw.Log))
	if err != nil {
		t.Fatal(err)
	}
	add("tatp", tin)
	for seed := int64(3); seed < 6; seed++ {
		w, err := workload.Generate(workload.Config{ND: 25, Na: 4, Nq: 20, Mix: workload.UpdateOnly, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		in, err := w.MakeInstance(14)
		if err != nil {
			t.Fatal(err)
		}
		add("generator", in)
	}
	// Figure 5(b) with a corrupted upper end far above every other value:
	// step 1 pulls it down onto the non-complaint tuple in the middle, so
	// refinement runs, over a repaired log whose M is a hundredth of the
	// input log's. A round encoded with the input log's bound would show.
	sch := relation.MustSchema("T", []string{"a", "v"}, "")
	d0 := relation.NewTable(sch)
	d0.MustInsert(15, 0)
	d0.MustInsert(30, 0)
	d0.MustInsert(50, 0)
	between := func(lo, hi float64) []query.Query {
		return []query.Query{query.NewUpdate([]query.SetClause{{Attr: 1, Expr: query.ConstExpr(1)}},
			query.NewAnd(query.AttrPred(0, query.GE, lo), query.AttrPred(0, query.LE, hi)))}
	}
	dirtyFinal, _ := query.Replay(between(40, 6000), d0)
	truthFinal, _ := query.Replay(between(10, 20), d0)
	single := inst{"shrinking", d0, between(40, 6000), core.ComplaintsFromDiff(dirtyFinal, truthFinal, 1e-9)}
	insts = append(insts, single)

	for _, c := range insts {
		if len(c.complaints) == 0 {
			continue
		}
		opt := oltpOptions
		opt.Trace = obs.NewTrace("test")
		rep, err := core.Diagnose(c.d0, c.dirty, c.complaints, opt)
		opt.Trace.End()
		if err != nil || !rep.Resolved {
			t.Fatalf("%s: resolved=%v err=%v", c.name, rep != nil && rep.Resolved, err)
		}
		// The first refinement round of a single-query log re-encodes
		// over the step-1 repair, which SkipRefine returns as is.
		refineWant := 0.0
		if c.name == single.name {
			if !rep.Stats.Refined {
				t.Fatalf("%s setup: refinement did not run", c.name)
			}
			opt := oltpOptions
			opt.SkipRefine = true
			step1, err := core.Diagnose(c.d0, c.dirty, c.complaints, opt)
			if err != nil {
				t.Fatal(err)
			}
			refineWant = ownBound(t, c.d0, step1.Log)
		}
		want := ownBound(t, c.d0, c.dirty)
		if refineWant == want {
			t.Fatalf("%s setup: the step-1 repair has the input log's bound %v", c.name, want)
		}
		encodes, refines := 0, 0
		var visit func(sp *obs.Span, refining bool)
		visit = func(sp *obs.Span, refining bool) {
			for _, kid := range sp.Children() {
				if kid.Name() == "encode" {
					encodes++
					for _, a := range kid.Attrs() {
						if a.Key != "bound" {
							continue
						}
						if !refining && a.Value != want {
							t.Errorf("%s: batch encoded with M=%v, Encode's own is %v", c.name, a.Value, want)
						}
						if refining {
							refines++
						}
						if refines == 1 && refineWant != 0 && a.Value != refineWant {
							t.Errorf("%s: refinement encoded with M=%v, Encode's own over the step-1 repair is %v",
								c.name, a.Value, refineWant)
						}
					}
				}
				visit(kid, refining || kid.Name() == "refine")
			}
		}
		visit(opt.Trace, false)
		if encodes != rep.Stats.BatchesTried {
			t.Errorf("%s: %d encode spans for %d batches", c.name, encodes, rep.Stats.BatchesTried)
		}
	}
}

// BenchmarkFullImpact times the cold impact closure over an OLTP-sized
// log (n = 1500).
func BenchmarkFullImpact(b *testing.B) {
	w := oltp.TPCC(oltp.TPCCConfig{Orders: 2500, Queries: 1500, Seed: 7})
	width := w.Schema.Width()
	b.ReportAllocs()
	for b.Loop() {
		core.FullImpact(w.Log, width)
	}
}

// BenchmarkExtendFullImpact times extending a cached closure by one
// appended statement (n = 1500).
func BenchmarkExtendFullImpact(b *testing.B) {
	w := oltp.TPCC(oltp.TPCCConfig{Orders: 2500, Queries: 1500, Seed: 7})
	width := w.Schema.Width()
	prefix := core.FullImpact(w.Log[:len(w.Log)-1], width)
	b.ReportAllocs()
	for b.Loop() {
		core.ExtendFullImpact(prefix, w.Log, width)
	}
}

// BenchmarkDiagnoseOLTP times a whole cold diagnosis of a TPC-C history
// under the CLI's options.
func BenchmarkDiagnoseOLTP(b *testing.B) {
	in := tpccInstance(b)
	b.ReportAllocs()
	for b.Loop() {
		rep, err := core.Diagnose(in.W.D0, in.Dirty, in.Complaints, oltpOptions)
		if err != nil || !rep.Resolved {
			b.Fatalf("resolved=%v err=%v", rep != nil && rep.Resolved, err)
		}
	}
}
