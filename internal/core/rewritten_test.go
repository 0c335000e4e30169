package core

import (
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/query"
	"repro/internal/relation"
)

// TestRewrittenIsExact pins what Repair.Rewritten promises a caller that
// holds a rendering of the input log: every statement outside it is the
// input's own, parameter for parameter and bit for bit, and everything
// the repair changed is inside it — on each path that builds a repaired
// log (one MILP, the batch scan, a refinement round, the batch scan
// under parallel node search, the partition merge, and the merge over a PartitionSolver hook, which
// is where a fleet's repairs enter).
func TestRewrittenIsExact(t *testing.T) {
	type inputs struct {
		d0         *relation.Table
		dirty      []query.Query
		complaints []Complaint
	}
	fig2 := func(t *testing.T) inputs {
		d0, dirty, truth := figure2()
		return inputs{d0, dirty, completeComplaints(t, d0, dirty, truth)}
	}
	fig5b := func(t *testing.T) inputs {
		d0, dirty, truth := figure5b()
		return inputs{d0, dirty, completeComplaints(t, d0, dirty, truth)}
	}
	clusters := func(t *testing.T) inputs {
		d0, dirty, _, complaints := clusterWorkload(t, 3, 4)
		return inputs{d0, dirty, complaints}
	}
	sliced := Options{TupleSlicing: true, QuerySlicing: true, TimeLimit: 30 * time.Second}
	with := func(f func(*Options)) Options {
		o := sliced
		f(&o)
		return o
	}
	cases := []struct {
		name    string
		in      func(*testing.T) inputs
		opt     Options
		refined bool
	}{
		{"basic", fig2, with(func(o *Options) { o.Algorithm = Basic }), false},
		{"incremental", fig2, with(func(o *Options) { o.Algorithm = Incremental }), false},
		{"refinement", fig5b, with(func(o *Options) { o.Algorithm = Incremental; o.QuerySlicing = false }), true},
		{"parallel", fig2, with(func(o *Options) { o.Algorithm = Incremental; o.SolverParallel = 2 }), false},
		{"partition", clusters, with(func(o *Options) { o.Algorithm = Incremental; o.Partition = 3 }), false},
		{"partition solver", clusters, with(func(o *Options) {
			o.Algorithm = Basic
			o.Partition = 2
			o.PartitionSolver = &countingSolver{}
		}), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := tc.in(t)
			rep, err := Diagnose(in.d0, in.dirty, in.complaints, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Resolved {
				t.Fatalf("not resolved: %+v", rep.Stats)
			}
			if rep.Stats.Refined != tc.refined {
				t.Fatalf("Stats.Refined = %v, want %v", rep.Stats.Refined, tc.refined)
			}
			if len(rep.Rewritten) == 0 || !slices.IsSorted(rep.Rewritten) {
				t.Fatalf("Rewritten = %v, want a non-empty ascending list", rep.Rewritten)
			}
			for _, i := range rep.Changed {
				if !slices.Contains(rep.Rewritten, i) {
					t.Errorf("Changed has %d, Rewritten %v does not", i, rep.Rewritten)
				}
			}
			for i, q := range rep.Log {
				if slices.Contains(rep.Rewritten, i) {
					continue
				}
				if q == in.dirty[i] {
					t.Errorf("statement %d is shared with the caller's log, not a copy", i)
				}
				got, want := q.Params(), in.dirty[i].Params()
				if !slices.EqualFunc(got, want, func(x, y float64) bool {
					return math.Float64bits(x) == math.Float64bits(y)
				}) {
					t.Errorf("statement %d is outside Rewritten but differs: %v, input %v", i, got, want)
				}
			}
		})
	}
}

// TestSubproblemSolveSharesTheLog pins Subproblem.Solve beside
// Diagnose: its repair is Diagnose's of the same subproblem, parameter
// for parameter, but copy on write — every statement outside Rewritten
// is the subproblem's own — and the subproblem's log is left bit for bit
// as it was. It holds planning as Solve goes and on a plan (Plan) that
// several copies share, whose pass the first solve reports and the
// others do not.
func TestSubproblemSolveSharesTheLog(t *testing.T) {
	sliced := Options{Algorithm: Incremental, TupleSlicing: true, QuerySlicing: true, TimeLimit: 30 * time.Second}
	d0, dirty, truth := figure2()
	fig5d0, fig5dirty, fig5truth := figure5b()
	cd0, cdirty, _, ccomplaints := clusterWorkload(t, 3, 4)
	noQS, parts := sliced, sliced
	noQS.QuerySlicing = false
	parts.Partition = 3
	cases := []struct {
		name string
		sub  Subproblem
	}{
		{"incremental", Subproblem{D0: d0, Log: dirty, Complaints: completeComplaints(t, d0, dirty, truth), Options: sliced}},
		{"refinement", Subproblem{D0: fig5d0, Log: fig5dirty, Complaints: completeComplaints(t, fig5d0, fig5dirty, fig5truth), Options: noQS}},
		{"partition", Subproblem{D0: cd0, Log: cdirty, Complaints: ccomplaints, Options: parts}},
	}
	bits := func(log []query.Query) [][]uint64 {
		out := make([][]uint64, len(log))
		for i, q := range log {
			for _, p := range q.Params() {
				out[i] = append(out[i], math.Float64bits(p))
			}
		}
		return out
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := bits(tc.sub.Log)
			want, err := Diagnose(tc.sub.D0, tc.sub.Log, tc.sub.Complaints, tc.sub.Options)
			if err != nil || !want.Resolved {
				t.Fatalf("setup: Diagnose err=%v resolved=%v", err, want != nil && want.Resolved)
			}
			planned := tc.sub
			if err := planned.Plan(); err != nil {
				t.Fatal(err)
			}
			for _, s := range []struct {
				how    string
				sub    Subproblem
				passes int
			}{{"unplanned", tc.sub, 1}, {"planned, first", planned, 1}, {"planned, second", planned, 0}} {
				got, err := s.sub.Solve()
				if err != nil {
					t.Fatalf("%s: %v", s.how, err)
				}
				if got.Resolved != want.Resolved || got.Distance != want.Distance ||
					!slices.Equal(got.Changed, want.Changed) || !slices.Equal(got.Rewritten, want.Rewritten) {
					t.Errorf("%s: resolved=%v distance=%v changed=%v rewritten=%v, Diagnose %v %v %v %v", s.how,
						got.Resolved, got.Distance, got.Changed, got.Rewritten,
						want.Resolved, want.Distance, want.Changed, want.Rewritten)
				}
				if g, w := bits(got.Log), bits(want.Log); !slices.EqualFunc(g, w, slices.Equal) {
					t.Errorf("%s: repaired parameters %v, Diagnose's %v", s.how, g, w)
				}
				for i, q := range got.Log {
					if !slices.Contains(got.Rewritten, i) && q != tc.sub.Log[i] {
						t.Errorf("%s: statement %d is outside Rewritten but not the subproblem's own", s.how, i)
					}
				}
				if got.Stats.PlanPasses != s.passes {
					t.Errorf("%s: PlanPasses = %d, want %d", s.how, got.Stats.PlanPasses, s.passes)
				}
			}
			if after := bits(tc.sub.Log); !slices.EqualFunc(after, before, slices.Equal) {
				t.Errorf("Solve changed the subproblem's log: %v, was %v", after, before)
			}
		})
	}
}
