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
