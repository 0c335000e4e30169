package core

import (
	"slices"
	"testing"
	"time"

	"repro/internal/query"
	"repro/internal/relation"
)

// TestRepairLogIsCallersOwn: inside a diagnosis candidate logs share the
// statements they did not repair with the input log (copy-on-write), but
// the Repair.Log handed back shares nothing. Overwriting every parameter
// of every statement of a returned repair leaves the input log as it
// was, and a second diagnosis of it returns the repair the first one
// did. Checked on every path that builds a repair: Basic, the
// incremental scan, a refinement round, the parallel scan, a partition
// merge, and the unresolved outcome.
func TestRepairLogIsCallersOwn(t *testing.T) {
	params := func(log []query.Query) [][]float64 {
		out := make([][]float64, len(log))
		for i, q := range log {
			out[i] = q.Params()
		}
		return out
	}
	same := func(a, b [][]float64) bool {
		return slices.EqualFunc(a, b, func(x, y []float64) bool { return slices.Equal(x, y) })
	}
	f2d0, f2dirty, f2truth := figure2()
	f5d0, f5dirty, f5truth := figure5b()
	cd0, cdirty, _, ccs := clusterWorkload(t, 3, 4)
	for _, c := range []struct {
		name       string
		d0         *relation.Table
		log        []query.Query
		complaints []Complaint
		opt        Options
		check      func(*Repair) bool // the path the case is there for was taken
	}{
		{"basic", f2d0, f2dirty, completeComplaints(t, f2d0, f2dirty, f2truth),
			Options{Algorithm: Basic}, func(r *Repair) bool { return r.Resolved }},
		{"incremental", f2d0, f2dirty, completeComplaints(t, f2d0, f2dirty, f2truth),
			Options{Algorithm: Incremental, TupleSlicing: true, QuerySlicing: true},
			func(r *Repair) bool { return r.Resolved }},
		{"refinement", f5d0, f5dirty, completeComplaints(t, f5d0, f5dirty, f5truth),
			Options{Algorithm: Incremental, TupleSlicing: true},
			func(r *Repair) bool { return r.Resolved && r.Stats.Refined }},
		{"parallel", f2d0, f2dirty, completeComplaints(t, f2d0, f2dirty, f2truth),
			Options{Algorithm: Incremental, TupleSlicing: true, Parallel: 3},
			func(r *Repair) bool { return r.Resolved }},
		{"partition", cd0, cdirty, ccs,
			Options{Algorithm: Basic, TupleSlicing: true, QuerySlicing: true, Partition: 3},
			func(r *Repair) bool { return r.Resolved && r.Stats.Partitions == 3 && !r.Stats.PartitionFallback }},
		{"unresolved", f2d0, f2dirty, []Complaint{{TupleID: 1, Exists: true, Values: []float64{1, 950, 8550}}},
			Options{Algorithm: Incremental, TupleSlicing: true, QuerySlicing: true},
			func(r *Repair) bool { return !r.Resolved }},
	} {
		c.opt.TimeLimit = 30 * time.Second
		input := params(c.log)
		first, err := Diagnose(c.d0, c.log, c.complaints, c.opt)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !c.check(first) {
			t.Fatalf("%s: setup: resolved=%v stats=%+v", c.name, first.Resolved, first.Stats)
		}
		repaired := params(first.Log)
		for i, q := range first.Log {
			if q == c.log[i] {
				t.Errorf("%s: statement %d of the repair is the input log's own", c.name, i)
			}
			p := q.Params()
			for j := range p {
				p[j] = -12345
			}
			if err := q.SetParams(p); err != nil {
				t.Fatal(err)
			}
		}
		if !same(params(c.log), input) {
			t.Errorf("%s: overwriting the repair changed the input log: %v, was %v", c.name, params(c.log), input)
		}
		second, err := Diagnose(c.d0, c.log, c.complaints, c.opt)
		if err != nil {
			t.Fatalf("%s: second diagnosis: %v", c.name, err)
		}
		if !same(params(second.Log), repaired) || !slices.Equal(second.Changed, first.Changed) ||
			second.Distance != first.Distance || second.Resolved != first.Resolved {
			t.Errorf("%s: second diagnosis: log %v changed %v distance %v; the first: log %v changed %v distance %v",
				c.name, params(second.Log), second.Changed, second.Distance, repaired, first.Changed, first.Distance)
		}
	}
}
