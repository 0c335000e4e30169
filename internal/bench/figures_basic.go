package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/workload"
)

// Fig4 reproduces Figure 4: execution time of the basic algorithm (every
// query parameterized) against parameterizing only the corrupted query,
// as the log grows. The paper's basic collapses around 50–80 queries on
// CPLEX; without CPLEX the collapse arrives proportionally earlier.
func (r *Runner) Fig4() (*Table, error) {
	nd := pick(r.Scale, 12, 20, 30)
	logSizes := pick(r.Scale, []int{2, 3}, []int{2, 3, 4, 6}, []int{2, 4, 6, 8, 10})
	t := &Table{ID: "fig4", Title: "log size vs execution time over " + fmt.Sprint(nd) + " records",
		XLabel:  "Nq",
		Caption: "series basic = all queries parameterized (Algorithm 1); single = only the corrupted query parameterized"}
	return r.sweep(t, labels("%d", logSizes), []string{"basic", "single"}, func(x, s, rep int) (point, error) {
		nq := logSizes[x]
		w := workload.MustGenerate(workload.Config{
			ND: nd, Na: 5, Nq: nq, Vd: 200, Range: 40,
			Seed: r.Seed + int64(rep)*101 + int64(nq),
		})
		opts := core.Options{Algorithm: core.Basic}
		if s == 1 {
			opts.Candidates = []int{0}
		}
		return r.repair(w, opts, 0) // corrupt the oldest query
	}, nil)
}

// Fig6Multi reproduces Figures 6a/6d: multiple corruptions (every third
// query) repaired by basic and its slicing variants; performance and
// accuracy.
func (r *Runner) Fig6Multi() (*Table, error) {
	nd := pick(r.Scale, 12, 20, 30)
	logSizes := pick(r.Scale, []int{3}, []int{3, 6, 9}, []int{3, 6, 9, 12})
	series := []string{"basic", "basic-tuple", "basic-query", "basic-attr", "basic-all"}
	opts := []core.Options{
		{Algorithm: core.Basic},
		{Algorithm: core.Basic, TupleSlicing: true},
		{Algorithm: core.Basic, QuerySlicing: true},
		{Algorithm: core.Basic, AttrSlicing: true},
		{Algorithm: core.Basic, TupleSlicing: true, QuerySlicing: true, AttrSlicing: true},
	}
	corrupt := func(nq int) (idx []int) {
		for i := 0; i < nq; i += 3 {
			idx = append(idx, i)
		}
		return idx
	}
	t := &Table{ID: "fig6a/6d", Title: "multiple corruptions: basic and slicing variants",
		XLabel:  "Nq",
		Caption: fmt.Sprintf("ND=%d; every 3rd query corrupted, oldest first", nd)}
	return r.sweep(t, labels("%d", logSizes), series, func(x, s, rep int) (point, error) {
		nq := logSizes[x]
		w := workload.MustGenerate(workload.Config{
			ND: nd, Na: 10, Nq: nq, Vd: 200, Range: 30,
			Seed: r.Seed + int64(rep)*131 + int64(nq),
		})
		return r.repair(w, opts[s], corrupt(nq)...)
	}, func(x int, _ []point) string {
		return fmt.Sprintf("%d corruptions", len(corrupt(logSizes[x])))
	})
}

// Fig6Single reproduces Figures 6b/6e: a single corruption in the oldest
// query, repaired incrementally with and without tuple slicing and with
// batch sizes k ∈ {1, 2, 8}. The paper finds k=1 with tuple slicing is
// the only configuration that scales with high accuracy.
func (r *Runner) Fig6Single() (*Table, error) {
	nd := pick(r.Scale, 20, 50, 100)
	logSizes := pick(r.Scale, []int{5, 10}, []int{10, 20, 40}, []int{10, 25, 50, 100})
	series := []string{"inc1", "inc1-tuple", "inc2-tuple", "inc8-tuple"}
	opts := []core.Options{
		{Algorithm: core.Incremental, K: 1},
		{Algorithm: core.Incremental, K: 1, TupleSlicing: true},
		{Algorithm: core.Incremental, K: 2, TupleSlicing: true},
		{Algorithm: core.Incremental, K: 8, TupleSlicing: true},
	}
	t := &Table{ID: "fig6b/6e", Title: "single corruption: incremental variants",
		XLabel:  "Nq",
		Caption: fmt.Sprintf("ND=%d; oldest query corrupted (worst case for newest-first scanning)", nd)}
	return r.sweep(t, labels("%d", logSizes), series, func(x, s, rep int) (point, error) {
		w := workload.MustGenerate(workload.Config{
			ND: nd, Na: 10, Nq: logSizes[x], Vd: 200, Range: 20,
			Seed: r.Seed + int64(rep)*151 + int64(logSizes[x]),
		})
		return r.repair(w, opts[s], 0)
	}, nil)
}

// Fig6QueryType reproduces Figures 6c/6f: inc1-tuple on INSERT-only,
// DELETE-only, and UPDATE-only logs with the oldest query corrupted.
// UPDATE repairs dominate cost; INSERT repairs stay nearly flat.
func (r *Runner) Fig6QueryType() (*Table, error) {
	nd := pick(r.Scale, 20, 50, 100)
	logSizes := pick(r.Scale, []int{5, 10}, []int{10, 25, 50}, []int{10, 25, 50, 100})
	mixes := []workload.QueryMix{workload.InsertOnly, workload.DeleteOnly, workload.UpdateOnly}
	t := &Table{ID: "fig6c/6f", Title: "query-type workloads under inc1-tuple",
		XLabel:  "Nq",
		Caption: fmt.Sprintf("ND=%d; oldest query corrupted", nd)}
	return r.sweep(t, labels("%d", logSizes), []string{"INSERT", "DELETE", "UPDATE"}, func(x, s, rep int) (point, error) {
		w := workload.MustGenerate(workload.Config{
			ND: nd, Na: 10, Nq: logSizes[x], Vd: 200, Range: 10, Mix: mixes[s],
			Seed: r.Seed + int64(rep)*171 + int64(logSizes[x]),
		})
		return r.repair(w, inc1Tuple, 0)
	}, nil)
}

// inc1Tuple is the incremental configuration the paper settles on
// (k=1 with tuple slicing) and most later figures measure.
var inc1Tuple = core.Options{Algorithm: core.Incremental, K: 1, TupleSlicing: true}
