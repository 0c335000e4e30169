package bench

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/workload"
)

// incSeries and incOpts are the slicing combinations compared in
// Figure 7.
var (
	incSeries = []string{"inc1-tuple", "inc1-tuple+query", "inc1-tuple+attr", "inc1-all"}
	incOpts   = []core.Options{
		inc1Tuple,
		{Algorithm: core.Incremental, K: 1, TupleSlicing: true, QuerySlicing: true, SingleCorruption: true},
		{Algorithm: core.Incremental, K: 1, TupleSlicing: true, AttrSlicing: true},
		{Algorithm: core.Incremental, K: 1, TupleSlicing: true,
			QuerySlicing: true, AttrSlicing: true, SingleCorruption: true},
	}
)

// Fig7Attrs reproduces Figure 7a: repair latency as the table widens;
// query and attribute slicing pay off on wide tables.
func (r *Runner) Fig7Attrs() (*Table, error) {
	nd, nq := pick(r.Scale, 20, 40, 50), pick(r.Scale, 10, 25, 40)
	attrs := pick(r.Scale, []int{5, 15}, []int{10, 25, 50}, []int{10, 25, 50, 100})
	t := &Table{ID: "fig7a", Title: "number of attributes vs time",
		XLabel:  "Na",
		Caption: fmt.Sprintf("ND=%d Nq=%d; single corruption mid-log", nd, nq)}
	return r.sweep(t, labels("%d", attrs), incSeries, func(x, s, rep int) (point, error) {
		w := workload.MustGenerate(workload.Config{
			ND: nd, Na: attrs[x], Nq: nq, Vd: 200, Range: 30,
			Seed: r.Seed + int64(rep)*191 + int64(attrs[x]),
		})
		return r.repair(w, incOpts[s], nq/2)
	}, nil)
}

// Fig7DBSize reproduces Figure 7b: database size on a wide table, with
// query selectivity shrunk in proportion so the complaint count stays
// fixed.
func (r *Runner) Fig7DBSize() (*Table, error) {
	na, nq := pick(r.Scale, 15, 30, 50), pick(r.Scale, 10, 25, 40)
	sizes := pick(r.Scale, []int{50, 200}, []int{100, 300, 1000}, []int{100, 500, 1000, 2000})
	t := &Table{ID: "fig7b", Title: "database size vs time (wide table)",
		XLabel:  "ND",
		Caption: fmt.Sprintf("Na=%d Nq=%d; selectivity ∝ 1/ND keeps complaints fixed", na, nq)}
	return r.sweep(t, labels("%d", sizes), incSeries, func(x, s, rep int) (point, error) {
		nd := sizes[x]
		w := workload.MustGenerate(workload.Config{
			// Constant expected matches per query: Range scales inversely.
			ND: nd, Na: na, Nq: nq, Vd: 200, Range: math.Max(1, 6000/float64(nd)),
			Seed: r.Seed + int64(rep)*211 + int64(nd),
		})
		return r.repair(w, incOpts[s], 5) // old corruption
	}, nil)
}

// Fig8DBSize reproduces Figure 8a: database size on a narrow table with
// recent vs old corruptions under inc1-tuple.
func (r *Runner) Fig8DBSize() (*Table, error) {
	nq := pick(r.Scale, 20, 60, 100)
	sizes := pick(r.Scale, []int{100, 500}, []int{100, 1000, 5000}, []int{100, 1000, 10000, 50000})
	corrupt := []int{nq - 5, 5}
	t := &Table{ID: "fig8a", Title: "database size vs time (narrow table)",
		XLabel:  "ND",
		Caption: fmt.Sprintf("Na=10 Nq=%d; selectivity ∝ 1/ND; recent vs old corruption", nq)}
	return r.sweep(t, labels("%d", sizes), []string{"recent", "old"}, func(x, s, rep int) (point, error) {
		nd := sizes[x]
		w := workload.MustGenerate(workload.Config{
			ND: nd, Na: 10, Nq: nq, Vd: 200, Range: math.Max(1, 6000/float64(nd)),
			Seed: r.Seed + int64(rep)*231 + int64(nd),
		})
		return r.repair(w, inc1Tuple, corrupt[s])
	}, nil)
}

// Fig8ClauseType reproduces Figure 8b: Constant vs Relative SET crossed
// with Point vs Range WHERE, as the corruption moves deeper into the log.
func (r *Runner) Fig8ClauseType() (*Table, error) {
	nd, nq := pick(r.Scale, 30, 60, 100), pick(r.Scale, 20, 60, 100)
	ages := pick(r.Scale, []int{5, 15}, []int{10, 30, 60}, []int{10, 40, 70, 100})
	series := []string{"const/point", "const/range", "rel/point", "rel/range"}
	sets := []workload.SetKind{workload.ConstantSet, workload.ConstantSet, workload.RelativeSet, workload.RelativeSet}
	wheres := []workload.WhereKind{workload.PointWhere, workload.RangeWhere, workload.PointWhere, workload.RangeWhere}
	t := &Table{ID: "fig8b", Title: "query clause types vs time",
		XLabel:  "age",
		Caption: fmt.Sprintf("ND=%d Nq=%d; age = how many queries ago the corruption happened", nd, nq)}
	return r.sweep(t, labels("%d", ages), series, func(x, s, rep int) (point, error) {
		w := workload.MustGenerate(workload.Config{
			ND: nd, Na: 10, Nq: nq, Vd: 200, Range: 10,
			Set: sets[s], Where: wheres[s],
			Seed: r.Seed + int64(rep)*251 + int64(ages[x]),
		})
		return r.repair(w, inc1Tuple, nq-ages[x])
	}, nil)
}

// Fig8Incomplete reproduces Figures 8c/8f: the complaint set loses 0–75%
// of its entries; latency improves (smaller encodings) while accuracy
// suffers for old corruptions.
func (r *Runner) Fig8Incomplete() (*Table, error) {
	nd, nq := pick(r.Scale, 30, 60, 100), pick(r.Scale, 16, 40, 60)
	rates := []float64{0, 0.25, 0.5, 0.75}
	corrupt := []int{nq - 5, 2}
	t := &Table{ID: "fig8c/8f", Title: "incomplete complaint sets",
		XLabel:  "fn-rate",
		Caption: fmt.Sprintf("ND=%d Nq=%d; accuracy scored against the full complaint set", nd, nq)}
	return r.sweep(t, labels("%.2f", rates), []string{"recent", "old"}, func(x, s, rep int) (point, error) {
		w := workload.MustGenerate(workload.Config{
			ND: nd, Na: 10, Nq: nq, Vd: 200, Range: 25,
			Seed: r.Seed + int64(rep)*271 + int64(rates[x]*100),
		})
		in, err := w.MakeInstance(corrupt[s])
		if err != nil {
			return point{}, err
		}
		return r.measure(in, in.Incomplete(rates[x], r.Seed+int64(rep)), inc1Tuple), nil
	}, nil)
}

// Fig8Skew reproduces Figure 8d: zipfian attribute skew concentrates
// predicates on few attributes and lowers latency.
func (r *Runner) Fig8Skew() (*Table, error) {
	nd, nq := pick(r.Scale, 30, 60, 100), pick(r.Scale, 16, 40, 60)
	skews := []float64{0, 0.5, 1}
	t := &Table{ID: "fig8d", Title: "attribute skew vs time",
		XLabel:  "skew",
		Caption: fmt.Sprintf("ND=%d Nq=%d Na=10; old corruption", nd, nq)}
	return r.sweep(t, labels("%.1f", skews), []string{"inc1-tuple"}, func(x, _, rep int) (point, error) {
		w := workload.MustGenerate(workload.Config{
			ND: nd, Na: 10, Nq: nq, Vd: 200, Range: 15, Skew: skews[x],
			Seed: r.Seed + int64(rep)*291 + int64(skews[x]*10),
		})
		return r.repair(w, inc1Tuple, 3)
	}, nil)
}

// Fig8Dims reproduces Figure 8e: WHERE-clause dimensionality with query
// cardinality held constant (per-predicate selectivity is the d-th root
// of the target selectivity).
func (r *Runner) Fig8Dims() (*Table, error) {
	nd, nq := pick(r.Scale, 30, 60, 100), pick(r.Scale, 12, 30, 50)
	dims := pick(r.Scale, []int{1, 2}, []int{1, 2, 3}, []int{1, 2, 3, 4})
	const vd, target = 200.0, 0.10 // overall match probability
	rng := func(x int) float64 { return math.Floor((vd+1)*math.Pow(target, 1/float64(dims[x]))) - 1 }
	t := &Table{ID: "fig8e", Title: "predicate dimensionality vs time",
		XLabel:  "dims",
		Caption: fmt.Sprintf("ND=%d Nq=%d; per-predicate range widened to keep cardinality fixed", nd, nq)}
	return r.sweep(t, labels("%d", dims), []string{"inc1-tuple"}, func(x, _, rep int) (point, error) {
		w := workload.MustGenerate(workload.Config{
			ND: nd, Na: 10, Nq: nq, Vd: vd, Range: rng(x), NumPreds: dims[x],
			Seed: r.Seed + int64(rep)*311 + int64(dims[x]),
		})
		return r.repair(w, inc1Tuple, nq/2)
	}, func(x int, _ []point) string { return fmt.Sprintf("range=%g", rng(x)) })
}
