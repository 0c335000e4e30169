package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/workload"
)

// Ablation measures the engineering choices this implementation adds on
// top of the paper (README.md, "Benchmarks"; each knob is documented on
// encode.Options): constant-folding presolve, predicate-parameter
// window tightening, and warm-started LP relaxations in
// branch-and-bound. Each is switched off individually against the full
// configuration on the same single-corruption instance.
func (r *Runner) Ablation() (*Table, error) {
	var nd, nq int
	switch r.Scale {
	case Quick:
		nd, nq = 50, 15
	case Large:
		nd, nq = 100, 60
	default:
		nd, nq = 100, 30
	}
	base := core.Options{Algorithm: core.Incremental, K: 1, TupleSlicing: true}
	variants := []struct {
		name string
		mod  func(o core.Options) core.Options
	}{
		{"full", func(o core.Options) core.Options { return o }},
		{"no-folding", func(o core.Options) core.Options { o.NoFolding = true; return o }},
		{"no-windows", func(o core.Options) core.Options { o.NoParamWindows = true; return o }},
		{"cold-lp", func(o core.Options) core.Options { o.ColdLP = true; return o }},
	}
	t := &Table{ID: "ablation", Title: "implementation ablations (extensions beyond the paper)",
		XLabel:  "corrupt",
		Caption: fmt.Sprintf("ND=%d Nq=%d, inc1-tuple; switches off one engineering choice at a time", nd, nq)}
	for _, idx := range []int{nq - 1, nq / 2} {
		for _, v := range variants {
			var pts []point
			for rep := 0; rep < r.reps(); rep++ {
				w := workload.MustGenerate(workload.Config{
					ND: nd, Na: 5, Nq: nq, Vd: 200, Range: 20,
					Seed: r.Seed + int64(rep)*401 + int64(idx),
				})
				in, err := w.MakeInstance(idx)
				if err != nil {
					return nil, err
				}
				pts = append(pts, r.measure(in, in.Complaints, v.mod(base)))
			}
			ms, acc, ok := avg(pts)
			t.Rows = append(t.Rows, Row{Series: v.name, X: fmt.Sprintf("q%d", idx),
				TimeMS: ms, Precision: acc.Precision, Recall: acc.Recall, F1: acc.F1, Solved: ok})
			r.logf("ablation %s idx=%d: %.1fms solved=%.2f", v.name, idx, ms, ok)
		}
	}
	return t, nil
}
