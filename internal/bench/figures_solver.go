package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/workload"
)

// FigSolver measures the MILP solver stack — sparse revised simplex
// with a factorized basis, the root presolve, and speculative parallel
// branch-and-bound — on the encoder's default models. This is no paper
// figure: it is the record speculative search is judged by. At quick
// scale every cell is a few milliseconds and ~21 nodes; at default
// scale q15 is the long solve (~800 nodes, seconds) and q29 a short one.
//
// Series (x = corrupted query index, single-corruption incremental):
//
//	presolve-seq  sequential search (the default)
//	presolve-par  one search worker per CPU (byte-identical repairs and
//	              counters — see the determinism property tests)
func (r *Runner) FigSolver() (*Table, error) {
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
		{"presolve-seq", func(o core.Options) core.Options { return o }},
		{"presolve-par", func(o core.Options) core.Options { o.SolverParallel = -1; return o }},
	}
	t := &Table{ID: "solver", Title: "MILP solver stack: sequential vs speculative parallel branch-and-bound",
		XLabel: "corrupt",
		Caption: fmt.Sprintf("ND=%d Nq=%d, inc1-tuple, default encoding; "+
			"note shows mean branch-and-bound nodes / LP iterations / basis refactorizations / presolved rows", nd, nq)}
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
			t.Rows = append(t.Rows, withPhases(Row{Series: v.name, X: fmt.Sprintf("q%d", idx),
				TimeMS: ms, Precision: acc.Precision, Recall: acc.Recall, F1: acc.F1, Solved: ok,
				Note: solverNote(pts)}, pts))
			r.logf("solver %s idx=%d: %.1fms %s", v.name, idx, ms, solverNote(pts))
		}
	}
	return t, nil
}

// solverNote summarizes the solver work behind a series of points.
func solverNote(pts []point) string {
	if len(pts) == 0 {
		return ""
	}
	nodes, iters, refac, prows := 0, 0, 0, 0
	for _, p := range pts {
		nodes += p.stats.Nodes
		iters += p.stats.LPIters
		refac += p.stats.Refactorizations
		prows += p.stats.PresolvedRows
	}
	n := len(pts)
	return fmt.Sprintf("nodes=%d lpiters=%d refactors=%d presolvedrows=%d",
		nodes/n, iters/n, refac/n, prows/n)
}
