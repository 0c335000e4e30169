package bench

import (
	"fmt"

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
	nd, nq := pick(r.Scale, 50, 100, 100), pick(r.Scale, 15, 30, 60)
	cells := []int{nq - 1, nq / 2}
	t := &Table{ID: "solver", Title: "MILP solver stack: sequential vs speculative parallel branch-and-bound",
		XLabel: "corrupt",
		Caption: fmt.Sprintf("ND=%d Nq=%d, inc1-tuple, default encoding; "+
			"note shows mean branch-and-bound nodes / LP iterations / basis refactorizations / presolved rows", nd, nq)}
	return r.sweep(t, labels("q%d", cells), []string{"presolve-seq", "presolve-par"}, func(x, s, rep int) (point, error) {
		w := workload.MustGenerate(workload.Config{
			ND: nd, Na: 5, Nq: nq, Vd: 200, Range: 20,
			Seed: r.Seed + int64(rep)*401 + int64(cells[x]),
		})
		opts := inc1Tuple
		if s == 1 {
			opts.SolverParallel = -1
		}
		return r.repair(w, opts, cells[x])
	}, func(_ int, pts []point) string { return solverNote(pts) })
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
