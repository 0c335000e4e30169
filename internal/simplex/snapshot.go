package simplex

import "math"

// Snapshot is an exported simplex basis: which variable occupies each
// basis position plus the full iterate (so nonbasic variables remember
// which bound they sat at). It is the warm-start currency of
// branch-and-bound: every node records its parent's end basis and
// installs it before solving its own relaxation.
//
// A Snapshot is a starting point, never an answer: installing one only
// positions the first iterate, and phase 1/2 still prove feasibility
// and optimality from scratch, so a stale or mismatched basis can cost
// pivots but not correctness.
type Snapshot struct {
	m, n  int
	basis []int
	xval  []float64
}

// Vars returns the (rows, structural variables) shape the snapshot was
// taken from; Install refuses any problem with a different shape.
func (sn *Snapshot) Vars() (m, n int) { return sn.m, sn.n }

// Snapshot captures the solver's current basis and iterate, or nil when
// the solver has never solved (there is no basis to export yet). A
// non-nil reuse, a snapshot its owner no longer needs, is overwritten and
// returned instead of allocating a new one.
func (ws *Solver) Snapshot(reuse *Snapshot) *Snapshot {
	if !ws.initialized {
		return nil
	}
	s, sn := ws.inner, reuse
	if sn == nil {
		sn = &Snapshot{}
	}
	sn.m, sn.n = s.m, s.n
	sn.basis = append(sn.basis[:0], s.basis...)
	sn.xval = append(sn.xval[:0], s.xval...)
	return sn
}

// Install seeds the solver with a previously exported basis so its next
// Solve warm-starts from there instead of the cold slack basis. The
// snapshot is validated against the problem's current shape: a nil
// snapshot, a row/variable count mismatch, an out-of-range or duplicate
// basis entry, or a numerically singular basis matrix is rejected
// (returning false) and the solver is left cold. Rejection is always
// safe — warm starts are positioning, not answers.
func (ws *Solver) Install(snap *Snapshot) bool {
	ws.initialized = false
	m, n := len(ws.p.rhs), len(ws.p.obj)
	if snap == nil || snap.m != m || snap.n != n ||
		len(snap.basis) != m || len(snap.xval) != n+m {
		return false
	}
	// Branch-and-bound installs a basis per node, so from here on nothing
	// may allocate once the workspace has the problem's shape.
	s := ws.workspace(m, n)
	valid := true
	for _, b := range snap.basis {
		if b < 0 || b >= n+m || s.inBasis[b] {
			valid = false
			break
		}
		s.inBasis[b] = true
	}
	clear(s.inBasis)
	if !valid {
		return false
	}
	s.opt = ws.opt.withDefaults(m, n)
	// The snapshot overwrites the whole iterate and basis, so only the
	// bounds and buffers are reset; the basic values are computed once,
	// by warmReset, after the clamp.
	s.reset()
	copy(s.xval, snap.xval)
	for j := range s.basicPos {
		s.basicPos[j] = -1
	}
	for i, b := range snap.basis {
		s.basis[i] = b
		s.basicPos[b] = i
	}
	if !s.fac.refactorize(s.p.cols, s.n, s.basis) {
		return false // singular basis: next Solve starts cold
	}
	s.refactorCount++
	mRefactorizations.Inc()
	// Clamp nonbasic variables into the problem's current bounds and
	// recompute the basic values under the fresh factorization.
	s.warmReset()
	ws.initialized = true
	return true
}

// PointFeasible reports whether the point x (length NumVars) satisfies
// every variable bound and every constraint row under the same
// magnitude-scaled residual tolerances the solver applies to its own
// iterates (solutionValid/rowsValid). It is the vetting gate for points
// the solver did not produce itself: branch-and-bound runs every
// integer-snapped candidate through it before trusting the point as an
// incumbent.
func (p *Problem) PointFeasible(x []float64) bool {
	n, m := len(p.obj), len(p.rhs)
	if len(x) != n {
		return false
	}
	for j, v := range x {
		tol := 1e-5 + 1e-6*math.Abs(v)
		if v < p.lb[j]-tol || v > p.ub[j]+tol {
			return false
		}
	}
	for i := 0; i < m; i++ {
		lhs, mag := 0.0, 0.0
		for _, t := range p.Terms(i) {
			if v := x[t.Var]; v != 0 {
				lhs += t.Coef * v
				mag += math.Abs(t.Coef * v)
			}
		}
		// The solver enforces row operators through slack bounds, so its
		// effective op tolerance is the slack bound tolerance (1e-5 scale,
		// see solutionValid) plus the row residual tolerance (1e-7 per
		// unit of term magnitude, see rowsValid). Matching both keeps this
		// gate exactly as strict as the solver is with its own iterates —
		// tighter would reject valid LP optima, looser would admit points
		// the LP itself calls infeasible.
		tol := 1.1e-5 + 1e-7*math.Max(mag, math.Abs(p.rhs[i]))
		r := lhs - p.rhs[i]
		switch p.ops[i] {
		case LE:
			if r > tol {
				return false
			}
		case GE:
			if r < -tol {
				return false
			}
		default: // EQ
			if math.Abs(r) > tol {
				return false
			}
		}
	}
	return true
}

// Objective returns c·x under the problem's current objective
// coefficients. Branch-and-bound prices candidate incumbents with it so
// the stored bound always belongs to the exact point being stored, not
// to the unrounded LP iterate it was derived from.
func (p *Problem) Objective(x []float64) float64 {
	v := 0.0
	for j, c := range p.obj {
		if c != 0 {
			v += c * x[j]
		}
	}
	return v
}
