package simplex

import (
	"math"
	"time"

	"repro/internal/freelist"
)

// Solver carries simplex state that survives across re-optimizations.
// Branch-and-bound gives each goroutine of a search one Solver and
// installs a node's parent basis before every Solve: the basis, its
// factorization, and the nonbasic positions are retained, so a child
// node typically re-optimizes in a handful of pivots instead of hundreds
// from a cold slack basis. The state lives in a workspace taken from a
// package-wide free list on first use and handed back by Release, so
// the next Solver reuses every buffer instead of growing its own.
//
// A Solver assumes the problem's rows and variables are fixed after
// creation; only bounds and objective coefficients may change between
// calls.
type Solver struct {
	p           *Problem
	opt         Options
	deadline    time.Time // zero: none
	inner       *solver   // the workspace; nil before first use and after Release
	initialized bool
}

// NewSolver prepares a reusable solver for the problem, first building
// its column view (BuildCols) if it has none.
func NewSolver(p *Problem, opt Options) *Solver {
	if len(p.cols) != len(p.obj) {
		p.BuildCols()
	}
	return &Solver{p: p, opt: opt}
}

// workspaces is the free list Solvers take their workspaces from.
var workspaces freelist.List[*solver]

// workspace returns the solver's workspace fitted to the problem's
// current shape (m rows, n structural variables), taking one from the
// free list on first use. Fitting a workspace to a new shape discards its basis, so the
// solver is cold afterwards.
func (ws *Solver) workspace(m, n int) *solver {
	s := ws.inner
	if s == nil {
		if s = workspaces.Get(); s == nil {
			s = &solver{fac: &factor{}}
		}
		ws.inner = s
	}
	if s.p != ws.p || s.m != m || s.n != n {
		s.size(ws.p, m, n)
		ws.initialized = false
	}
	return s
}

// Release hands the solver's workspace back for the next Solver to
// reuse. The Solver must not be used afterwards; the Solutions and
// Snapshots it returned stay valid.
func (ws *Solver) Release() {
	s := ws.inner
	ws.inner, ws.initialized = nil, false
	if s == nil {
		return
	}
	s.p = nil
	workspaces.Put(s)
}

// SetDeadline makes every later Solve stop with status TimeLimit once
// the clock passes t, which it checks every deadlineEvery iterations
// beside the iteration budget; the zero time removes the deadline. A
// solve that ends before t never sees the check fire, so its pivots are
// those of a solve without one.
func (ws *Solver) SetDeadline(t time.Time) { ws.deadline = t }

// deadlineEvery is how many iterations pass between two looks at the
// clock: a small fraction of one iteration's cost on any model large
// enough to run past a deadline.
const deadlineEvery = 64

// Reset discards any retained basis so the next Solve starts cold. Used
// where a warm start was rejected and the caller needs a deterministic
// fallback state rather than "whatever the solver held before".
func (ws *Solver) Reset() { ws.initialized = false }

// Solve optimizes under the problem's current bounds, warm-starting from
// the previous basis when one exists.
func (ws *Solver) Solve() Solution {
	m, n := len(ws.p.rhs), len(ws.p.obj)
	s := ws.workspace(m, n)
	s.opt = ws.opt.withDefaults(m, n)
	s.deadline = ws.deadline
	warm := ws.initialized
	if warm {
		s.warmReset()
	} else {
		s.init()
		ws.initialized = true
	}
	s.iters = 0
	st := s.optimize()
	if warm && st == Infeasible && !s.rowsValid() {
		// An infeasibility verdict is only trustworthy if the iterate
		// actually satisfies the equality system; a corrupted basis
		// inverse fails this and must not prune feasible subtrees.
		st = NumFail
	}
	if warm && (st == IterLimit || st == NumFail || (st == Optimal && !s.solutionValid())) {
		// The retained basis went stale or numerically sour: retry cold.
		// (A long eta file can silently corrupt the factorized basis;
		// an "optimal" answer violating bounds or rows is the telltale.)
		s.init()
		s.iters = 0
		st = s.optimize()
	}
	if st == Optimal && !s.solutionValid() {
		st = NumFail // even the cold basis is numerically untrustworthy
	}
	if st == NumFail {
		mNumFails.Inc()
	}
	return s.result(st)
}

// optimize runs phase 1 then phase 2, then repairs drift instead of
// letting it curdle into a verdict: the ratio test skips rows whose
// direction component is below the pivot threshold, so one long step
// (big-M models legally take steps of ~1e7) can carry such a row's
// basic variable visibly past its bound, and product-form updates
// accumulate error in the basis inverse that computeBasics then bakes
// into the iterate. Either way the final validity gate would reject the
// "optimal" answer as NumFail, stalling branch-and-bound subtrees that
// are actually fine. The repair is mechanical: refactorize (rebuild the
// exact inverse and recompute the basics), re-run phase 1 to restore
// feasibility in a handful of pivots, and re-optimize from that basis.
// A model that still fails validation after two repairs is genuinely
// numerically hostile and keeps the NumFail verdict.
func (s *solver) optimize() Status {
	st := s.phase1()
	if st == Optimal {
		st = s.phase2()
	}
	for round := 0; round < 2 && st == Optimal && !s.solutionValid(); round++ {
		if !s.refactorize() {
			return NumFail
		}
		if st = s.phase1(); st == Optimal {
			st = s.phase2()
		}
	}
	return st
}

// solutionValid checks the current iterate for primal feasibility:
// every variable within its bounds and every row satisfied, with a
// tolerance scaled to the iterate's magnitude. Guards against basis-
// inverse corruption slipping bogus "optimal" answers to callers.
func (s *solver) solutionValid() bool {
	for j := 0; j < s.N; j++ {
		v := s.xval[j]
		tol := 1e-5 + 1e-6*math.Abs(v)
		if v < s.lb[j]-tol || v > s.ub[j]+tol {
			return false
		}
	}
	return s.rowsValid()
}

// rowsValid checks that the current iterate satisfies the equality
// system Ax + s = b (the invariant any basis-derived iterate must hold,
// feasible or not). Tolerances scale with the row's term magnitudes:
// catastrophic cancellation on large big-M rows leaves residuals
// proportional to the summed magnitudes, not to the rhs.
func (s *solver) rowsValid() bool {
	lhs, mag := s.rowLHS, s.rowMag
	clear(lhs)
	clear(mag)
	for j := 0; j < s.N; j++ {
		v := s.xval[j]
		if v == 0 {
			continue
		}
		s.colOf(j, func(row int, coef float64) {
			lhs[row] += coef * v
			mag[row] += math.Abs(coef * v)
		})
	}
	for i := 0; i < s.m; i++ {
		tol := 1e-6 + 1e-7*math.Max(mag[i], math.Abs(s.p.rhs[i]))
		if math.Abs(lhs[i]-s.p.rhs[i]) > tol {
			return false
		}
	}
	return true
}

// warmReset adapts retained state to the problem's current bounds:
// bounds are re-read, nonbasic variables are clamped into their (possibly
// tightened) ranges, and basic values are recomputed.
func (s *solver) warmReset() {
	copy(s.lb[:s.n], s.p.lb)
	copy(s.ub[:s.n], s.p.ub)
	copy(s.obj[:s.n], s.p.obj)
	for j := 0; j < s.N; j++ {
		if s.basicPos[j] >= 0 {
			continue
		}
		if s.xval[j] < s.lb[j] {
			s.xval[j] = s.lb[j]
		}
		if s.xval[j] > s.ub[j] {
			s.xval[j] = s.ub[j]
		}
	}
	s.degen = 0
	s.bland = false
	s.computeBasics()
}

// solver is a Solver's workspace: the working state of its solves and
// every buffer they use. Variables are indexed 0..n-1 (structural) and
// n..n+m-1 (one slack per row, coefficient +1, with bounds encoding the
// row operator).
type solver struct {
	p   *Problem
	opt Options
	m   int // rows
	n   int // structural variables
	N   int // n + m

	lb, ub []float64 // length N
	obj    []float64 // length N (slacks cost 0)

	basis    []int     // length m: variable occupying each basis position
	basicPos []int     // length N: position in basis, or -1
	xval     []float64 // length N: current value of every variable
	fac      *factor   // sparse LU + eta file of the basis

	w       []float64 // scratch: B^{-1} A_enter (basis-position space)
	fx      []float64 // scratch: FTRAN input (original-row space)
	y       []float64 // scratch: duals
	dB      []float64 // scratch: phase-1 costs of basic vars
	cB      []float64 // scratch: phase-2 costs of basic vars
	rowLHS  []float64 // scratch: rowsValid's row activities
	rowMag  []float64 // scratch: rowsValid's summed term magnitudes
	inBasis []bool    // Install's duplicate check, all false between calls
	iters   int
	pivots  int // basis changes since the workspace was fitted

	refactorCount int // refactorizations since last reported Solution

	degen int  // consecutive (near-)degenerate pivots
	bland bool // anti-cycling mode

	deadline time.Time // the Solver's, for the solve in progress
}

// refactorize rebuilds the sparse LU factorization from the basis
// columns, flushing the eta file and the drift it accumulated. Reports
// false when the basis matrix is numerically singular.
func (s *solver) refactorize() bool {
	if !s.fac.refactorize(s.p.cols, s.n, s.basis) {
		return false
	}
	s.refactorCount++
	mRefactorizations.Inc()
	s.computeBasics()
	return true
}

// Solve runs two-phase primal simplex on the problem from a cold basis.
// For repeated solves under changing bounds (branch-and-bound), use
// NewSolver to retain the basis between calls.
func (p *Problem) Solve(opt Options) Solution {
	ws := NewSolver(p, opt)
	defer ws.Release()
	return ws.Solve()
}

// size fits the workspace to problem p with m rows and n structural
// variables: every buffer is reused when large enough and comes back
// cleared, and the counters restart.
func (s *solver) size(p *Problem, m, n int) {
	N := n + m
	s.p, s.m, s.n, s.N = p, m, n, N
	s.lb, s.ub, s.obj, s.xval = resize(s.lb, N), resize(s.ub, N), resize(s.obj, N), resize(s.xval, N)
	s.basicPos, s.inBasis = resize(s.basicPos, N), resize(s.inBasis, N)
	s.basis, s.w, s.fx, s.y = resize(s.basis, m), resize(s.w, m), resize(s.fx, m), resize(s.y, m)
	s.dB, s.cB = resize(s.dB, m), resize(s.cB, m)
	s.rowLHS, s.rowMag = resize(s.rowLHS, m), resize(s.rowMag, m)
	s.fac.size(m)
	s.iters, s.pivots, s.refactorCount = 0, 0, 0
}

// init resets the solver to the canonical cold state: bounds re-read,
// nonbasic structural variables at their nearest finite bound, slack
// basis with an identity factorization.
func (s *solver) init() {
	s.reset()
	for j := range s.basicPos {
		s.basicPos[j] = -1
	}
	// Nonbasic structural variables start at their finite bound nearest
	// zero (or zero if free).
	for j := 0; j < s.n; j++ {
		s.xval[j] = nearestFiniteBound(s.lb[j], s.ub[j])
	}
	// Slack basis: every slack column is a unit vector, so the
	// factorization is the identity.
	for i := 0; i < s.m; i++ {
		s.basis[i] = s.n + i
		s.basicPos[s.n+i] = i
	}
	s.fac.identity()
	s.degen = 0
	s.bland = false
	s.computeBasics()
}

// reset re-reads the problem's bounds and objective and gives the slacks
// the bounds of their row operators. The buffers are the workspace's, so
// re-initializing a solver (warm retries, basis installs) costs no
// allocation.
func (s *solver) reset() {
	copy(s.lb, s.p.lb)
	copy(s.ub, s.p.ub)
	copy(s.obj, s.p.obj)
	for i := 0; i < s.m; i++ {
		j := s.n + i
		switch s.p.ops[i] {
		case LE:
			s.lb[j], s.ub[j] = 0, Inf
		case GE:
			s.lb[j], s.ub[j] = math.Inf(-1), 0
		case EQ:
			s.lb[j], s.ub[j] = 0, 0
		}
	}
}

func nearestFiniteBound(l, u float64) float64 {
	lf, uf := !math.IsInf(l, -1), !math.IsInf(u, 1)
	switch {
	case lf && uf:
		if math.Abs(l) <= math.Abs(u) {
			return l
		}
		return u
	case lf:
		return l
	case uf:
		return u
	default:
		return 0
	}
}

// colOf iterates the sparse column of variable j.
func (s *solver) colOf(j int, f func(row int, coef float64)) {
	if j < s.n {
		for _, e := range s.p.cols[j] {
			f(e.row, e.coef)
		}
		return
	}
	f(j-s.n, 1)
}

// computeBasics recomputes the values of all basic variables from
// scratch: xB = B^{-1} (b - A_N x_N), one FTRAN.
func (s *solver) computeBasics() {
	r := s.fx
	copy(r, s.p.rhs)
	for j := 0; j < s.N; j++ {
		if s.basicPos[j] >= 0 || s.xval[j] == 0 {
			continue
		}
		v := s.xval[j]
		s.colOf(j, func(row int, coef float64) { r[row] -= coef * v })
	}
	s.fac.ftran(r)
	for i := 0; i < s.m; i++ {
		s.xval[s.basis[i]] = r[i]
	}
}

// infeasibility returns the total bound violation of basic variables and
// fills s.dB with the phase-1 cost of each basis position (-1 below
// lower, +1 above upper, 0 feasible).
func (s *solver) infeasibility() float64 {
	tol := feasTol
	total := 0.0
	for i := 0; i < s.m; i++ {
		v := s.xval[s.basis[i]]
		l, u := s.lb[s.basis[i]], s.ub[s.basis[i]]
		switch {
		case v < l-tol:
			s.dB[i] = -1
			total += l - v
		case v > u+tol:
			s.dB[i] = 1
			total += v - u
		default:
			s.dB[i] = 0
		}
	}
	return total
}

// computeDuals fills s.y with the solution of B^T y = cB for the given
// basic cost vector (one BTRAN); y is indexed by original row.
func (s *solver) computeDuals(cB []float64) {
	copy(s.y, cB)
	s.fac.btran(s.y)
}

// reducedCost returns c_j - y·A_j.
func (s *solver) reducedCost(j int, structuralCost bool) float64 {
	rc := 0.0
	if structuralCost {
		rc = s.obj[j]
	}
	s.colOf(j, func(row int, coef float64) { rc -= s.y[row] * coef })
	return rc
}

// budgetSpent reports whether the solve must stop before its next
// iteration, and with which status: the iteration budget is spent, or
// the deadline has passed (looked at every deadlineEvery iterations).
func (s *solver) budgetSpent() (Status, bool) {
	if s.iters >= s.opt.MaxIters {
		return IterLimit, true
	}
	if s.iters%deadlineEvery == 0 && !s.deadline.IsZero() && time.Now().After(s.deadline) {
		return TimeLimit, true
	}
	return Optimal, false
}

// phase1 drives the basis to feasibility, minimizing total bound
// violation with the composite (piecewise-linear) phase-1 objective.
func (s *solver) phase1() Status {
	tol := feasTol
	refactors := 0
	for {
		if st, stop := s.budgetSpent(); stop {
			return st
		}
		if s.infeasibility() <= tol {
			return Optimal
		}
		s.computeDuals(s.dB)
		j, dir := s.chooseEntering(false)
		if j < 0 {
			// Before declaring infeasibility, make sure the duals that
			// justified it came from an exact inverse: product-form drift
			// yields wrong duals with a perfectly consistent iterate.
			if !s.dualsConsistent(true) && refactors < 2 {
				refactors++
				if !s.refactorize() {
					return NumFail
				}
				continue
			}
			return Infeasible
		}
		st := s.pivot(j, dir, true)
		if st != Optimal {
			return st
		}
	}
}

// phase2 optimizes the true objective from a feasible basis.
func (s *solver) phase2() Status {
	cB := s.cB
	refactors := 0
	for {
		if st, stop := s.budgetSpent(); stop {
			return st
		}
		for i := 0; i < s.m; i++ {
			cB[i] = s.obj[s.basis[i]]
		}
		s.computeDuals(cB)
		j, dir := s.chooseEntering(true)
		if j < 0 {
			if !s.dualsConsistent(false) && refactors < 2 {
				refactors++
				if !s.refactorize() {
					return NumFail
				}
				continue
			}
			return Optimal
		}
		st := s.pivot(j, dir, false)
		if st != Optimal {
			return st
		}
	}
}

// dualsConsistent verifies B^T y = c_B on the current duals: every basic
// variable's reduced cost must be (near) zero. A corrupted basis inverse
// produces wrong duals while the primal iterate can remain perfectly
// row-consistent, so this is the check that protects verdicts.
// phase1 selects the composite phase-1 cost vector.
func (s *solver) dualsConsistent(phase1 bool) bool {
	for i := 0; i < s.m; i++ {
		bi := s.basis[i]
		var cost float64
		if phase1 {
			cost = s.dB[i]
		} else {
			cost = s.obj[bi]
		}
		rc := cost
		scale := math.Max(1, math.Abs(cost))
		s.colOf(bi, func(row int, coef float64) {
			rc -= s.y[row] * coef
			if a := math.Abs(s.y[row] * coef); a > scale {
				scale = a
			}
		})
		if math.Abs(rc) > 1e-6*scale {
			return false
		}
	}
	return true
}

// chooseEntering prices all nonbasic variables and returns the entering
// variable and its movement direction (+1 increase, -1 decrease), or
// (-1, 0) if no improving variable exists. structuralCost selects
// phase-2 pricing (phase 1 uses zero costs for nonbasic variables).
func (s *solver) chooseEntering(structuralCost bool) (int, int) {
	tol := optTol
	ftol := feasTol
	best, bestScore, bestDir := -1, tol, 0
	for j := 0; j < s.N; j++ {
		if s.basicPos[j] >= 0 {
			continue
		}
		canUp := s.xval[j] < s.ub[j]-ftol
		canDown := s.xval[j] > s.lb[j]+ftol
		if !canUp && !canDown {
			continue // fixed variable
		}
		rc := s.reducedCost(j, structuralCost)
		var score float64
		var dir int
		switch {
		case canUp && rc < -tol && (!canDown || rc <= 0):
			score, dir = -rc, 1
		case canDown && rc > tol:
			score, dir = rc, -1
		default:
			continue
		}
		if s.bland {
			return j, dir // first eligible index (Bland's rule)
		}
		if score > bestScore {
			best, bestScore, bestDir = j, score, dir
		}
	}
	return best, bestDir
}

// pivot performs the ratio test for entering variable j moving in
// direction dir, then applies either a bound flip or a basis change.
// phase1 selects the phase-1 ratio test that lets infeasible basic
// variables travel to (and stop at) their violated bound.
func (s *solver) pivot(j, dir int, phase1 bool) Status {
	s.iters++
	ftol := feasTol
	ptol := 1e-9

	// w = B^{-1} A_j: scatter the sparse column, one FTRAN.
	for i := range s.fx {
		s.fx[i] = 0
	}
	s.colOf(j, func(row int, coef float64) { s.fx[row] += coef })
	s.fac.ftran(s.fx)
	copy(s.w, s.fx)

	// Entering variable's own travel limit (bound flip). Measured from
	// its current value: warm starts can leave a nonbasic variable at an
	// interior point after bound changes, so the full range would
	// overshoot.
	tBest := math.Inf(1)
	leave := -1 // basis position of leaving var; -1 = bound flip
	var leaveBound float64
	if dir > 0 {
		if !math.IsInf(s.ub[j], 1) {
			tBest = s.ub[j] - s.xval[j]
		}
	} else if !math.IsInf(s.lb[j], -1) {
		tBest = s.xval[j] - s.lb[j]
	}

	// rowBreak computes row i's exact breakpoint: how far the entering
	// variable may travel before basis position i's variable hits a
	// bound (the bound it stops at is returned). ok=false means the row
	// imposes no limit in this direction.
	rowBreak := func(i int) (t, bound float64, ok bool) {
		delta := -float64(dir) * s.w[i]
		if math.Abs(delta) <= ptol {
			return 0, 0, false
		}
		bv := s.basis[i]
		v, l, u := s.xval[bv], s.lb[bv], s.ub[bv]
		switch {
		case phase1 && v < l-ftol:
			if delta <= 0 {
				return 0, 0, false // moving further below: no breakpoint
			}
			t, bound = (l-v)/delta, l
		case phase1 && v > u+ftol:
			if delta >= 0 {
				return 0, 0, false
			}
			t, bound = (u-v)/delta, u
		case delta > 0:
			if math.IsInf(u, 1) {
				return 0, 0, false
			}
			t, bound = (u-v)/delta, u
		default: // delta < 0
			if math.IsInf(l, -1) {
				return 0, 0, false
			}
			t, bound = (l-v)/delta, l
		}
		if t < 0 {
			t = 0 // degenerate: slight bound violation within tolerance
		}
		return t, bound, true
	}

	// Exact minimum-ratio test: prefer strictly smaller t, and on
	// near-ties keep the larger |pivot| for numerical stability.
	for i := 0; i < s.m; i++ {
		t, bound, ok := rowBreak(i)
		if !ok {
			continue
		}
		if t < tBest-1e-12 || (t <= tBest+1e-12 && leave >= 0 && math.Abs(s.w[i]) > math.Abs(s.w[leave])) {
			tBest, leave, leaveBound = t, i, bound
		}
	}

	if math.IsInf(tBest, 1) {
		if phase1 {
			return NumFail // cannot happen with exact arithmetic
		}
		return Unbounded
	}

	// Tiny-pivot escape (two-pass Harris, run only when needed): when
	// the exact test elects a pivot small enough to poison the basis
	// inverse, re-pick the largest |pivot| among rows whose exact
	// breakpoint fits under a feasibility-relaxed step limit; every
	// bypassed row then overshoots its bound by at most the relaxation,
	// regardless of scan order. This matters on big-M models, where
	// steps legally reach ~1e7 and the exact test otherwise steers the
	// basis into sub-1e-10 pivots whose product-form updates leave an
	// inverse even refactorization cannot salvage (the partition bench
	// died on exactly that). Gating on the tiny pivot keeps every other
	// pivot's path — and therefore solver behavior and performance —
	// identical to the exact test.
	if leave >= 0 && math.Abs(s.w[leave]) < 1e-7 {
		relax := 0.1 * ftol
		tMax := math.Inf(1)
		if dir > 0 {
			if !math.IsInf(s.ub[j], 1) {
				tMax = s.ub[j] - s.xval[j] // entering travel: unrelaxed
			}
		} else if !math.IsInf(s.lb[j], -1) {
			tMax = s.xval[j] - s.lb[j]
		}
		for i := 0; i < s.m; i++ {
			if t, _, ok := rowBreak(i); ok {
				if r := t + relax/math.Abs(s.w[i]); r < tMax {
					tMax = r
				}
			}
		}
		for i := 0; i < s.m; i++ {
			t, bound, ok := rowBreak(i)
			if !ok || t > tMax {
				continue
			}
			if math.Abs(s.w[i]) > math.Abs(s.w[leave]) {
				tBest, leave, leaveBound = t, i, bound
			}
		}
	}

	// Anti-cycling bookkeeping.
	if tBest <= 1e-10 {
		s.degen++
		if s.degen > 200 {
			s.bland = true
		}
	} else {
		s.degen = 0
		s.bland = false
	}

	// Apply the step.
	step := float64(dir) * tBest
	s.xval[j] += step
	for i := 0; i < s.m; i++ {
		if s.w[i] != 0 {
			s.xval[s.basis[i]] -= step * s.w[i]
		}
	}

	if leave < 0 {
		// Bound flip: snap to the exact opposite bound.
		if dir > 0 {
			s.xval[j] = s.ub[j]
		} else {
			s.xval[j] = s.lb[j]
		}
		return Optimal
	}

	lv := s.basis[leave]
	s.xval[lv] = leaveBound // snap leaving variable exactly to its bound
	// Product-form update: append one sparse eta instead of touching a
	// dense inverse. update rejects pivots too small to invert safely.
	if !s.fac.update(leave, s.w) {
		return NumFail
	}
	s.basicPos[lv] = -1
	s.basis[leave] = j
	s.basicPos[j] = leave
	s.pivots++

	// Flush incremental drift: refactorize when the eta file has grown
	// long, cheap value recompute in between.
	if s.fac.needsRefactor() {
		if !s.refactorize() {
			return NumFail
		}
	} else if s.iters%64 == 0 {
		s.computeBasics()
	}
	return Optimal
}

func (s *solver) result(st Status) Solution {
	// A fresh X per solve: branch-and-bound keeps a speculated node's
	// Solution while the same solver goes on to the next node, and reads
	// a node's X again after polishing it on the same solver.
	x := make([]float64, s.n)
	copy(x, s.xval[:s.n])
	obj := 0.0
	for j := 0; j < s.n; j++ {
		obj += s.p.obj[j] * x[j]
	}
	ref := s.refactorCount
	s.refactorCount = 0
	return Solution{Status: st, X: x, Obj: obj, Iters: s.iters, Refactors: ref}
}
