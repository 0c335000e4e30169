package milp

import (
	"math"

	"repro/internal/simplex"
)

// This file is the root presolve: a fixpoint of feasibility-preserving
// reductions applied to the MILP before branch-and-bound sees it. The
// encoder's big-M models are full of rows a little arithmetic dissolves —
// indicator binaries forced to one value by their linking rows, big-M
// bounds far wider than the row activity they guard, rows every point in
// the bound box satisfies — and every dissolved row or fixed binary is
// work the LP never does again, at every node of the search.
//
// Only reductions that preserve the entire feasible set (projected onto
// the surviving variables) are applied: implied-bound tightening from row
// activity, integer bound rounding, fixing of forced variables, and
// redundant/empty row dropping. Nothing objective-driven — the optimal
// solution SET is exactly the original one, which is what lets the
// solver promise byte-identical repairs with presolve on or off whenever
// the optimum is unique, and deterministic output either way.
//
// postsolve is a projection map: solutions of the reduced problem are
// scattered back into full-length vectors with the fixed variables at
// their forced values.

// presolved is the outcome of presolve: the reduced problem plus the
// maps back to the original variable space.
type presolved struct {
	prob  *simplex.Problem
	isInt []bool

	toRed []int     // original var -> reduced var, or -1 when fixed
	fixed []float64 // original-space values of fixed vars (valid where toRed < 0)

	// fixedObj is the objective contribution of the fixed variables; the
	// search adds it to every reduced-space objective so bounds and
	// incumbents stay in original-objective terms.
	fixedObj float64

	rowsDropped int
	varsFixed   int
	infeasible  bool // a row was proven unsatisfiable; no search needed
}

// rterm is one row-major nonzero.
type rterm struct {
	v int
	c float64
}

const (
	// presolveRounds caps fixpoint iterations; encoder models converge in
	// a handful, the cap only guards pathological ping-pong.
	presolveRounds = 30
	// bndEps is the slack added outside every tightened continuous bound
	// so float noise in the activity arithmetic can never cut off a point
	// the original bounds admitted.
	bndEps = 1e-9
	// minCWidth is the narrowest interval a continuous variable may be
	// tightened to. A razor-thin box (two implied bounds meeting around a
	// point a row forces exactly) is sound but numerically hostile: the
	// LP's phase-1 cannot step inside an interval of width ~1e-9 against
	// a large row coefficient and stalls with an over-tolerance residual.
	// Tightenings that would shrink below this floor are skipped — looser
	// bounds never cut feasible points, and the forcing row stays in the
	// model to do the pinning itself.
	minCWidth = 1e-5
)

// contWidthOK reports whether [lo, hi] is wide enough to keep as a
// continuous variable's bound box.
func contWidthOK(lo, hi float64) bool {
	return hi-lo >= minCWidth*(1+math.Abs(lo)+math.Abs(hi))
}

// presolve runs the reduction fixpoint. It never mutates p.
func presolve(p *simplex.Problem, isInt []bool) *presolved {
	n, m := p.NumVars(), p.NumRows()
	ps := &presolved{
		toRed: make([]int, n),
		fixed: make([]float64, n),
	}

	lb := make([]float64, n)
	ub := make([]float64, n)
	obj := make([]float64, n)
	for j := 0; j < n; j++ {
		lb[j], ub[j] = p.Bounds(j)
		obj[j] = p.Obj(j)
		// Integer bounds round inward once up front; every later
		// tightening keeps them exact integers, so fixed-point detection
		// can compare exactly.
		if isInt[j] {
			if !math.IsInf(lb[j], -1) {
				lb[j] = math.Ceil(lb[j] - 1e-7)
			}
			if !math.IsInf(ub[j], 1) {
				ub[j] = math.Floor(ub[j] + 1e-7)
			}
			if lb[j] > ub[j] {
				ps.infeasible = true
				return ps
			}
		}
	}

	// Row-major view, built once; fixing a variable folds its term into
	// the row's rhs and drops the term.
	rows := make([][]rterm, m)
	rhs := make([]float64, m)
	ops := make([]simplex.ConstrOp, m)
	for i := 0; i < m; i++ {
		ops[i], rhs[i] = p.Row(i)
	}
	for j := 0; j < n; j++ {
		p.Col(j, func(row int, coef float64) {
			rows[row] = append(rows[row], rterm{j, coef})
		})
	}
	dropped := make([]bool, m)
	isFixed := make([]bool, n)

	fix := func(j int, val float64) {
		isFixed[j] = true
		ps.fixed[j] = val
		ps.varsFixed++
		ps.fixedObj += obj[j] * val
		if val != 0 {
			p.Col(j, func(row int, coef float64) { rhs[row] -= coef * val })
		}
	}
	// fixInt snaps an integer variable whose bounds collapsed.
	fixInt := func(j int) bool {
		v := math.Round(lb[j])
		if isFixed[j] {
			return false
		}
		fix(j, v)
		return true
	}

	for round := 0; round < presolveRounds; round++ {
		changed := false
		for i := 0; i < m; i++ {
			if dropped[i] {
				continue
			}
			// Row activity over unfixed terms: finite parts plus a count
			// of infinite contributions in each direction.
			minS, maxS := 0.0, 0.0
			minInf, maxInf := 0, 0
			nAct := 0
			for _, t := range rows[i] {
				if isFixed[t.v] {
					continue
				}
				nAct++
				l, u := lb[t.v], ub[t.v]
				if t.c > 0 {
					if math.IsInf(l, -1) {
						minInf++
					} else {
						minS += t.c * l
					}
					if math.IsInf(u, 1) {
						maxInf++
					} else {
						maxS += t.c * u
					}
				} else {
					if math.IsInf(u, 1) {
						minInf++
					} else {
						minS += t.c * u
					}
					if math.IsInf(l, -1) {
						maxInf++
					} else {
						maxS += t.c * l
					}
				}
			}
			op, b := ops[i], rhs[i]
			ptol := 1e-7 * (1 + math.Abs(b))

			// Infeasible / redundant rows. Infeasibility needs slack (only
			// declare when the row misses by more than tolerance);
			// redundancy must be conservative (drop only when satisfied
			// exactly at the worst corner).
			switch op {
			case simplex.LE:
				if minInf == 0 && minS > b+ptol {
					ps.infeasible = true
					return ps
				}
				if maxInf == 0 && maxS <= b {
					dropped[i] = true
					ps.rowsDropped++
					changed = true
					continue
				}
			case simplex.GE:
				if maxInf == 0 && maxS < b-ptol {
					ps.infeasible = true
					return ps
				}
				if minInf == 0 && minS >= b {
					dropped[i] = true
					ps.rowsDropped++
					changed = true
					continue
				}
			default: // EQ
				if (minInf == 0 && minS > b+ptol) || (maxInf == 0 && maxS < b-ptol) {
					ps.infeasible = true
					return ps
				}
				if minInf == 0 && maxInf == 0 && minS >= b && maxS <= b {
					dropped[i] = true
					ps.rowsDropped++
					changed = true
					continue
				}
			}
			if nAct == 0 {
				continue // consistent empty row, handled above
			}

			// Implied bounds: for each term, the residual activity of the
			// rest of the row bounds how far this variable can go.
			tightenLE := op == simplex.LE || op == simplex.EQ
			tightenGE := op == simplex.GE || op == simplex.EQ
			for _, t := range rows[i] {
				j := t.v
				if isFixed[j] {
					continue
				}
				if tightenLE {
					// sum <= b: exclude j from minS; x_j's coefficient must
					// absorb what remains.
					var ex float64
					exOK := false
					if t.c > 0 {
						if minInf == 0 {
							ex, exOK = minS-t.c*lb[j], !math.IsInf(lb[j], -1)
						} else if minInf == 1 && math.IsInf(lb[j], -1) {
							ex, exOK = minS, true
						}
					} else {
						if minInf == 0 {
							ex, exOK = minS-t.c*ub[j], !math.IsInf(ub[j], 1)
						} else if minInf == 1 && math.IsInf(ub[j], 1) {
							ex, exOK = minS, true
						}
					}
					if exOK {
						lim := (b - ex) / t.c
						if t.c > 0 {
							if nu := impliedUB(lim, isInt[j]); nu < ub[j] &&
								(isInt[j] || contWidthOK(lb[j], nu)) {
								ub[j] = nu
								changed = true
							}
						} else {
							if nl := impliedLB(lim, isInt[j]); nl > lb[j] &&
								(isInt[j] || contWidthOK(nl, ub[j])) {
								lb[j] = nl
								changed = true
							}
						}
					}
				}
				if tightenGE {
					// sum >= b: exclude j from maxS.
					var ex float64
					exOK := false
					if t.c > 0 {
						if maxInf == 0 {
							ex, exOK = maxS-t.c*ub[j], !math.IsInf(ub[j], 1)
						} else if maxInf == 1 && math.IsInf(ub[j], 1) {
							ex, exOK = maxS, true
						}
					} else {
						if maxInf == 0 {
							ex, exOK = maxS-t.c*lb[j], !math.IsInf(lb[j], -1)
						} else if maxInf == 1 && math.IsInf(lb[j], -1) {
							ex, exOK = maxS, true
						}
					}
					if exOK {
						lim := (b - ex) / t.c
						if t.c > 0 {
							if nl := impliedLB(lim, isInt[j]); nl > lb[j] &&
								(isInt[j] || contWidthOK(nl, ub[j])) {
								lb[j] = nl
								changed = true
							}
						} else {
							if nu := impliedUB(lim, isInt[j]); nu < ub[j] &&
								(isInt[j] || contWidthOK(lb[j], nu)) {
								ub[j] = nu
								changed = true
							}
						}
					}
				}
				if lb[j] > ub[j] {
					if lb[j] > ub[j]+1e-6 {
						ps.infeasible = true
						return ps
					}
					// Collapsed within tolerance: meet in the middle.
					mid := (lb[j] + ub[j]) / 2
					lb[j], ub[j] = mid, mid
				}
				if isInt[j] && lb[j] == ub[j] {
					if fixInt(j) {
						changed = true
					}
				}
			}
		}
		// Forced integers whose bounds collapsed outside any single row's
		// tightening pass (e.g. original bounds already tight).
		for j := 0; j < n; j++ {
			if !isFixed[j] && isInt[j] && lb[j] == ub[j] {
				if fixInt(j) {
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}

	// Build the reduced problem.
	red := simplex.NewProblem()
	for j := 0; j < n; j++ {
		if isFixed[j] {
			ps.toRed[j] = -1
			continue
		}
		ps.toRed[j] = red.AddVar(lb[j], ub[j], obj[j])
		ps.isInt = append(ps.isInt, isInt[j])
	}
	terms := make([]simplex.Coef, 0, 8)
	for i := 0; i < m; i++ {
		if dropped[i] {
			continue
		}
		terms = terms[:0]
		for _, t := range rows[i] {
			if !isFixed[t.v] {
				terms = append(terms, simplex.Coef{Var: ps.toRed[t.v], Coef: t.c})
			}
		}
		red.AddConstr(terms, ops[i], rhs[i])
	}
	ps.prob = red
	return ps
}

// impliedUB converts a raw implied upper limit into a usable bound:
// integers round down (with tolerance, so 2.9999999 stays 3), continuous
// bounds keep a hair of outward slack.
func impliedUB(lim float64, isInt bool) float64 {
	if isInt {
		return math.Floor(lim + 1e-7)
	}
	return lim + bndEps*(1+math.Abs(lim))
}

// impliedLB is the mirror of impliedUB.
func impliedLB(lim float64, isInt bool) float64 {
	if isInt {
		return math.Ceil(lim - 1e-7)
	}
	return lim - bndEps*(1+math.Abs(lim))
}

// identityPresolve wraps p unreduced (NoPresolve, or models with nothing
// to reduce share the same code path downstream).
func identityPresolve(p *simplex.Problem, isInt []bool) *presolved {
	n := p.NumVars()
	ps := &presolved{
		prob:  p,
		isInt: isInt,
		toRed: make([]int, n),
		fixed: make([]float64, n),
	}
	for j := 0; j < n; j++ {
		ps.toRed[j] = j
	}
	return ps
}

// postsolve scatters a reduced-space solution back into the original
// variable space, fixed variables at their forced values.
func (ps *presolved) postsolve(x []float64) []float64 {
	out := make([]float64, len(ps.toRed))
	for j, r := range ps.toRed {
		if r < 0 {
			out[j] = ps.fixed[j]
		} else {
			out[j] = x[r]
		}
	}
	return out
}
