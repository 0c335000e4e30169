// Package simplex implements a bounded-variable, two-phase primal simplex
// solver for linear programs:
//
//	minimize    c·x
//	subject to  a_i·x  {<=, =, >=}  b_i        for each row i
//	            l_j <= x_j <= u_j               for each variable j
//
// It is the LP engine beneath the branch-and-bound MILP solver in
// internal/milp, which together substitute for the CPLEX dependency of
// the QFix paper. Bounds are handled natively (no bound rows), which is
// what makes branch-and-bound cheap: a branch only tightens one bound.
//
// A Problem stores its rows once, flat and row-major; the sparse columns
// the solver reads are a view built from them once, and the storage of
// both is recycled from one Problem to the next (NewProblem, Release).
//
// The implementation is a revised simplex over sparse columns with a
// factorized basis: a sparse LU factorization (partial pivoting) plus a
// product-form eta file answers FTRAN/BTRAN, so no dense inverse is ever
// formed (see factor.go). Pricing is Dantzig with a Bland fallback for
// anti-cycling, phase 1 is composite (infeasibility-sum), and the basis
// is refactorized whenever the eta file grows long, for numerical
// hygiene. It targets the problem sizes the QFix encoder produces
// (hundreds to a few thousand rows, a handful of nonzeros per row); it
// is not a general-purpose industrial LP code.
package simplex

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/freelist"
)

// Inf is the bound value representing +infinity; use -Inf for free lower
// bounds.
var Inf = math.Inf(1)

// Status reports the outcome of a solve.
type Status int

// Solve outcomes.
const (
	// Optimal: an optimal basic feasible solution was found.
	Optimal Status = iota
	// Infeasible: the constraints admit no solution.
	Infeasible
	// Unbounded: the objective decreases without bound.
	Unbounded
	// IterLimit: the iteration budget was exhausted before optimality.
	IterLimit
	// NumFail: the basis became numerically unusable.
	NumFail
	// TimeLimit: the Solver's deadline (SetDeadline) passed before
	// optimality.
	TimeLimit
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration-limit"
	case NumFail:
		return "numerical-failure"
	case TimeLimit:
		return "time-limit"
	}
	return "unknown"
}

// ConstrOp is a row's relational operator.
type ConstrOp int

// Row operators.
const (
	LE ConstrOp = iota
	GE
	EQ
)

// Coef is one term of a constraint row.
type Coef struct {
	Var  int
	Coef float64
}

type entry struct {
	row  int
	coef float64
}

// Problem accumulates a linear program. NewProblem returns one in
// recycled storage.
//
// The rows are stored once, flat and row-major: row i's terms are
// terms[rowEnd[i-1]:rowEnd[i]], in ascending variable order. The solver
// reads columns, so once the last row is added BuildCols builds the
// column view (cols) from the rows: one flat entry array with a subslice
// per column, each listing its rows in ascending order. NewProblem takes
// all of this storage from a free list and Release returns it, so a
// program that builds one model after another stops allocating once the
// storage has grown to the largest.
type Problem struct {
	obj, lb, ub []float64

	rhs    []float64
	ops    []ConstrOp
	rowEnd []int
	terms  []Coef

	cols   [][]entry // the column view: subslices of colBuf
	colBuf []entry
	colLen []int // per-column counts while the view is built
}

// problems is the free list NewProblem takes its storage from.
var problems freelist.List[Problem]

// NewProblem returns an empty problem.
func NewProblem() *Problem {
	p := problems.Get()
	return &p
}

// Release hands the problem's storage back for the next NewProblem to
// reuse. Neither the problem nor a clone of it may be used afterwards,
// and a clone itself must never be released: it shares the rows and the
// column view of the problem it was cloned from.
func (p *Problem) Release() {
	st := *p
	*p = Problem{}
	st.obj, st.lb, st.ub = st.obj[:0], st.lb[:0], st.ub[:0]
	st.rhs, st.ops, st.rowEnd, st.terms = st.rhs[:0], st.ops[:0], st.rowEnd[:0], st.terms[:0]
	st.cols = st.cols[:0]
	problems.Put(st)
}

// NumVars returns the number of structural variables added so far.
func (p *Problem) NumVars() int { return len(p.obj) }

// NumRows returns the number of constraint rows added so far.
func (p *Problem) NumRows() int { return len(p.rhs) }

// AddVar adds a variable with bounds [lb, ub] and objective coefficient
// obj, returning its index. Bounds may be ±Inf.
func (p *Problem) AddVar(lb, ub, obj float64) int {
	if lb > ub {
		panic(fmt.Sprintf("simplex: variable bounds reversed [%g, %g]", lb, ub))
	}
	p.obj = append(p.obj, obj)
	p.lb = append(p.lb, lb)
	p.ub = append(p.ub, ub)
	return len(p.obj) - 1
}

// SetObj overwrites the objective coefficient of variable v.
func (p *Problem) SetObj(v int, c float64) { p.obj[v] = c }

// SetBounds overwrites the bounds of variable v. Used by branch-and-bound.
func (p *Problem) SetBounds(v int, lb, ub float64) {
	if lb > ub {
		panic(fmt.Sprintf("simplex: variable bounds reversed [%g, %g]", lb, ub))
	}
	p.lb[v] = lb
	p.ub[v] = ub
}

// Bounds returns the bounds of variable v.
func (p *Problem) Bounds(v int) (lb, ub float64) { return p.lb[v], p.ub[v] }

// Obj returns the objective coefficient of variable v.
func (p *Problem) Obj(v int) float64 { return p.obj[v] }

// Row returns row i's relational operator and right-hand side.
func (p *Problem) Row(i int) (ConstrOp, float64) { return p.ops[i], p.rhs[i] }

// Terms returns row i's nonzero terms in ascending variable order. The
// slice is the problem's own storage: read it, never write it.
func (p *Problem) Terms(i int) []Coef {
	start := 0
	if i > 0 {
		start = p.rowEnd[i-1]
	}
	return p.terms[start:p.rowEnd[i]]
}

// Col iterates variable v's nonzero constraint coefficients in ascending
// row order. It reads the column view (BuildCols).
func (p *Problem) Col(v int, f func(row int, coef float64)) {
	for _, e := range p.cols[v] {
		f(e.row, e.coef)
	}
}

// BuildCols builds the column view from the rows and variables added so
// far: a counting pass sizes every column, then a pass over the rows in
// ascending order fills them. Col, Clone and a Solver read the view;
// NewSolver builds it for a problem that has none, and a problem that
// is cloned or solved concurrently must have it built before, by one
// goroutine. A row or variable added later is missing from the view
// until the next BuildCols, which rebuilds in place and so must not run
// while anything reads p.
func (p *Problem) BuildCols() {
	n := len(p.obj)
	count := resize(p.colLen, n)
	for _, t := range p.terms {
		count[t.Var]++
	}
	buf := resize(p.colBuf, len(p.terms))
	cols := resize(p.cols, n)
	off := 0
	for j, c := range count {
		cols[j] = buf[off : off : off+c]
		off += c
	}
	start := 0
	for i, end := range p.rowEnd {
		for _, t := range p.terms[start:end] {
			cols[t.Var] = append(cols[t.Var], entry{row: i, coef: t.Coef})
		}
		start = end
	}
	p.colLen, p.colBuf, p.cols = count, buf, cols
}

// Clone returns a problem sharing this one's immutable structure (rows,
// column view, row operators, right-hand sides) with private copies of
// the mutable per-variable state (bounds and objective). It exists for
// parallel branch-and-bound: each worker owns a clone so bound changes
// on one node's path never race another worker's. Clone only reads p,
// so any number of goroutines may clone it at once; the clone shares p's
// column view, so build that first (BuildCols). Neither the clone nor
// the original may gain variables or rows afterwards.
func (p *Problem) Clone() *Problem {
	return &Problem{
		obj:    append([]float64(nil), p.obj...),
		lb:     append([]float64(nil), p.lb...),
		ub:     append([]float64(nil), p.ub...),
		rhs:    p.rhs,
		ops:    p.ops,
		rowEnd: p.rowEnd,
		terms:  p.terms,
		// Capped, so a clone of a problem without a view builds its own
		// instead of writing into p's storage.
		cols: p.cols[:len(p.cols):len(p.cols)],
	}
}

// AddConstr adds the row terms op rhs and returns its index. The terms
// are stored in ascending variable order (a stable sort, so duplicate
// variables keep their argument order); duplicates are summed in that
// order and zero sums are dropped.
func (p *Problem) AddConstr(terms []Coef, op ConstrOp, rhs float64) int {
	for _, t := range terms {
		if t.Var < 0 || t.Var >= len(p.obj) {
			panic(fmt.Sprintf("simplex: constraint references unknown variable %d", t.Var))
		}
	}
	start := len(p.terms)
	p.terms = append(p.terms, terms...)
	row := p.terms[start:]
	if byVar := func(a, b Coef) int { return cmp.Compare(a.Var, b.Var) }; !slices.IsSortedFunc(row, byVar) {
		slices.SortStableFunc(row, byVar)
	}
	w := start
	for k := 0; k < len(row); {
		t := row[k]
		for k++; k < len(row) && row[k].Var == t.Var; k++ {
			t.Coef += row[k].Coef
		}
		if t.Coef != 0 {
			p.terms[w] = t
			w++
		}
	}
	p.terms = p.terms[:w]
	p.rowEnd = append(p.rowEnd, w)
	p.rhs = append(p.rhs, rhs)
	p.ops = append(p.ops, op)
	return len(p.rhs) - 1
}

// Options tunes the solver.
type Options struct {
	// MaxIters bounds total simplex iterations (phases 1+2).
	// Zero means a size-derived default.
	MaxIters int
}

// The bound/row feasibility and reduced-cost optimality tolerances.
const (
	feasTol = 1e-7
	optTol  = 1e-9
)

func (o Options) withDefaults(m, n int) Options {
	if o.MaxIters <= 0 {
		o.MaxIters = 200 * (m + n + 10)
	}
	return o
}

// Solution is the result of a solve.
type Solution struct {
	Status Status
	// X holds the values of the structural variables (valid for Optimal;
	// for IterLimit and TimeLimit it holds the last iterate, which may be
	// infeasible).
	X []float64
	// Obj is the objective value c·X.
	Obj float64
	// Iters is the number of simplex iterations performed.
	Iters int
	// Refactors counts basis refactorizations performed since the
	// previous Solution was reported (covering this solve plus any
	// Install that positioned it). Identity cold starts are free and not
	// counted.
	Refactors int
}
