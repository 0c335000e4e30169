// Package milp provides a small mixed-integer linear programming solver:
// a model-builder API over a branch-and-bound search that uses
// internal/simplex for LP relaxations. Together with internal/simplex it
// is the stdlib-only substitute for the CPLEX solver used by the QFix
// paper (§7: "IBM CPLEX as the MILP solver").
//
// Supported: continuous, binary, and general integer variables; linear
// constraints (<=, >=, =); minimization objectives; absolute-deviation
// objective terms (the linearized Manhattan distance of paper §4.3).
package milp

import (
	"time"

	"repro/internal/freelist"
	"repro/internal/obs"
	"repro/internal/simplex"
)

// Var identifies a model variable.
type Var int

// Term is one coefficient in a linear expression.
type Term struct {
	Var  Var
	Coef float64
}

// Model accumulates an MILP.
type Model struct {
	prob     *simplex.Problem
	isInt    []bool
	objConst float64
	coefs    []simplex.Coef // AddConstr's argument, reused row to row
	terms    []Term         // NewAbsDeviation's rows, reused
	pre      presolveBufs   // reused from one Solve to the next
}

// models is the free list NewModel takes its models from.
var models freelist.List[*Model]

// NewModel returns an empty model.
func NewModel() *Model {
	m := models.Get()
	if m == nil {
		m = &Model{}
	}
	m.prob = simplex.NewProblem()
	return m
}

// Release hands the model and its storage back for the next NewModel to
// reuse. The model must not be used afterwards; the Results it returned
// stay valid.
func (m *Model) Release() {
	m.prob.Release()
	*m = Model{isInt: m.isInt[:0], coefs: m.coefs[:0], terms: m.terms[:0], pre: m.pre}
	models.Put(m)
}

// NumVars returns the number of variables.
func (m *Model) NumVars() int { return m.prob.NumVars() }

// NumConstrs returns the number of constraint rows.
func (m *Model) NumConstrs() int { return m.prob.NumRows() }

// NumIntVars returns the number of integer-constrained variables.
func (m *Model) NumIntVars() int {
	n := 0
	for _, b := range m.isInt {
		if b {
			n++
		}
	}
	return n
}

// NewContinuous adds a continuous variable with bounds [lb, ub].
func (m *Model) NewContinuous(lb, ub float64) Var {
	m.isInt = append(m.isInt, false)
	return Var(m.prob.AddVar(lb, ub, 0))
}

// NewBinary adds a {0,1} variable.
func (m *Model) NewBinary() Var {
	m.isInt = append(m.isInt, true)
	return Var(m.prob.AddVar(0, 1, 0))
}

// NewInteger adds an integer variable with bounds [lb, ub].
func (m *Model) NewInteger(lb, ub float64) Var {
	m.isInt = append(m.isInt, true)
	return Var(m.prob.AddVar(lb, ub, 0))
}

// SetObjCoef sets the objective coefficient of v (minimization).
func (m *Model) SetObjCoef(v Var, c float64) { m.prob.SetObj(int(v), c) }

// AddObjConst adds a constant to the objective.
func (m *Model) AddObjConst(c float64) { m.objConst += c }

// Bounds returns the current bounds of v.
func (m *Model) Bounds(v Var) (lb, ub float64) { return m.prob.Bounds(int(v)) }

// SetBounds overrides the bounds of v.
func (m *Model) SetBounds(v Var, lb, ub float64) { m.prob.SetBounds(int(v), lb, ub) }

// addConstr converts terms into the model's reusable coefficient buffer
// and adds the row; AddConstr keeps no reference to its argument.
func (m *Model) addConstr(terms []Term, op simplex.ConstrOp, rhs float64) {
	cs := m.coefs[:0]
	for _, t := range terms {
		cs = append(cs, simplex.Coef{Var: int(t.Var), Coef: t.Coef})
	}
	m.coefs = cs
	m.prob.AddConstr(cs, op, rhs)
}

// AddLE adds sum(terms) <= rhs.
func (m *Model) AddLE(terms []Term, rhs float64) { m.addConstr(terms, simplex.LE, rhs) }

// AddGE adds sum(terms) >= rhs.
func (m *Model) AddGE(terms []Term, rhs float64) { m.addConstr(terms, simplex.GE, rhs) }

// AddEQ adds sum(terms) = rhs.
func (m *Model) AddEQ(terms []Term, rhs float64) { m.addConstr(terms, simplex.EQ, rhs) }

// NewAbsDeviation returns a fresh variable d constrained to satisfy
// d >= |expr - center| where expr is a linear expression. Minimizing d
// yields the absolute deviation. This is the standard linearization used
// for the Manhattan-distance objective of paper §4.3.
func (m *Model) NewAbsDeviation(expr []Term, center float64) Var {
	d := m.NewContinuous(0, simplex.Inf)
	// d - expr >= -center  (d >= expr - center)
	ts := append(m.terms[:0], Term{d, 1})
	for _, t := range expr {
		ts = append(ts, Term{t.Var, -t.Coef})
	}
	m.AddGE(ts, -center)
	// d + expr >= center   (d >= center - expr)
	ts = append(ts[:1], expr...)
	m.AddGE(ts, center)
	m.terms = ts
	return d
}

// Status reports the outcome of a solve.
type Status int

// Solve outcomes.
const (
	// Optimal: proven optimal integer solution.
	Optimal Status = iota
	// Infeasible: proven infeasible.
	Infeasible
	// Unbounded: LP relaxation unbounded.
	Unbounded
	// Limit: stopped at a node/time limit; Result.HasSolution tells
	// whether an incumbent was found (mirrors the paper's 1000-second
	// CPLEX timeout behaviour, §7.2).
	Limit
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
	case Limit:
		return "limit"
	}
	return "unknown"
}

// Options tunes the branch-and-bound search.
type Options struct {
	// TimeLimit bounds wall-clock search time (0 = none).
	TimeLimit time.Duration
	// MaxNodes bounds the number of explored nodes (0 = default 1e6).
	MaxNodes int
	// IntTol is the integrality tolerance (default 1e-6).
	IntTol float64
	// LP passes options to the underlying simplex solves.
	LP simplex.Options
	// Parallel explores branch-and-bound nodes with this many concurrent
	// LP workers (0 or 1 = sequential). Parallelism is speculative with
	// sequential semantics: a single deterministic driver pops nodes in
	// best-bound order (ties broken on node id) and makes every prune,
	// branch, and incumbent decision, while workers merely pre-solve the
	// LP relaxations of nodes still waiting in the heap. Results — the
	// solution, its objective, and the node/iteration counts — are
	// byte-identical at any Parallel setting.
	Parallel int
	// NoPresolve disables the root presolve (forced-variable fixing,
	// implied big-M bound tightening, redundant row dropping). It is the
	// identity-presolve reference the package's tests compare the
	// presolved search against: presolve preserves the feasible set
	// exactly, so it changes which solve is performed, never which
	// solutions exist. No engine path sets it.
	NoPresolve bool

	// Trace, when non-nil, is the parent span under which the solve
	// records its internals: one "presolve" span and one "nodes" span per
	// batch of consumed branch-and-bound nodes. Spans are created only by
	// the deterministic driver, so the trace's shape is byte-identical at
	// any Parallel setting (node consumption itself is). Nil disables
	// tracing at near-zero cost.
	Trace *obs.Span
}

func (o Options) withDefaults() Options {
	if o.MaxNodes <= 0 {
		o.MaxNodes = 1_000_000
	}
	if o.IntTol <= 0 {
		o.IntTol = 1e-6
	}
	return o
}

// Result of a solve.
type Result struct {
	Status      Status
	HasSolution bool
	// X holds variable values of the best integer solution (integer
	// variables snapped to exact integers). Valid iff HasSolution.
	X   []float64
	Obj float64
	// Nodes is the number of branch-and-bound nodes explored.
	Nodes int
	// LPIters is the total simplex iterations across all nodes.
	LPIters int
	// Refactorizations is the total basis refactorizations across all
	// consumed LP solves (sparse LU rebuilds; see simplex/factor.go).
	Refactorizations int
	// LPNumFails and LPIterLimits count the explored nodes whose LP
	// relaxation ended in simplex.NumFail or simplex.IterLimit. Such a
	// node's subtree is dropped unexplored, so either being nonzero is
	// why an otherwise unlimited search reports Limit.
	LPNumFails   int
	LPIterLimits int
	// NodeLimitHit and TimeLimitHit tell whether the search stopped on
	// Options.MaxNodes or on Options.TimeLimit; a Limit status with
	// neither set was caused by an LP exit.
	NodeLimitHit bool
	TimeLimitHit bool
	// PresolvedRows and PresolvedVars count constraint rows dropped and
	// variables fixed by the root presolve (zero under NoPresolve).
	PresolvedRows int
	PresolvedVars int
}
