package milp

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/simplex"
)

func TestKnapsack(t *testing.T) {
	// max 10a + 13b + 7c s.t. 3a + 4b + 2c <= 6, binaries.
	// Best: a+c (weight 5, value 17); b+c (6, 20) <- optimum.
	m := NewModel()
	a, b, c := m.NewBinary(), m.NewBinary(), m.NewBinary()
	m.SetObjCoef(a, -10)
	m.SetObjCoef(b, -13)
	m.SetObjCoef(c, -7)
	m.AddLE([]Term{{a, 3}, {b, 4}, {c, 2}}, 6)
	res := m.Solve(Options{})
	if res.Status != Optimal {
		t.Fatalf("status = %v", res.Status)
	}
	if math.Abs(res.Obj-(-20)) > 1e-6 {
		t.Errorf("obj = %v, want -20", res.Obj)
	}
	if res.X[int(a)] != 0 || res.X[int(b)] != 1 || res.X[int(c)] != 1 {
		t.Errorf("X = %v", res.X)
	}
}

func TestIntegerRounding(t *testing.T) {
	// min -x s.t. 2x <= 7, x integer in [0, 10] => x = 3 (LP gives 3.5).
	m := NewModel()
	x := m.NewInteger(0, 10)
	m.SetObjCoef(x, -1)
	m.AddLE([]Term{{x, 2}}, 7)
	res := m.Solve(Options{})
	if res.Status != Optimal || res.X[int(x)] != 3 {
		t.Errorf("res = %+v", res)
	}
}

func TestMixedIntegerContinuous(t *testing.T) {
	// min y s.t. y >= x - 2.5, y >= 2.5 - x, x integer in [0,5], y >= 0.
	// |x - 2.5| minimized at x in {2,3} => y = 0.5.
	m := NewModel()
	x := m.NewInteger(0, 5)
	y := m.NewAbsDeviation([]Term{{x, 1}}, 2.5)
	m.SetObjCoef(y, 1)
	res := m.Solve(Options{})
	if res.Status != Optimal || math.Abs(res.Obj-0.5) > 1e-6 {
		t.Errorf("res = %+v", res)
	}
	got := res.X[int(x)]
	if got != 2 && got != 3 {
		t.Errorf("x = %v", got)
	}
}

func TestInfeasibleInteger(t *testing.T) {
	// 2x = 3 with x integer: LP feasible (x=1.5) but no integer solution.
	m := NewModel()
	x := m.NewInteger(0, 10)
	m.AddEQ([]Term{{x, 2}}, 3)
	res := m.Solve(Options{})
	if res.Status != Infeasible {
		t.Errorf("status = %v, want infeasible", res.Status)
	}
}

func TestBinaryLogic(t *testing.T) {
	// x AND y = z encoded as z <= x, z <= y, z >= x + y - 1.
	// Force x=1, y=1, minimize -z => z must be 1.
	m := NewModel()
	x, y, z := m.NewBinary(), m.NewBinary(), m.NewBinary()
	m.AddLE([]Term{{z, 1}, {x, -1}}, 0)
	m.AddLE([]Term{{z, 1}, {y, -1}}, 0)
	m.AddGE([]Term{{z, 1}, {x, -1}, {y, -1}}, -1)
	m.AddEQ([]Term{{x, 1}}, 1)
	m.AddEQ([]Term{{y, 1}}, 1)
	m.SetObjCoef(z, -1)
	res := m.Solve(Options{})
	if res.Status != Optimal || res.X[int(z)] != 1 {
		t.Errorf("res = %+v", res)
	}
	// Now force x=0: z must be 0 even though we minimize -z.
	m2 := NewModel()
	x2, y2, z2 := m2.NewBinary(), m2.NewBinary(), m2.NewBinary()
	m2.AddLE([]Term{{z2, 1}, {x2, -1}}, 0)
	m2.AddLE([]Term{{z2, 1}, {y2, -1}}, 0)
	m2.AddGE([]Term{{z2, 1}, {x2, -1}, {y2, -1}}, -1)
	m2.AddEQ([]Term{{x2, 1}}, 0)
	m2.SetObjCoef(z2, -1)
	res2 := m2.Solve(Options{})
	if res2.Status != Optimal || res2.X[int(z2)] != 0 {
		t.Errorf("res2 = %+v", res2)
	}
}

func TestBigMIndicator(t *testing.T) {
	// The encoder's core gadget: y=1 <=> v <= 10 (with eps=1, M=1000).
	// v <= 10 + M(1-y); v >= 11 - M y. Force v=25, minimize y => y=0.
	const M = 1000
	m := NewModel()
	y := m.NewBinary()
	v := m.NewContinuous(-M, M)
	m.AddLE([]Term{{v, 1}, {y, M}}, 10+M) // v - M(1-y) <= 10
	m.AddGE([]Term{{v, 1}, {y, M}}, 11)   // v + My >= 11
	m.AddEQ([]Term{{v, 1}}, 25)
	m.SetObjCoef(y, 1)
	res := m.Solve(Options{})
	if res.Status != Optimal || res.X[int(y)] != 0 {
		t.Errorf("res = %+v", res)
	}
	// Force v=5: now y must be 1 (v <= 10 side).
	m2 := NewModel()
	y2 := m2.NewBinary()
	v2 := m2.NewContinuous(-M, M)
	m2.AddLE([]Term{{v2, 1}, {y2, M}}, 10+M)
	m2.AddGE([]Term{{v2, 1}, {y2, M}}, 11)
	m2.AddEQ([]Term{{v2, 1}}, 5)
	m2.SetObjCoef(y2, -1) // even preferring y=1 it must hold; also check feasibility both ways
	res2 := m2.Solve(Options{})
	if res2.Status != Optimal || res2.X[int(y2)] != 1 {
		t.Errorf("res2 = %+v", res2)
	}
}

func TestObjConst(t *testing.T) {
	m := NewModel()
	x := m.NewBinary()
	m.SetObjCoef(x, 1)
	m.AddObjConst(100)
	res := m.Solve(Options{})
	if res.Status != Optimal || math.Abs(res.Obj-100) > 1e-9 {
		t.Errorf("res = %+v", res)
	}
}

func TestNodeLimit(t *testing.T) {
	// A problem engineered to branch a lot: maximize sum of n binaries
	// subject to a fractional knapsack.
	m := NewModel()
	n := 14
	terms := make([]Term, n)
	for i := 0; i < n; i++ {
		b := m.NewBinary()
		m.SetObjCoef(b, -1)
		terms[i] = Term{b, 1.0 + 0.5/float64(i+1)}
	}
	m.AddLE(terms, float64(n)/2)
	res := m.Solve(Options{MaxNodes: 3})
	if res.Status != Limit {
		t.Errorf("status = %v, want limit", res.Status)
	}
	if res.Nodes > 4 {
		t.Errorf("nodes = %d", res.Nodes)
	}
}

func TestTimeLimit(t *testing.T) {
	m := NewModel()
	n := 16
	terms := make([]Term, n)
	for i := 0; i < n; i++ {
		b := m.NewBinary()
		m.SetObjCoef(b, -(1 + 1/float64(i+2)))
		terms[i] = Term{b, 1.0 + 0.37*float64(i%5)}
	}
	m.AddLE(terms, 7.3)
	start := time.Now()
	res := m.Solve(Options{TimeLimit: time.Millisecond})
	if time.Since(start) > 2*time.Second {
		t.Errorf("time limit ignored")
	}
	_ = res // status may be Optimal if solved within the limit
}

// TestLPTimeLimitEndsSearch: a node whose LP the deadline stopped ends
// the search as a time-limit stop, and its last iterate, which no solver
// certified, is neither branched on nor admitted as an incumbent —
// whether it looks fractional or integral.
func TestLPTimeLimitEndsSearch(t *testing.T) {
	m := NewModel()
	x, y := m.NewBinary(), m.NewBinary()
	m.SetObjCoef(x, -1)
	m.SetObjCoef(y, -1)
	m.AddLE([]Term{{x, 1}, {y, 1}}, 1.5)
	ps := identityPresolve(m.prob, m.isInt, &m.pre)
	for _, last := range [][]float64{{0.5, 1}, {1, 0}} {
		s := &search{ps: ps, opt: Options{}.withDefaults(), incObj: math.Inf(1)}
		s.cond = sync.NewCond(&s.mu)
		s.rootLB, s.rootUB = []float64{0, 0}, []float64{1, 1}
		sol := simplex.Solution{Status: simplex.TimeLimit, X: last, Obj: -1.5}
		if s.process(&node{}, sol, &nodeBasis{}, nil) {
			t.Errorf("last iterate %v: the search went on", last)
		}
		if !s.stopped || !s.timeLimit || s.nodeLimit {
			t.Errorf("last iterate %v: stopped %v, time limit %v, node limit %v; want a time-limit stop",
				last, s.stopped, s.timeLimit, s.nodeLimit)
		}
		if s.hasInc || len(s.nheap) != 0 {
			t.Errorf("last iterate %v: incumbent %v (%v), %d children queued; want neither",
				last, s.incumbent, s.hasInc, len(s.nheap))
		}
	}
}

func TestUnboundedMILP(t *testing.T) {
	m := NewModel()
	x := m.NewContinuous(0, math.Inf(1))
	m.SetObjCoef(x, -1)
	m.AddGE([]Term{{x, 1}}, 0)
	res := m.Solve(Options{})
	if res.Status != Unbounded {
		t.Errorf("status = %v, want unbounded", res.Status)
	}
}

func TestPureLPPassThrough(t *testing.T) {
	// No integer vars: one root node only.
	m := NewModel()
	x := m.NewContinuous(0, 10)
	m.SetObjCoef(x, -1)
	m.AddLE([]Term{{x, 2}}, 7)
	res := m.Solve(Options{})
	if res.Status != Optimal || math.Abs(res.Obj-(-3.5)) > 1e-9 || res.Nodes != 1 {
		t.Errorf("res = %+v", res)
	}
}

// bruteForceBinary enumerates all assignments of the binaries and returns
// the best objective (math.Inf(1) if none feasible). Continuous vars are
// not supported — the property test uses pure binary problems.
func bruteForceBinary(nVars int, constrs []struct {
	terms []Term
	op    int // 0 LE, 1 GE, 2 EQ
	rhs   float64
}, obj []float64) float64 {
	best := math.Inf(1)
	for mask := 0; mask < 1<<nVars; mask++ {
		x := make([]float64, nVars)
		for j := 0; j < nVars; j++ {
			if mask&(1<<j) != 0 {
				x[j] = 1
			}
		}
		ok := true
		for _, c := range constrs {
			lhs := 0.0
			for _, tm := range c.terms {
				lhs += tm.Coef * x[int(tm.Var)]
			}
			switch c.op {
			case 0:
				ok = ok && lhs <= c.rhs+1e-9
			case 1:
				ok = ok && lhs >= c.rhs-1e-9
			default:
				ok = ok && math.Abs(lhs-c.rhs) <= 1e-9
			}
		}
		if !ok {
			continue
		}
		v := 0.0
		for j := range x {
			v += obj[j] * x[j]
		}
		if v < best {
			best = v
		}
	}
	return best
}

// Property: on random pure-binary problems, branch-and-bound matches
// exhaustive enumeration exactly (both objective value and feasibility).
func TestQuickBinaryVsBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nv := rng.Intn(6) + 2
		nc := rng.Intn(5) + 1
		m := NewModel()
		obj := make([]float64, nv)
		for j := 0; j < nv; j++ {
			b := m.NewBinary()
			obj[j] = float64(rng.Intn(21) - 10)
			m.SetObjCoef(b, obj[j])
		}
		var constrs []struct {
			terms []Term
			op    int
			rhs   float64
		}
		for i := 0; i < nc; i++ {
			var terms []Term
			for j := 0; j < nv; j++ {
				if rng.Intn(2) == 0 {
					terms = append(terms, Term{Var(j), float64(rng.Intn(9) - 4)})
				}
			}
			if terms == nil {
				terms = []Term{{Var(rng.Intn(nv)), 1}}
			}
			op := rng.Intn(3)
			rhs := float64(rng.Intn(11) - 5)
			switch op {
			case 0:
				m.AddLE(terms, rhs)
			case 1:
				m.AddGE(terms, rhs)
			default:
				m.AddEQ(terms, rhs)
			}
			constrs = append(constrs, struct {
				terms []Term
				op    int
				rhs   float64
			}{terms, op, rhs})
		}
		want := bruteForceBinary(nv, constrs, obj)
		res := m.Solve(Options{})
		if math.IsInf(want, 1) {
			return res.Status == Infeasible
		}
		if res.Status != Optimal {
			t.Logf("seed %d: status %v, want optimal(%v)", seed, res.Status, want)
			return false
		}
		if math.Abs(res.Obj-want) > 1e-6 {
			t.Logf("seed %d: obj %v, brute force %v", seed, res.Obj, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: random mixed problems with a known integer-feasible point are
// never declared infeasible and never return a worse objective.
func TestQuickMixedKnownPoint(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nb := rng.Intn(4) + 1
		ncont := rng.Intn(3) + 1
		m := NewModel()
		x0 := make([]float64, nb+ncont)
		obj := make([]float64, nb+ncont)
		for j := 0; j < nb; j++ {
			m.NewBinary()
			x0[j] = float64(rng.Intn(2))
			obj[j] = float64(rng.Intn(11) - 5)
			m.SetObjCoef(Var(j), obj[j])
		}
		for j := nb; j < nb+ncont; j++ {
			x0[j] = float64(rng.Intn(11) - 5)
			m.NewContinuous(x0[j]-float64(rng.Intn(4)), x0[j]+float64(rng.Intn(4)))
			obj[j] = float64(rng.Intn(7) - 3)
			m.SetObjCoef(Var(j), obj[j])
		}
		for i := 0; i < rng.Intn(5); i++ {
			var terms []Term
			lhs := 0.0
			for j := 0; j < nb+ncont; j++ {
				c := float64(rng.Intn(7) - 3)
				if c != 0 {
					terms = append(terms, Term{Var(j), c})
					lhs += c * x0[j]
				}
			}
			if terms == nil {
				continue
			}
			switch rng.Intn(3) {
			case 0:
				m.AddLE(terms, lhs+float64(rng.Intn(4)))
			case 1:
				m.AddGE(terms, lhs-float64(rng.Intn(4)))
			default:
				m.AddEQ(terms, lhs)
			}
		}
		x0Obj := 0.0
		for j := range x0 {
			x0Obj += obj[j] * x0[j]
		}
		res := m.Solve(Options{})
		if res.Status != Optimal {
			t.Logf("seed %d: status %v with known point", seed, res.Status)
			return false
		}
		if res.Obj > x0Obj+1e-6 {
			t.Logf("seed %d: obj %v worse than known %v", seed, res.Obj, x0Obj)
			return false
		}
		// Integer vars must be integral.
		for j := 0; j < nb; j++ {
			if res.X[j] != math.Round(res.X[j]) {
				t.Logf("seed %d: non-integral binary %v", seed, res.X[j])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestModelAccessors(t *testing.T) {
	m := NewModel()
	b := m.NewBinary()
	c := m.NewContinuous(0, 5)
	i := m.NewInteger(-3, 3)
	if m.NumVars() != 3 || m.NumIntVars() != 2 {
		t.Errorf("NumVars=%d NumIntVars=%d", m.NumVars(), m.NumIntVars())
	}
	m.AddLE([]Term{{b, 1}, {c, 1}, {i, 1}}, 5)
	if m.NumConstrs() != 1 {
		t.Errorf("NumConstrs=%d", m.NumConstrs())
	}
	if lb, ub := m.Bounds(i); lb != -3 || ub != 3 {
		t.Errorf("Bounds = %v,%v", lb, ub)
	}
	m.SetBounds(i, 0, 2)
	if lb, ub := m.Bounds(i); lb != 0 || ub != 2 {
		t.Errorf("Bounds after set = %v,%v", lb, ub)
	}
}

// TestLPGiveUpsAreCounted: a node whose LP runs out of iterations stops
// the search as Limit, and the result says which exit it was.
func TestLPGiveUpsAreCounted(t *testing.T) {
	build := func() *Model {
		m := NewModel()
		a, b, c := m.NewBinary(), m.NewBinary(), m.NewBinary()
		m.SetObjCoef(a, -10)
		m.SetObjCoef(b, -13)
		m.SetObjCoef(c, -7)
		m.AddLE([]Term{{a, 3}, {b, 4}, {c, 2}}, 6)
		return m
	}
	res := build().Solve(Options{NoPresolve: true})
	if res.Status != Optimal || res.LPNumFails != 0 || res.LPIterLimits != 0 {
		t.Fatalf("unlimited solve: status %v numfails %d iterlimits %d", res.Status, res.LPNumFails, res.LPIterLimits)
	}
	opt := Options{NoPresolve: true}
	opt.LP.MaxIters = 1 // the root relaxation needs more than one pivot
	res = build().Solve(opt)
	if res.Status != Limit || res.LPIterLimits != 1 || res.LPNumFails != 0 {
		t.Fatalf("one-iteration LPs: status %v numfails %d iterlimits %d", res.Status, res.LPNumFails, res.LPIterLimits)
	}
}

// Regression: the incumbent's objective must be recomputed from the
// integer-snapped X, not copied from the unrounded LP iterate. Here the
// LP optimum sits 1e-7 below an integer with a 1e6 objective weight, so
// the rounding moves the true objective 0.1 past the pruning gap (1e-9):
// the buggy path stored Obj = 1999999.9 for X = [2].
func TestIncumbentObjectiveRecomputedFromSnappedX(t *testing.T) {
	m := NewModel()
	x := m.NewInteger(0, 5)
	m.SetObjCoef(x, 1e6)
	m.AddGE([]Term{{x, 1}}, 2-1e-7)

	res := m.Solve(Options{})
	if res.Status != Optimal || !res.HasSolution {
		t.Fatalf("solve: %+v", res)
	}
	if res.X[x] != 2 {
		t.Fatalf("X = %v, want exactly 2", res.X[x])
	}
	if math.Abs(res.Obj-2e6) > 1e-6 {
		t.Fatalf("Obj = %v, want 2e6 (objective priced on the snapped point)", res.Obj)
	}
}

// Regression: a snapped incumbent that violates a tight constraint must
// be rejected and the search must keep branching instead of returning an
// infeasible "optimal" point. With IntTol=1e-3 the LP optimum 1.9995 is
// within snapping distance of 2, but x=2 violates x <= 1.9995 by 5e-4 —
// far beyond the residual tolerance. The true integer optimum is x=1.
func TestSnappedIncumbentFeasibilityChecked(t *testing.T) {
	m := NewModel()
	x := m.NewInteger(0, 5)
	m.SetObjCoef(x, -1)
	m.AddLE([]Term{{x, 1}}, 1.9995)

	res := m.Solve(Options{IntTol: 1e-3})
	if res.Status != Optimal || !res.HasSolution {
		t.Fatalf("solve: %+v", res)
	}
	if res.X[x] != 1 {
		t.Fatalf("X = %v, want 1 (x=2 violates the row and must not be admitted)", res.X[x])
	}
	if math.Abs(res.Obj-(-1)) > 1e-9 {
		t.Fatalf("Obj = %v, want -1", res.Obj)
	}
}
