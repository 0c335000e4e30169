package simplex

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func solveOK(t *testing.T, p *Problem) Solution {
	t.Helper()
	sol := p.Solve(Options{})
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	return sol
}

func TestBasicMaximization(t *testing.T) {
	// max 3x + 2y  s.t. x + y <= 4, x + 3y <= 6, x,y >= 0
	// => min -3x - 2y; optimum at (4, 0) with value -12.
	p := NewProblem()
	x := p.AddVar(0, Inf, -3)
	y := p.AddVar(0, Inf, -2)
	p.AddConstr([]Coef{{x, 1}, {y, 1}}, LE, 4)
	p.AddConstr([]Coef{{x, 1}, {y, 3}}, LE, 6)
	sol := solveOK(t, p)
	if math.Abs(sol.Obj-(-12)) > 1e-6 {
		t.Errorf("obj = %v, want -12", sol.Obj)
	}
	if math.Abs(sol.X[x]-4) > 1e-6 || math.Abs(sol.X[y]) > 1e-6 {
		t.Errorf("x = %v", sol.X)
	}
}

func TestPhase1Needed(t *testing.T) {
	// min x + y  s.t. x + y >= 10, x <= 7, y <= 7, x,y >= 0.
	// Slack basis is infeasible (0 >= 10 fails); optimum value 10.
	p := NewProblem()
	x := p.AddVar(0, 7, 1)
	y := p.AddVar(0, 7, 1)
	p.AddConstr([]Coef{{x, 1}, {y, 1}}, GE, 10)
	sol := solveOK(t, p)
	if math.Abs(sol.Obj-10) > 1e-6 {
		t.Errorf("obj = %v, want 10", sol.Obj)
	}
	if sol.X[x]+sol.X[y] < 10-1e-6 {
		t.Errorf("constraint violated: %v", sol.X)
	}
}

func TestEqualityConstraint(t *testing.T) {
	// min 2x + 3y  s.t. x + y = 5, x - y <= 1, x,y >= 0.
	// Optimum: push x up to x-y=1 -> x=3,y=2 => 6+6=12.
	p := NewProblem()
	x := p.AddVar(0, Inf, 2)
	y := p.AddVar(0, Inf, 3)
	p.AddConstr([]Coef{{x, 1}, {y, 1}}, EQ, 5)
	p.AddConstr([]Coef{{x, 1}, {y, -1}}, LE, 1)
	sol := solveOK(t, p)
	if math.Abs(sol.Obj-12) > 1e-6 {
		t.Errorf("obj = %v, want 12 (x=%v)", sol.Obj, sol.X)
	}
}

func TestInfeasible(t *testing.T) {
	p := NewProblem()
	x := p.AddVar(0, 10, 1)
	p.AddConstr([]Coef{{x, 1}}, GE, 20)
	if sol := p.Solve(Options{}); sol.Status != Infeasible {
		t.Errorf("status = %v, want infeasible", sol.Status)
	}

	// Contradictory equalities.
	p2 := NewProblem()
	a := p2.AddVar(math.Inf(-1), Inf, 0)
	b := p2.AddVar(math.Inf(-1), Inf, 0)
	p2.AddConstr([]Coef{{a, 1}, {b, 1}}, EQ, 1)
	p2.AddConstr([]Coef{{a, 1}, {b, 1}}, EQ, 2)
	if sol := p2.Solve(Options{}); sol.Status != Infeasible {
		t.Errorf("status = %v, want infeasible", sol.Status)
	}
}

func TestUnbounded(t *testing.T) {
	// min -x with x >= 0 unconstrained above.
	p := NewProblem()
	x := p.AddVar(0, Inf, -1)
	p.AddConstr([]Coef{{x, -1}}, LE, 0) // -x <= 0, redundant
	if sol := p.Solve(Options{}); sol.Status != Unbounded {
		t.Errorf("status = %v, want unbounded", sol.Status)
	}
}

func TestFreeVariables(t *testing.T) {
	// min x + 2y, x free, y free; x + y >= 3; x - y = 1.
	// => x = 2 + t... solving: x - y = 1, x + y >= 3 -> x = y+1, 2y+1 >= 3
	// -> y >= 1. obj = y+1+2y = 3y + 1, min at y=1 => 4, x=2.
	p := NewProblem()
	x := p.AddVar(math.Inf(-1), Inf, 1)
	y := p.AddVar(math.Inf(-1), Inf, 2)
	p.AddConstr([]Coef{{x, 1}, {y, 1}}, GE, 3)
	p.AddConstr([]Coef{{x, 1}, {y, -1}}, EQ, 1)
	sol := solveOK(t, p)
	if math.Abs(sol.Obj-4) > 1e-6 || math.Abs(sol.X[x]-2) > 1e-6 {
		t.Errorf("obj=%v x=%v", sol.Obj, sol.X)
	}
}

func TestNegativeBounds(t *testing.T) {
	// min x with x in [-5, -1] and x >= -3 via row.
	p := NewProblem()
	x := p.AddVar(-5, -1, 1)
	p.AddConstr([]Coef{{x, 1}}, GE, -3)
	sol := solveOK(t, p)
	if math.Abs(sol.X[x]-(-3)) > 1e-6 {
		t.Errorf("x = %v, want -3", sol.X[x])
	}
}

func TestFixedVariable(t *testing.T) {
	// Fixed var participates in constraints as a constant.
	p := NewProblem()
	x := p.AddVar(7, 7, 0)
	y := p.AddVar(0, Inf, 1)
	p.AddConstr([]Coef{{x, 1}, {y, 1}}, GE, 10)
	sol := solveOK(t, p)
	if math.Abs(sol.X[y]-3) > 1e-6 {
		t.Errorf("y = %v, want 3", sol.X[y])
	}
}

func TestBoundFlipPath(t *testing.T) {
	// Boxed variables where the optimum sits at upper bounds; the solver
	// should reach it (often via bound flips, which we can't observe
	// directly, but the answer must be right).
	p := NewProblem()
	x := p.AddVar(0, 2, -1)
	y := p.AddVar(0, 3, -1)
	p.AddConstr([]Coef{{x, 1}, {y, 1}}, LE, 10) // non-binding
	sol := solveOK(t, p)
	if math.Abs(sol.Obj-(-5)) > 1e-6 {
		t.Errorf("obj = %v, want -5", sol.Obj)
	}
}

func TestDegenerateLP(t *testing.T) {
	// Classic degenerate vertex: multiple constraints meet at origin.
	p := NewProblem()
	x := p.AddVar(0, Inf, -1)
	y := p.AddVar(0, Inf, -1)
	p.AddConstr([]Coef{{x, 1}}, LE, 0)
	p.AddConstr([]Coef{{x, 1}, {y, 1}}, LE, 0)
	p.AddConstr([]Coef{{x, 2}, {y, 1}}, LE, 0)
	sol := solveOK(t, p)
	if math.Abs(sol.Obj) > 1e-6 {
		t.Errorf("obj = %v, want 0", sol.Obj)
	}
}

func TestBigMScale(t *testing.T) {
	// Mimics encoder constraints: big-M rows with binary-like [0,1] vars.
	p := NewProblem()
	const M = 1e5
	x := p.AddVar(0, 1, 0)                        // relaxed binary
	v := p.AddVar(-M, M, 0)                       // value
	d := p.AddVar(0, Inf, 1)                      // |v - 42|
	p.AddConstr([]Coef{{v, 1}, {x, -M}}, LE, 0)   // v <= M x
	p.AddConstr([]Coef{{v, 1}, {x, M}}, GE, 0)    // v >= -M x
	p.AddConstr([]Coef{{d, 1}, {v, -1}}, GE, -42) // d >= v - 42
	p.AddConstr([]Coef{{d, 1}, {v, 1}}, GE, 42)   // d >= 42 - v
	p.AddConstr([]Coef{{x, 1}}, EQ, 1)
	sol := solveOK(t, p)
	if math.Abs(sol.Obj) > 1e-5 {
		t.Errorf("obj = %v, want 0 (v free to be 42 when x=1)", sol.Obj)
	}
}

func TestRedundantRows(t *testing.T) {
	p := NewProblem()
	x := p.AddVar(0, Inf, 1)
	for i := 0; i < 10; i++ {
		p.AddConstr([]Coef{{x, 1}}, GE, 5)
	}
	sol := solveOK(t, p)
	if math.Abs(sol.X[x]-5) > 1e-6 {
		t.Errorf("x = %v", sol.X[x])
	}
}

func TestDuplicateTermsMerged(t *testing.T) {
	p := NewProblem()
	x := p.AddVar(0, Inf, 1)
	p.AddConstr([]Coef{{x, 1}, {x, 2}}, GE, 9) // 3x >= 9
	sol := solveOK(t, p)
	if math.Abs(sol.X[x]-3) > 1e-6 {
		t.Errorf("x = %v, want 3", sol.X[x])
	}
}

func TestIterLimit(t *testing.T) {
	p := NewProblem()
	x := p.AddVar(0, Inf, 1)
	p.AddConstr([]Coef{{x, 1}}, GE, 5)
	sol := p.Solve(Options{MaxIters: 1})
	if sol.Status != IterLimit && sol.Status != Optimal {
		t.Errorf("status = %v", sol.Status)
	}
}

// feasible checks a candidate point against all rows and bounds.
func feasible(p *Problem, x []float64, tol float64) bool {
	for j := range x {
		if x[j] < p.lb[j]-tol || x[j] > p.ub[j]+tol {
			return false
		}
	}
	lhs := make([]float64, len(p.rhs))
	for j, col := range p.cols {
		for _, e := range col {
			lhs[e.row] += e.coef * x[j]
		}
	}
	for i := range p.rhs {
		switch p.ops[i] {
		case LE:
			if lhs[i] > p.rhs[i]+tol {
				return false
			}
		case GE:
			if lhs[i] < p.rhs[i]-tol {
				return false
			}
		case EQ:
			if math.Abs(lhs[i]-p.rhs[i]) > tol {
				return false
			}
		}
	}
	return true
}

func objOf(p *Problem, x []float64) float64 {
	v := 0.0
	for j := range x {
		v += p.obj[j] * x[j]
	}
	return v
}

// randomLP builds a random boxed LP with nv vars and nc rows.
func randomLP(rng *rand.Rand, nv, nc int) *Problem {
	p := NewProblem()
	for j := 0; j < nv; j++ {
		lb := float64(rng.Intn(11) - 5)
		ub := lb + float64(rng.Intn(10))
		p.AddVar(lb, ub, float64(rng.Intn(11)-5))
	}
	for i := 0; i < nc; i++ {
		var terms []Coef
		for j := 0; j < nv; j++ {
			if rng.Intn(2) == 0 {
				terms = append(terms, Coef{j, float64(rng.Intn(9) - 4)})
			}
		}
		if len(terms) == 0 {
			terms = append(terms, Coef{rng.Intn(nv), 1})
		}
		op := []ConstrOp{LE, GE, EQ}[rng.Intn(3)]
		p.AddConstr(terms, op, float64(rng.Intn(21)-10))
	}
	return p
}

// Property: on random boxed LPs, (1) an "optimal" answer is feasible and
// not beaten by any sampled feasible point; (2) an "infeasible" answer
// is corroborated by finding no feasible sample.
func TestQuickRandomLPs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nv := rng.Intn(4) + 1
		nc := rng.Intn(5)
		p := randomLP(rng, nv, nc)
		sol := p.Solve(Options{})
		switch sol.Status {
		case Optimal:
			if !feasible(p, sol.X, 1e-5) {
				t.Logf("seed %d: optimal point infeasible: %v", seed, sol.X)
				return false
			}
			// Random feasible samples must not beat the optimum.
			for k := 0; k < 300; k++ {
				x := make([]float64, nv)
				for j := range x {
					lo, hi := p.lb[j], p.ub[j]
					x[j] = lo + rng.Float64()*(hi-lo)
				}
				if feasible(p, x, 1e-9) && objOf(p, x) < sol.Obj-1e-5 {
					t.Logf("seed %d: sample beats optimum: %v < %v", seed, objOf(p, x), sol.Obj)
					return false
				}
			}
			return true
		case Infeasible:
			for k := 0; k < 300; k++ {
				x := make([]float64, nv)
				for j := range x {
					lo, hi := p.lb[j], p.ub[j]
					x[j] = lo + rng.Float64()*(hi-lo)
				}
				if feasible(p, x, 1e-7) {
					t.Logf("seed %d: infeasible verdict but sample feasible", seed)
					return false
				}
			}
			return true
		case Unbounded:
			return true // boxed vars: can only stem from EQ-free rows; accept
		default:
			t.Logf("seed %d: status %v", seed, sol.Status)
			return false
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}

// Property: LPs built around a known feasible point are never declared
// infeasible, and the optimum is at least as good as that point.
func TestQuickKnownFeasiblePoint(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nv := rng.Intn(5) + 1
		x0 := make([]float64, nv)
		p := NewProblem()
		for j := 0; j < nv; j++ {
			x0[j] = float64(rng.Intn(21) - 10)
			p.AddVar(x0[j]-float64(rng.Intn(5)), x0[j]+float64(rng.Intn(5)),
				float64(rng.Intn(11)-5))
		}
		// Rows are built to hold at x0.
		for i := 0; i < rng.Intn(6); i++ {
			var terms []Coef
			lhs := 0.0
			for j := 0; j < nv; j++ {
				c := float64(rng.Intn(9) - 4)
				if c != 0 {
					terms = append(terms, Coef{j, c})
					lhs += c * x0[j]
				}
			}
			if terms == nil {
				continue
			}
			switch rng.Intn(3) {
			case 0:
				p.AddConstr(terms, LE, lhs+float64(rng.Intn(5)))
			case 1:
				p.AddConstr(terms, GE, lhs-float64(rng.Intn(5)))
			default:
				p.AddConstr(terms, EQ, lhs)
			}
		}
		sol := p.Solve(Options{})
		if sol.Status != Optimal {
			t.Logf("seed %d: status %v with known feasible point", seed, sol.Status)
			return false
		}
		if !feasible(p, sol.X, 1e-5) {
			t.Logf("seed %d: solution infeasible", seed)
			return false
		}
		if sol.Obj > objOf(p, x0)+1e-6 {
			t.Logf("seed %d: optimum %v worse than known point %v", seed, sol.Obj, objOf(p, x0))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}

func TestBoundsAPIs(t *testing.T) {
	p := NewProblem()
	x := p.AddVar(0, 5, 1)
	if lb, ub := p.Bounds(x); lb != 0 || ub != 5 {
		t.Errorf("Bounds = %v,%v", lb, ub)
	}
	p.SetBounds(x, 1, 2)
	p.SetObj(x, -1)
	p.AddConstr([]Coef{{x, 1}}, LE, 100)
	sol := solveOK(t, p)
	if math.Abs(sol.X[x]-2) > 1e-9 {
		t.Errorf("x = %v, want 2 after SetBounds", sol.X[x])
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("reversed bounds accepted")
			}
		}()
		p.SetBounds(x, 3, 1)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("unknown var in constraint accepted")
			}
		}()
		p.AddConstr([]Coef{{99, 1}}, LE, 0)
	}()
}

// TestDeadline: a Solver whose deadline has passed stops with TimeLimit
// at its first look at the clock, before any pivot, and one whose
// deadline is far off pivots and answers bit for bit as a Solver with
// none (a captured encoder node of 119 basis changes).
func TestDeadline(t *testing.T) {
	p, _ := loadEncoderNode(t)
	want := NewSolver(p, Options{}).Solve()
	ws := NewSolver(p, Options{})
	ws.SetDeadline(time.Now().Add(-time.Second))
	if sol := ws.Solve(); sol.Status != TimeLimit || sol.Iters != 0 {
		t.Fatalf("past deadline: status %v after %d iterations, want %v after 0", sol.Status, sol.Iters, TimeLimit)
	}
	ws.Reset()
	ws.SetDeadline(time.Now().Add(time.Hour))
	got := ws.Solve()
	if got.Status != want.Status || got.Iters != want.Iters || math.Float64bits(got.Obj) != math.Float64bits(want.Obj) {
		t.Fatalf("far deadline: %v after %d iterations, objective %v; without one %v after %d, %v",
			got.Status, got.Iters, got.Obj, want.Status, want.Iters, want.Obj)
	}
	for j := range want.X {
		if math.Float64bits(got.X[j]) != math.Float64bits(want.X[j]) {
			t.Fatalf("far deadline: x[%d] = %v, without one %v", j, got.X[j], want.X[j])
		}
	}
}
