package milp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestPresolveForcedBinaries: a chain of linking rows forces every
// binary to a single value; presolve must fix them all and the solve
// must agree with the unpresolved answer.
func TestPresolveForcedBinaries(t *testing.T) {
	build := func() *Model {
		m := NewModel()
		a, b, c := m.NewBinary(), m.NewBinary(), m.NewBinary()
		x := m.NewContinuous(0, 10)
		m.SetObjCoef(x, 1)
		m.AddGE([]Term{{a, 1}}, 1)            // a = 1
		m.AddLE([]Term{{a, 1}, {b, 1}}, 1)    // then b = 0
		m.AddGE([]Term{{b, 1}, {c, 1}}, 1)    // then c = 1
		m.AddGE([]Term{{x, 1}, {c, -3}}, 0)   // x >= 3c
		m.AddLE([]Term{{x, 1}, {b, 100}}, 10) // inactive big-M
		return m
	}
	on := build().Solve(Options{})
	off := build().Solve(Options{NoPresolve: true})
	if on.Status != Optimal || off.Status != Optimal {
		t.Fatalf("status on=%v off=%v", on.Status, off.Status)
	}
	if on.PresolvedVars < 3 {
		t.Fatalf("expected all 3 forced binaries fixed, got PresolvedVars=%d", on.PresolvedVars)
	}
	if math.Abs(on.Obj-off.Obj) > 1e-6 {
		t.Fatalf("objective drift: on=%v off=%v", on.Obj, off.Obj)
	}
	for j := range on.X {
		if math.Abs(on.X[j]-off.X[j]) > 1e-6 {
			t.Fatalf("X[%d]: on=%v off=%v", j, on.X[j], off.X[j])
		}
	}
	if off.PresolvedRows != 0 || off.PresolvedVars != 0 {
		t.Fatalf("NoPresolve reported reductions: %+v", off)
	}
}

// TestPresolveInfeasibleRow: the encoder emits literal "0 = 1" rows for
// unsatisfiable instances (addInfeasibleRow); presolve must prove
// infeasibility without a single LP.
func TestPresolveInfeasibleRow(t *testing.T) {
	m := NewModel()
	m.NewBinary()
	m.AddEQ(nil, 1)
	res := m.Solve(Options{})
	if res.Status != Infeasible {
		t.Fatalf("got %v, want infeasible", res.Status)
	}
	if res.Nodes != 0 {
		t.Fatalf("presolve should prove infeasibility before search, explored %d nodes", res.Nodes)
	}
}

// TestPresolveRedundantRows: rows satisfied at every point of the bound
// box must be dropped.
func TestPresolveRedundantRows(t *testing.T) {
	m := NewModel()
	x := m.NewContinuous(0, 5)
	y := m.NewContinuous(0, 5)
	m.SetObjCoef(x, 1)
	m.SetObjCoef(y, 2)
	m.AddLE([]Term{{x, 1}, {y, 1}}, 100) // max activity 10 <= 100: redundant
	m.AddGE([]Term{{x, 1}, {y, 1}}, -3)  // min activity 0 >= -3: redundant
	m.AddGE([]Term{{x, 1}, {y, 1}}, 4)   // binding
	res := m.Solve(Options{})
	if res.Status != Optimal {
		t.Fatalf("status %v", res.Status)
	}
	if res.PresolvedRows < 2 {
		t.Fatalf("expected both redundant rows dropped, got PresolvedRows=%d", res.PresolvedRows)
	}
	if math.Abs(res.Obj-4) > 1e-6 { // x=4, y=0
		t.Fatalf("obj %v, want 4", res.Obj)
	}
}

// TestPresolveTightensBigM: an indicator row with a forced binary must
// shrink the companion variable's big-M bound.
func TestPresolveTightensBigM(t *testing.T) {
	m := NewModel()
	b := m.NewBinary()
	x := m.NewContinuous(0, 1e7)           // big-M style bound
	m.SetObjCoef(x, -1)                    // maximize x
	m.AddLE([]Term{{b, 1}}, 0)             // b = 0
	m.AddLE([]Term{{x, 1}, {b, -1e7}}, 25) // x <= 25 + 1e7 b
	res := m.Solve(Options{})
	if res.Status != Optimal {
		t.Fatalf("status %v", res.Status)
	}
	if math.Abs(res.Obj-(-25)) > 1e-5 {
		t.Fatalf("obj %v, want -25", res.Obj)
	}
	if res.PresolvedVars < 1 {
		t.Fatalf("forced binary not fixed: %+v", res)
	}
}

// randomMILP builds a random bounded integer program with distinct
// float objective coefficients (so the optimum is almost surely unique
// and cross-configuration comparisons are byte-exact).
func randomMILP(rng *rand.Rand) *Model {
	m := NewModel()
	nInt, nCont := 6+rng.Intn(5), 3+rng.Intn(3)
	vars := make([]Var, 0, nInt+nCont)
	for i := 0; i < nInt; i++ {
		v := m.NewInteger(0, float64(3+rng.Intn(5)))
		m.SetObjCoef(v, 1+rng.Float64())
		vars = append(vars, v)
	}
	for i := 0; i < nCont; i++ {
		v := m.NewContinuous(0, 50)
		m.SetObjCoef(v, 0.1+rng.Float64()/10)
		vars = append(vars, v)
	}
	rows := 4 + rng.Intn(5)
	for r := 0; r < rows; r++ {
		terms := make([]Term, 0, 4)
		for _, v := range vars {
			if rng.Float64() < 0.4 {
				terms = append(terms, Term{v, float64(1 + rng.Intn(3))})
			}
		}
		if len(terms) == 0 {
			continue
		}
		m.AddGE(terms, float64(5+rng.Intn(15)))
	}
	return m
}

func sameResult(t *testing.T, label string, a, b Result) {
	t.Helper()
	if a.Status != b.Status || a.HasSolution != b.HasSolution {
		t.Fatalf("%s: status %v/%v has %v/%v", label, a.Status, b.Status, a.HasSolution, b.HasSolution)
	}
	if a.HasSolution {
		if a.Obj != b.Obj {
			t.Fatalf("%s: obj %v != %v", label, a.Obj, b.Obj)
		}
		for j := range a.X {
			if a.X[j] != b.X[j] {
				t.Fatalf("%s: X[%d] %v != %v", label, j, a.X[j], b.X[j])
			}
		}
	}
}

// TestParallelSearchDeterministic: for any Parallel setting the search
// must return the byte-identical result AND the identical node and
// iteration counts — parallelism is speculative, the adjudication is
// sequential.
func TestParallelSearchDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		seed := rng.Int63()
		base := randomMILP(rand.New(rand.NewSource(seed))).Solve(Options{Parallel: 1})
		for _, par := range []int{2, 4, 8} {
			got := randomMILP(rand.New(rand.NewSource(seed))).Solve(Options{Parallel: par})
			sameResult(t, "parallel", base, got)
			if got.Nodes != base.Nodes || got.LPIters != base.LPIters || got.Refactorizations != base.Refactorizations {
				t.Fatalf("trial %d Parallel=%d: stats diverged: nodes %d/%d iters %d/%d refac %d/%d",
					trial, par, got.Nodes, base.Nodes, got.LPIters, base.LPIters,
					got.Refactorizations, base.Refactorizations)
			}
		}
		// Repeated runs at the same setting must be identical too.
		again := randomMILP(rand.New(rand.NewSource(seed))).Solve(Options{Parallel: 4})
		sameResult(t, "rerun", base, again)
	}
}

// randomMILP2 is the adversarial cousin of randomMILP: EQ rows, mixed
// coefficient signs, big-M-scaled terms, and wide continuous bounds —
// the structures the encoder actually emits and the shapes that caught
// the thin-interval presolve bug (a singleton EQ row -500x = 18 whose
// implied bounds pinned x to a 2e-9-wide box the LP could not enter;
// see minCWidth in presolve.go).
func randomMILP2(rng *rand.Rand) *Model {
	m := NewModel()
	n := 4 + rng.Intn(5)
	vars := make([]Var, 0, n)
	for i := 0; i < n; i++ {
		switch rng.Intn(3) {
		case 0:
			v := m.NewBinary()
			m.SetObjCoef(v, rng.Float64()*4-1)
			vars = append(vars, v)
		case 1:
			v := m.NewInteger(float64(-2-rng.Intn(4)), float64(2+rng.Intn(6)))
			m.SetObjCoef(v, rng.Float64()*4-2)
			vars = append(vars, v)
		default:
			v := m.NewContinuous(float64(-rng.Intn(20)), float64(5+rng.Intn(1000)))
			m.SetObjCoef(v, rng.Float64()*2)
			vars = append(vars, v)
		}
	}
	rows := 3 + rng.Intn(6)
	for r := 0; r < rows; r++ {
		terms := make([]Term, 0, 4)
		for _, v := range vars {
			if rng.Float64() < 0.5 {
				c := float64(1 + rng.Intn(5))
				if rng.Float64() < 0.4 {
					c = -c
				}
				if rng.Float64() < 0.2 {
					c *= 100 // big-M style
				}
				terms = append(terms, Term{v, c})
			}
		}
		if len(terms) == 0 {
			continue
		}
		rhs := float64(rng.Intn(30) - 10)
		switch rng.Intn(3) {
		case 0:
			m.AddLE(terms, rhs)
		case 1:
			m.AddGE(terms, rhs)
		default:
			m.AddEQ(terms, rhs)
		}
	}
	return m
}

// TestPresolveFuzzMixedSigns cross-checks presolve on/off over
// adversarial random models: statuses must agree and objectives must
// match to LP tolerance (relative — big-M activities amplify residual
// noise into the 1e-6 absolute range).
func TestPresolveFuzzMixedSigns(t *testing.T) {
	trials := 10000
	if testing.Short() {
		trials = 1000
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < trials; trial++ {
		seed := rng.Int63()
		on := randomMILP2(rand.New(rand.NewSource(seed))).Solve(Options{MaxNodes: 50000})
		off := randomMILP2(rand.New(rand.NewSource(seed))).Solve(Options{NoPresolve: true, MaxNodes: 50000})
		if on.Status == Limit || off.Status == Limit {
			continue
		}
		if on.Status != off.Status {
			t.Fatalf("seed %d: status on=%v off=%v", seed, on.Status, off.Status)
		}
		if on.HasSolution && math.Abs(on.Obj-off.Obj) > 1e-6*(1+math.Abs(on.Obj)) {
			t.Fatalf("seed %d: obj on=%v off=%v", seed, on.Obj, off.Obj)
		}
	}
}

// TestPresolveThinIntervalRegression is the shrunken model behind
// minCWidth: the singleton EQ row forces x3 = -0.036 exactly; presolve
// must not pin x3 into a box too thin for phase-1 to enter.
func TestPresolveThinIntervalRegression(t *testing.T) {
	build := func() *Model {
		m := NewModel()
		x0 := m.NewContinuous(-6, 824)
		x1 := m.NewContinuous(-4, 143)
		x2 := m.NewInteger(-5, 4)
		x3 := m.NewContinuous(-17, 656)
		m.SetObjCoef(x0, 1.6494233583839049)
		m.SetObjCoef(x1, 1.0875576688508057)
		m.SetObjCoef(x2, -1.6305377342950866)
		m.SetObjCoef(x3, 1.546067370676382)
		m.AddEQ([]Term{{x3, -500}}, 18)
		m.AddEQ([]Term{{x0, -400}, {x1, -5}, {x2, 1}}, -10)
		m.AddEQ([]Term{{x0, 4}, {x1, -300}, {x2, 2}}, 14)
		return m
	}
	on := build().Solve(Options{})
	off := build().Solve(Options{NoPresolve: true})
	if on.Status != Optimal || off.Status != Optimal {
		t.Fatalf("status on=%v off=%v (presolve cut off the forced point)", on.Status, off.Status)
	}
	if math.Abs(on.Obj-off.Obj) > 1e-6 {
		t.Fatalf("obj on=%v off=%v", on.Obj, off.Obj)
	}
}

// TestPresolveMatchesOff: presolve changes the work, never the answer
// (the random objectives make optima unique).
func TestPresolveMatchesOff(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 25; trial++ {
		seed := rng.Int63()
		on := randomMILP(rand.New(rand.NewSource(seed))).Solve(Options{})
		off := randomMILP(rand.New(rand.NewSource(seed))).Solve(Options{NoPresolve: true})
		if on.Status != off.Status || on.HasSolution != off.HasSolution {
			t.Fatalf("trial %d: status on=%v off=%v", trial, on.Status, off.Status)
		}
		if !on.HasSolution {
			continue
		}
		if math.Abs(on.Obj-off.Obj) > 1e-6 {
			t.Fatalf("trial %d: obj on=%v off=%v", trial, on.Obj, off.Obj)
		}
		for j := range on.X {
			if math.Abs(on.X[j]-off.X[j]) > 1e-6 {
				t.Fatalf("trial %d: X[%d] on=%v off=%v", trial, j, on.X[j], off.X[j])
			}
		}
	}
}

// Model storage is recycled: Solve releases the reduced problem it built
// once every worker has joined, and Release hands back the model's own.
// Solving a model again (its reduced problem now built in storage the
// previous solve released), solving it without presolve (which searches
// the model's own problem and must not release it), and building it anew
// in storage another model of another shape left behind all give the
// first solve's result and counters, at Parallel 1 and 4.
func TestReleasedModelIsReused(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		seed := rng.Int63()
		build := func() *Model { return randomMILP2(rand.New(rand.NewSource(seed))) }
		same := func(label string, want, got Result) {
			t.Helper()
			sameResult(t, fmt.Sprintf("trial %d %s", trial, label), want, got)
			if got.Nodes != want.Nodes || got.LPIters != want.LPIters || got.Refactorizations != want.Refactorizations {
				t.Fatalf("trial %d %s: nodes %d/%d iters %d/%d refac %d/%d", trial, label,
					got.Nodes, want.Nodes, got.LPIters, want.LPIters, got.Refactorizations, want.Refactorizations)
			}
		}
		m := build()
		want := m.Solve(Options{})
		same("solved again", want, m.Solve(Options{Parallel: 4}))
		off := m.Solve(Options{NoPresolve: true})
		same("no presolve, again", off, m.Solve(Options{NoPresolve: true, Parallel: 4}))
		m.Release()

		other := randomMILP(rand.New(rand.NewSource(seed)))
		other.Solve(Options{Parallel: 4})
		other.Release()
		m = build()
		same("rebuilt", want, m.Solve(Options{Parallel: 4}))
		same("rebuilt, no presolve", off, m.Solve(Options{NoPresolve: true}))
		m.Release()
	}
}
