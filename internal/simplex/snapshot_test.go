package simplex

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func TestSnapshotInstallRoundTrip(t *testing.T) {
	build := func() *Problem {
		p := NewProblem()
		x := p.AddVar(0, 10, -1)
		y := p.AddVar(0, 10, -2)
		z := p.AddVar(0, 10, 1)
		p.AddConstr([]Coef{{x, 1}, {y, 1}}, LE, 12)
		p.AddConstr([]Coef{{y, 1}, {z, 1}}, GE, 3)
		p.AddConstr([]Coef{{x, 2}, {z, 1}}, LE, 15)
		return p
	}
	p := build()
	ws := NewSolver(p, Options{})
	cold := ws.Solve()
	if cold.Status != Optimal {
		t.Fatalf("cold solve: %+v", cold)
	}
	snap := ws.Snapshot(nil)
	if snap == nil {
		t.Fatal("Snapshot returned nil after a solve")
	}
	if m, n := snap.Vars(); m != 3 || n != 3 {
		t.Fatalf("snapshot shape (%d,%d), want (3,3)", m, n)
	}

	// A fresh solver over an identically shaped problem accepts the
	// basis and reproduces the optimum.
	p2 := build()
	ws2 := NewSolver(p2, Options{})
	if !ws2.Install(snap) {
		t.Fatal("Install rejected a same-shape snapshot")
	}
	warm := ws2.Solve()
	if warm.Status != Optimal || math.Abs(warm.Obj-cold.Obj) > 1e-6 {
		t.Fatalf("warm solve after Install: %+v, want obj %v", warm, cold.Obj)
	}

	// Installing then changing bounds must still agree with cold solves.
	p2.SetBounds(0, 0, 4)
	warm = ws2.Solve()
	coldRef := build()
	coldRef.SetBounds(0, 0, 4)
	ref := coldRef.Solve(Options{})
	if warm.Status != ref.Status || math.Abs(warm.Obj-ref.Obj) > 1e-6 {
		t.Fatalf("warm after bound change: %+v, cold ref %+v", warm, ref)
	}
}

func TestInstallRejectsMismatchedShapes(t *testing.T) {
	p := NewProblem()
	x := p.AddVar(0, 5, -1)
	p.AddConstr([]Coef{{x, 1}}, LE, 3)
	ws := NewSolver(p, Options{})
	ws.Solve()
	snap := ws.Snapshot(nil)

	// More variables.
	p2 := NewProblem()
	a := p2.AddVar(0, 5, -1)
	p2.AddVar(0, 5, -1)
	p2.AddConstr([]Coef{{a, 1}}, LE, 3)
	if NewSolver(p2, Options{}).Install(snap) {
		t.Error("Install accepted a snapshot with the wrong variable count")
	}
	// More rows.
	p3 := NewProblem()
	b := p3.AddVar(0, 5, -1)
	p3.AddConstr([]Coef{{b, 1}}, LE, 3)
	p3.AddConstr([]Coef{{b, 1}}, GE, 0)
	if NewSolver(p3, Options{}).Install(snap) {
		t.Error("Install accepted a snapshot with the wrong row count")
	}
	if NewSolver(p2, Options{}).Install(nil) {
		t.Error("Install accepted a nil snapshot")
	}

	// Corrupt basis entries: out of range and duplicated.
	bad := &Snapshot{m: snap.m, n: snap.n,
		basis: []int{99}, xval: append([]float64(nil), snap.xval...)}
	if NewSolver(p, Options{}).Install(bad) {
		t.Error("Install accepted an out-of-range basis entry")
	}
	p4 := NewProblem()
	c := p4.AddVar(0, 5, -1)
	p4.AddConstr([]Coef{{c, 1}}, LE, 3)
	p4.AddConstr([]Coef{{c, 1}}, GE, 0)
	ws4 := NewSolver(p4, Options{})
	ws4.Solve()
	dup := ws4.Snapshot(nil)
	dup.basis[1] = dup.basis[0]
	if NewSolver(p4, Options{}).Install(dup) {
		t.Error("Install accepted a duplicate basis entry")
	}
}

// A rejected Install must leave the solver fully functional and cold,
// also when it had solved before: a solver that kept its old basis would
// warm-start from a basis nobody installed.
func TestInstallRejectionLeavesSolverCold(t *testing.T) {
	p := NewProblem()
	x := p.AddVar(0, 5, -1)
	y := p.AddVar(0, 5, -2)
	p.AddConstr([]Coef{{x, 1}, {y, 1}}, LE, 4)
	p.AddConstr([]Coef{{y, 1}}, LE, 3)
	const want = -7 // x = 1, y = 3
	ws := NewSolver(p, Options{})
	if ws.Install(&Snapshot{m: 7, n: 7}) {
		t.Fatal("Install accepted a wrong-shape snapshot")
	}
	if ws.Snapshot(nil) != nil {
		t.Fatal("rejected Install left a basis behind")
	}
	sol := ws.Solve()
	if sol.Status != Optimal || math.Abs(sol.Obj-want) > 1e-9 {
		t.Fatalf("solve after rejected Install: %+v", sol)
	}
	good := ws.Snapshot(nil)
	dup := ws.Snapshot(nil)
	dup.basis[1] = dup.basis[0]
	outside := ws.Snapshot(nil)
	outside.basis[0] = 99
	for _, c := range []struct {
		name string
		snap *Snapshot
	}{
		{"wrong shape", &Snapshot{m: 7, n: 7}},
		{"duplicate entry", dup},
		{"out-of-range entry", outside},
	} {
		if !ws.Install(good) {
			t.Fatalf("%s: Install rejected the solver's own basis", c.name)
		}
		if ws.Install(c.snap) {
			t.Fatalf("%s: Install accepted it", c.name)
		}
		if ws.Snapshot(nil) != nil {
			t.Fatalf("%s: a solver that had solved kept its basis after the rejection", c.name)
		}
		if sol := ws.Solve(); sol.Status != Optimal || math.Abs(sol.Obj-want) > 1e-9 {
			t.Fatalf("%s: solve after rejected Install: %+v", c.name, sol)
		}
	}
}

// Property: installing a snapshot from one random LP into an identically
// shaped solver never changes the verdict or the optimum.
func TestQuickInstallEqualsCold(t *testing.T) {
	for seed := int64(0); seed < 80; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nv := rng.Intn(4) + 2
		nc := rng.Intn(4) + 1
		p := randomLP(rng, nv, nc)
		ws := NewSolver(p, Options{})
		first := ws.Solve()
		snap := ws.Snapshot(nil)

		// Shift some bounds, then compare warm-from-snapshot vs cold.
		rng2 := rand.New(rand.NewSource(seed + 1000))
		v := rng2.Intn(nv)
		lb, ub := p.Bounds(v)
		p.SetBounds(v, lb-0.5, ub+0.5)

		ws2 := NewSolver(p, Options{})
		if snap != nil && !ws2.Install(snap) {
			t.Fatalf("seed %d: Install rejected a same-shape snapshot", seed)
		}
		warm := ws2.Solve()
		cs := p.Solve(Options{})
		if warm.Status != cs.Status {
			t.Fatalf("seed %d: status %v vs cold %v (first %v)", seed, warm.Status, cs.Status, first.Status)
		}
		if warm.Status == Optimal && math.Abs(warm.Obj-cs.Obj) > 1e-5 {
			t.Fatalf("seed %d: obj %v vs cold %v", seed, warm.Obj, cs.Obj)
		}
	}
}

func TestPointFeasible(t *testing.T) {
	p := NewProblem()
	x := p.AddVar(0, 5, 1)
	y := p.AddVar(-1, 1, 2)
	p.AddConstr([]Coef{{x, 1}, {y, 1}}, LE, 4)
	p.AddConstr([]Coef{{x, 1}}, GE, 1)
	p.AddConstr([]Coef{{y, 2}}, EQ, 1)

	if !p.PointFeasible([]float64{2, 0.5}) {
		t.Error("rejected a feasible point")
	}
	if p.PointFeasible([]float64{2, 0.5, 1}) {
		t.Error("accepted a wrong-length point")
	}
	if p.PointFeasible([]float64{6, 0.5}) {
		t.Error("accepted a bound violation")
	}
	if p.PointFeasible([]float64{4, 0.5}) {
		t.Error("accepted an LE row violation")
	}
	if p.PointFeasible([]float64{0.5, 0.5}) {
		t.Error("accepted a GE row violation")
	}
	if p.PointFeasible([]float64{2, 0.4}) {
		t.Error("accepted an EQ row violation")
	}
	// Residual-scale violations (the solver's own noise floor) pass.
	if !p.PointFeasible([]float64{2, 0.5 + 1e-8}) {
		t.Error("rejected a point within the residual tolerance")
	}
}

func TestObjective(t *testing.T) {
	p := NewProblem()
	x := p.AddVar(0, 5, 3)
	y := p.AddVar(0, 5, -2)
	p.AddVar(0, 5, 0)
	_ = x
	_ = y
	if got := p.Objective([]float64{2, 1, 4}); math.Abs(got-4) > 1e-12 {
		t.Fatalf("Objective = %v, want 4", got)
	}
}

// Branch-and-bound installs a basis per node: with the solver's buffers
// in place an Install allocates nothing, a solve allocates only its
// Solution.X, and a rejected snapshot leaves the duplicate-check scratch
// clean for the next one.
func TestInstallAllocatesNothing(t *testing.T) {
	p, sn := loadEncoderNode(t)
	ws := NewSolver(p, Options{})
	if !ws.Install(sn) {
		t.Fatal("Install rejected the captured basis")
	}
	if a := testing.AllocsPerRun(10, func() { ws.Install(sn) }); a != 0 {
		t.Errorf("Install allocated %v times per call, want 0", a)
	}
	// The child proves itself infeasible without a pivot, so its solve
	// is the row check; the cold solve of the same node pivots through
	// more than one eta file (119 basis changes, maxEtas 64).
	if a := testing.AllocsPerRun(10, func() { ws.Install(sn); ws.Solve() }); a != 1 {
		t.Errorf("Install+Solve allocated %v times per call, want 1 (Solution.X)", a)
	}
	if a := testing.AllocsPerRun(10, func() { ws.Reset(); ws.Solve() }); a != 1 {
		t.Errorf("cold Solve allocated %v times per call, want 1 (Solution.X)", a)
	}
	dup := &Snapshot{m: sn.m, n: sn.n, basis: append([]int(nil), sn.basis...), xval: sn.xval}
	dup.basis[len(dup.basis)-1] = dup.basis[0]
	if ws.Install(dup) {
		t.Fatal("Install accepted a duplicate basis entry")
	}
	if !ws.Install(sn) {
		t.Fatal("a rejected snapshot poisoned the next Install")
	}
}

// heldSolver keeps the last Solver a test made reachable, so it lives on
// the heap as branch-and-bound's do.
var heldSolver *Solver

// A released workspace is the next Solver's: a new Solver over the
// captured node, or over a smaller problem, allocates only itself and its
// Solution.X, and a snapshot taken into a recycled one allocates nothing.
func TestReleasedWorkspaceIsReused(t *testing.T) {
	p, sn := loadEncoderNode(t)
	small := NewProblem()
	x := small.AddVar(0, 5, -1)
	y := small.AddVar(0, 5, -2)
	small.AddConstr([]Coef{{x, 1}, {y, 1}}, LE, 4)
	solve := func(p *Problem, sn *Snapshot) Solution {
		ws := NewSolver(p, Options{})
		heldSolver = ws
		defer ws.Release()
		if sn != nil && !ws.Install(sn) {
			t.Fatal("Install rejected the captured basis")
		}
		return ws.Solve()
	}
	node := func() Solution { return solve(p, sn) }
	want := node()
	if a := testing.AllocsPerRun(10, func() { node() }); a != 2 {
		t.Errorf("new Solver + Install + Solve allocated %v times per call, want 2 (the Solver, Solution.X)", a)
	}
	if a := testing.AllocsPerRun(10, func() { node(); solve(small, nil) }); a != 4 {
		t.Errorf("a captured node then a smaller problem allocated %v times, want 4 (two Solvers, two Solution.X)", a)
	}
	// Reuse changes storage, never results.
	if got := node(); got.Status != want.Status || got.Iters != want.Iters ||
		math.Float64bits(got.Obj) != math.Float64bits(want.Obj) {
		t.Fatalf("recycled workspace solved to %+v, first solve %+v", got, want)
	}

	ws := NewSolver(p, Options{})
	defer ws.Release()
	if !ws.Install(sn) {
		t.Fatal("Install rejected the captured basis")
	}
	ws.Solve()
	snap := ws.Snapshot(nil)
	if a := testing.AllocsPerRun(10, func() { snap = ws.Snapshot(snap) }); a != 0 {
		t.Errorf("Snapshot into a recycled snapshot allocated %v times, want 0", a)
	}
	// A recycled snapshot of another shape reads exactly as a fresh one.
	sw := NewSolver(small, Options{})
	defer sw.Release()
	sw.Solve()
	if got, fresh := sw.Snapshot(snap), sw.Snapshot(nil); !reflect.DeepEqual(got, fresh) {
		t.Fatalf("snapshot into recycled storage %+v, fresh %+v", got, fresh)
	}
}
