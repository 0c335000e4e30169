package milp

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/simplex"
)

// randomBinaryMILP builds a small mixed model of 1 to 12 binaries and 1
// to 4 bounded continuous variables, linked by rows with mixed signs
// and big-M-scaled coefficients: the encoder's indicator shapes, small
// enough to enumerate.
func randomBinaryMILP(rng *rand.Rand) *Model {
	m := NewModel()
	nb, nc := 1+rng.Intn(12), 1+rng.Intn(4)
	vars := make([]Var, 0, nb+nc)
	for i := 0; i < nb; i++ {
		v := m.NewBinary()
		m.SetObjCoef(v, rng.Float64()*6-2)
		vars = append(vars, v)
	}
	for i := 0; i < nc; i++ {
		v := m.NewContinuous(-float64(rng.Intn(30)), float64(1+rng.Intn(60)))
		m.SetObjCoef(v, rng.Float64()*2-1)
		vars = append(vars, v)
	}
	m.AddObjConst(rng.Float64())
	for r := 2 + rng.Intn(nb+nc); r > 0; r-- {
		var terms []Term
		for _, v := range vars {
			if rng.Float64() < 0.4 {
				c := float64(1 + rng.Intn(5))
				if rng.Float64() < 0.4 {
					c = -c
				}
				if rng.Float64() < 0.2 {
					c *= 100
				}
				terms = append(terms, Term{v, c})
			}
		}
		if len(terms) == 0 {
			continue
		}
		rhs := float64(rng.Intn(40) - 10)
		switch rng.Intn(5) {
		case 0, 1:
			m.AddLE(terms, rhs)
		case 2, 3:
			m.AddGE(terms, rhs)
		default:
			m.AddEQ(terms, rhs)
		}
	}
	return m
}

// leafOptimum enumerates every assignment of m's binaries and solves the
// continuous LP left at each leaf from a cold basis
// (simplex.Problem.Solve), returning the best objective and whether any
// leaf was feasible.
func leafOptimum(t *testing.T, m *Model) (float64, bool) {
	t.Helper()
	var bins []int
	for j, isInt := range m.isInt {
		if isInt {
			bins = append(bins, j)
		}
	}
	best, found := math.Inf(1), false
	for mask := 0; mask < 1<<len(bins); mask++ {
		p := m.prob.Clone()
		for k, j := range bins {
			v := float64(mask >> k & 1)
			p.SetBounds(j, v, v)
		}
		sol := p.Solve(simplex.Options{})
		switch sol.Status {
		case simplex.Optimal:
			if sol.Obj < best {
				best, found = sol.Obj, true
			}
		case simplex.Infeasible:
		default:
			t.Fatalf("leaf %b: reference LP ended %v", mask, sol.Status)
		}
	}
	return best + m.objConst, found
}

// TestBinaryMILPMatchesLeafEnumeration: on random small mixed models,
// branch-and-bound (presolved, and on the identity presolve) finds the
// optimum that enumerating every binary assignment finds, or proves
// infeasibility exactly when every leaf is infeasible.
func TestBinaryMILPMatchesLeafEnumeration(t *testing.T) {
	seeds := 120
	if testing.Short() {
		seeds = 40
	}
	feasible := 0
	for seed := int64(1); seed <= int64(seeds); seed++ {
		want, ok := leafOptimum(t, randomBinaryMILP(rand.New(rand.NewSource(seed))))
		if ok {
			feasible++
		}
		for _, opt := range []Options{{}, {NoPresolve: true}} {
			m := randomBinaryMILP(rand.New(rand.NewSource(seed)))
			res := m.Solve(opt)
			if !ok {
				if res.Status != Infeasible {
					t.Errorf("seed %d NoPresolve=%v: status %v, every leaf infeasible", seed, opt.NoPresolve, res.Status)
				}
				continue
			}
			if res.Status != Optimal {
				t.Errorf("seed %d NoPresolve=%v: status %v, leaf optimum %v", seed, opt.NoPresolve, res.Status, want)
				continue
			}
			if math.Abs(res.Obj-want) > 1e-6*math.Max(1, math.Abs(want)) {
				t.Errorf("seed %d NoPresolve=%v: objective %v, leaf optimum %v", seed, opt.NoPresolve, res.Obj, want)
			}
			if !m.prob.PointFeasible(res.X) {
				t.Errorf("seed %d NoPresolve=%v: solution %v infeasible", seed, opt.NoPresolve, res.X)
			}
		}
	}
	t.Logf("%d of %d models feasible", feasible, seeds)
	if feasible == 0 || feasible == seeds {
		t.Fatalf("setup: %d of %d models feasible; the sweep must see both outcomes", feasible, seeds)
	}
}
