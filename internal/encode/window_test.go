package encode

import (
	"testing"
	"time"

	"repro/internal/milp"
	"repro/internal/query"
)

// figure2Windowed encodes Figure 2 with q1 parameterized and returns the
// result with the domain box [θ_orig − M, θ_orig + M] that every
// parameter starts in before its window is applied.
func figure2Windowed(t *testing.T) (*Result, func(ParamRef) (float64, float64)) {
	t.Helper()
	d0, log, complaints := figure2()
	res, err := Encode(d0, log, complaints, Options{
		ParamQueries: map[int]bool{0: true},
		TupleIDs:     []int64{3, 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	final, err := query.Replay(log, d0)
	if err != nil {
		t.Fatal(err)
	}
	m := DomainBound(d0, log, final)
	box := func(p ParamRef) (float64, float64) { return p.Orig - m, p.Orig + m }
	return res, box
}

// TestNoParamWindowsEquivalent solves Figure 2 with the parameter windows
// and again with every parameter widened back to its domain box. The
// windows must lose no optimum, and both repairs must move q1's θ above
// 86500 so that t3 and t4 are no longer updated.
func TestNoParamWindowsEquivalent(t *testing.T) {
	_, log, _ := figure2()
	var objs [2]float64
	for i, noWin := range []bool{false, true} {
		res, box := figure2Windowed(t)
		if noWin {
			for _, p := range res.Params {
				lb, ub := box(p)
				res.Model.SetBounds(p.Var, lb, ub)
			}
		}
		mres, vals := res.SolveOpts(milp.Options{TimeLimit: 60 * time.Second})
		if !mres.HasSolution {
			t.Fatalf("noWin=%v: %v", noWin, mres.Status)
		}
		objs[i] = mres.Obj
		repaired := applyRepair(t, log, res.Params, vals)
		theta := repaired[0].(*query.Update).Where.(*query.Pred).RHS
		if theta <= 86500 {
			t.Errorf("noWin=%v: theta = %v", noWin, theta)
		}
	}
	if d := objs[0] - objs[1]; d > 1e-6 || d < -1e-6 {
		t.Errorf("windowed optimum %v, domain-box optimum %v", objs[0], objs[1])
	}
}

// TestWindowsShrinkParamBounds checks that the WHERE parameter's window
// is strictly tighter than its domain box, lies inside it, and still
// contains the original constant.
func TestWindowsShrinkParamBounds(t *testing.T) {
	res, box := figure2Windowed(t)
	p := res.Params[1] // q1's WHERE constant
	lb, ub := res.Model.Bounds(p.Var)
	blb, bub := box(p)
	if lb < blb || ub > bub {
		t.Errorf("window [%v, %v] escapes the box [%v, %v]", lb, ub, blb, bub)
	}
	if ub-lb >= bub-blb {
		t.Errorf("window span %v not tighter than %v", ub-lb, bub-blb)
	}
	if p.Orig < lb || p.Orig > ub {
		t.Errorf("orig %v outside window [%v, %v]", p.Orig, lb, ub)
	}
}
