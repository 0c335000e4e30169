package encode

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/milp"
)

// assignFinals pins the symbolic final state (AssignVals, §4.2):
//
//   - complaint tuples must equal their target t* (hard),
//   - with FixNonComplaints, every other encoded tuple must equal its
//     dirty final state (hard — the basic algorithm),
//   - soft tuples instead contribute an "affected" indicator to the
//     objective (tuple-slicing refinement, §5.1 step 2).
func (e *encoder) assignFinals(complaints []Complaint) error {
	for i, c := range complaints {
		t, ok := e.tracked[c.TupleID]
		if !ok {
			return fmt.Errorf("encode: complaint tuple %d never existed in the replayed log", c.TupleID)
		}
		if t.complaint != 0 {
			return fmt.Errorf("encode: duplicate complaint for tuple %d", c.TupleID)
		}
		t.complaint = i + 1
	}

	for _, t := range e.order {
		if t.complaint != 0 {
			c := &complaints[t.complaint-1]
			if err := e.pinTuple(t, c.Exists, c.Values); err != nil {
				return err
			}
			continue
		}
		if t.soft {
			e.softObjective(t)
			continue
		}
		if e.opt.FixNonComplaints {
			var vals []float64
			if t.dirtyAlive {
				vals = t.dirtyVals
			}
			if err := e.pinTuple(t, t.dirtyAlive, vals); err != nil {
				return err
			}
		}
	}
	return nil
}

// pinTuple constrains a tuple's final liveness and (when it should exist)
// its tracked attribute values. Constant/known mismatches become an
// explicitly infeasible row so the solver reports infeasibility, matching
// the paper's semantics (an unrepairable complaint set is "infeasible",
// not an error).
func (e *encoder) pinTuple(t *tstate, exists bool, values []float64) error {
	want := 0.0
	if exists {
		want = 1
	}
	if t.alive.known {
		if t.alive.b != exists {
			e.addInfeasibleRow()
			return nil
		}
	} else {
		e.row(varAff(e.m, t.alive.v)).eq(want)
	}
	if !exists {
		return nil
	}
	for a := 0; a < e.width; a++ {
		target := values[a]
		if !t.trackedAttr[a] {
			// Frozen attributes exactly equal the dirty replay; a target
			// that disagrees cannot be met under this slicing.
			if math.Abs(t.dirtyVals[a]-target) > 1e-9 {
				return fmt.Errorf("encode: tuple %d attribute %d (%s) needs value %v but is frozen at %v; widen the attribute slice",
					t.id, a, e.sch.Attr(a), target, t.dirtyVals[a])
			}
			continue
		}
		v := t.vals[a]
		if v.isConst() {
			if math.Abs(v.c-target) > 1e-9 {
				e.addInfeasibleRow()
			}
			continue
		}
		e.row(v).eq(target)
	}
	return nil
}

// addInfeasibleRow encodes 0 = 1, making the model infeasible.
func (e *encoder) addInfeasibleRow() { e.m.AddEQ(nil, 1) }

// softObjective attaches the refinement objective for one non-complaint
// tuple: a binary that is forced to 1 whenever any parameterized query's
// repaired condition matches the tuple, weighted so that minimizing the
// count of affected tuples dominates parameter distance.
func (e *encoder) softObjective(t *tstate) {
	var sigmas []milp.Var
	constMatched := false
	for k, v := range e.sigma {
		if k.Tuple == t.id {
			sigmas = append(sigmas, v)
		}
	}
	// The map scan above yields the tuple's sigma variables in random
	// order, and each one becomes a constraint row below: without this
	// sort, MILP row order — and with it simplex pivoting and node/LP
	// iteration counts — varies run to run on refinement paths, which
	// core's TestSolverParallelMatchesSequential catches as a counter
	// diff between repeated K=2 runs.
	slices.Sort(sigmas)
	for k := range e.sigmaTrue {
		if k.Tuple == t.id {
			constMatched = true
		}
	}
	if constMatched {
		// Matched under every parameter choice: constant objective cost.
		e.m.AddObjConst(softWeight)
		return
	}
	if len(sigmas) == 0 {
		return
	}
	aff := e.m.NewBinary()
	for _, s := range sigmas {
		// affected >= sigma
		e.m.AddGE([]milp.Term{{Var: aff, Coef: 1}, {Var: s, Coef: -1}}, 0)
	}
	e.m.SetObjCoef(aff, softWeight)
}
