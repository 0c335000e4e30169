package core

import (
	"testing"
	"time"

	"repro/internal/query"
	"repro/internal/relation"
)

// TestReplayBudget pins the replay budget of a diagnosis: the planning
// replay plus one verification replay per candidate repair — never one
// per consumer of the verified state (resolution, the damage gate, the
// refinement probe), and none inside the encoder.
func TestReplayBudget(t *testing.T) {
	diagnose := func(d0 *relation.Table, log []query.Query, cs []Complaint, opt Options) Stats {
		t.Helper()
		opt.TimeLimit = 30 * time.Second
		rep, err := Diagnose(d0, log, cs, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Resolved {
			t.Fatalf("not resolved: %+v", rep.Stats)
		}
		if rep.Stats.VerifyTime <= 0 {
			t.Errorf("VerifyTime = %v with %d replays", rep.Stats.VerifyTime, rep.Stats.Replays)
		}
		return rep.Stats
	}
	// Figure 5(b): step 1 over-generalizes onto the middle tuple unless
	// refinement pulls it back.
	d0, dirty, truth := figure5b()
	cs := completeComplaints(t, d0, dirty, truth)

	// One batch, no refinement: the two full-table passes of the budget.
	for _, opt := range []Options{
		{Algorithm: Basic},
		{Algorithm: Incremental, TupleSlicing: true, SkipRefine: true},
	} {
		st := diagnose(d0, dirty, cs, opt)
		if st.BatchesTried != 1 || st.Refined {
			t.Fatalf("setup: %v tried %d batches, refined=%v", opt.Algorithm, st.BatchesTried, st.Refined)
		}
		if st.Replays != 2 {
			t.Errorf("%v: Stats.Replays = %d, want 2", opt.Algorithm, st.Replays)
		}
	}

	// Refinement: every solved attempt (the batch, then each round's
	// re-solve) is verified exactly once.
	st := diagnose(d0, dirty, cs, Options{Algorithm: Incremental, TupleSlicing: true})
	if !st.Refined {
		t.Fatal("setup: refinement did not run")
	}
	if st.Replays != 1+st.BatchesTried {
		t.Errorf("refined: Stats.Replays = %d, want 1 + %d solved attempts", st.Replays, st.BatchesTried)
	}

	// Partitioned: subproblems adopt the parent's planning replay, verify
	// their own candidates, and the merged log is one more candidate.
	cd0, cdirty, _, ccs := clusterWorkload(t, 3, 4)
	st = diagnose(cd0, cdirty, ccs,
		Options{Algorithm: Basic, TupleSlicing: true, QuerySlicing: true, Partition: 3})
	if st.Partitions != 3 {
		t.Fatalf("setup: %d partitions", st.Partitions)
	}
	if want := 1 + st.BatchesTried + 1; st.Replays != want {
		t.Errorf("partitioned: Stats.Replays = %d, want %d (plan + %d solved attempts + merged log)",
			st.Replays, want, st.BatchesTried)
	}
}
