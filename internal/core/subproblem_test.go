package core

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// countingSolver is a PartitionSolver that solves locally while
// recording what the engine handed it — the contract internal/dist's
// coordinator builds on.
type countingSolver struct {
	calls      atomic.Int64
	badPackage atomic.Int64 // subproblems that were not self-contained
	fail       bool
}

func (s *countingSolver) SolvePartition(sub Subproblem) (*Repair, error) {
	s.calls.Add(1)
	if s.fail {
		return nil, errors.New("injected solver failure")
	}
	if sub.Options.Partition != 0 ||
		sub.Options.PartitionSolver != nil ||
		len(sub.Options.Candidates) == 0 || len(sub.Complaints) == 0 ||
		sub.D0 == nil || len(sub.Log) == 0 {
		s.badPackage.Add(1)
	}
	rep, err := sub.SolveLocal()
	if err == nil {
		// What a remote transport would stamp on a worker-solved repair.
		rep.Stats.RemoteJobs = 1
	}
	return rep, err
}

func TestPartitionSolverHookDispatchesEveryPartition(t *testing.T) {
	d0, dirty, _, complaints := clusterWorkload(t, 3, 4)
	solver := &countingSolver{}
	rep, err := Diagnose(d0, dirty, complaints, Options{
		Algorithm:       Basic,
		TupleSlicing:    true,
		QuerySlicing:    true,
		Partition:       2,
		PartitionSolver: solver,
		TimeLimit:       30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Resolved {
		t.Fatalf("not resolved: %+v", rep.Stats)
	}
	if got := solver.calls.Load(); got != 3 {
		t.Errorf("solver called %d times, want once per partition (3)", got)
	}
	if n := solver.badPackage.Load(); n != 0 {
		t.Errorf("%d subproblem(s) were not self-contained", n)
	}
	if rep.Stats.RemoteJobs != 3 {
		t.Errorf("Stats.RemoteJobs = %d, want 3 (merged from per-partition stats)", rep.Stats.RemoteJobs)
	}
}

func TestPartitionSolverHookErrorPropagates(t *testing.T) {
	d0, dirty, _, complaints := clusterWorkload(t, 2, 4)
	_, err := Diagnose(d0, dirty, complaints, Options{
		Algorithm:       Basic,
		TupleSlicing:    true,
		QuerySlicing:    true,
		Partition:       2,
		PartitionSolver: &countingSolver{fail: true},
		TimeLimit:       30 * time.Second,
	})
	if err == nil {
		t.Fatal("solver error did not propagate")
	}
}

// TestPartitionedSinglePlanPass pins the partition-aware slicing
// optimization: subproblems adopt the coordinator's planning products,
// so the replay + FullImpact pass runs exactly once no matter how many
// partitions solve.
func TestPartitionedSinglePlanPass(t *testing.T) {
	d0, dirty, _, complaints := clusterWorkload(t, 4, 4)
	rep, err := Diagnose(d0, dirty, complaints, Options{
		Algorithm:    Basic,
		TupleSlicing: true,
		QuerySlicing: true,
		Partition:    4,
		TimeLimit:    30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Resolved || rep.Stats.Partitions != 4 {
		t.Fatalf("setup: resolved=%v partitions=%d", rep.Resolved, rep.Stats.Partitions)
	}
	if rep.Stats.PlanPasses != 1 {
		t.Errorf("Stats.PlanPasses = %d, want 1 (partitions must not re-plan)", rep.Stats.PlanPasses)
	}
}

func TestJointDiagnosisPlansOnce(t *testing.T) {
	d0, dirty, _, complaints := clusterWorkload(t, 2, 4)
	rep, err := Diagnose(d0, dirty, complaints, Options{
		Algorithm:    Basic,
		TupleSlicing: true,
		QuerySlicing: true,
		TimeLimit:    30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.PlanPasses != 1 {
		t.Errorf("Stats.PlanPasses = %d, want 1", rep.Stats.PlanPasses)
	}
}

// TestAdaptivePoolSizes: Partition/SolverParallel = -1 size the pool
// from GOMAXPROCS instead of a fixed constant. The pool size only affects
// concurrency, never the outcome, so the repair must match a fixed-size
// run.
func TestAdaptivePoolSizes(t *testing.T) {
	d0, dirty, _, complaints := clusterWorkload(t, 3, 4)
	base := Options{
		Algorithm:    Basic,
		TupleSlicing: true,
		QuerySlicing: true,
		TimeLimit:    30 * time.Second,
	}
	fixed := base
	fixed.Partition = 3
	want, err := Diagnose(d0, dirty, complaints, fixed)
	if err != nil {
		t.Fatal(err)
	}
	auto := base
	auto.Partition = -1
	got, err := Diagnose(d0, dirty, complaints, auto)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Resolved || got.Stats.Partitions != want.Stats.Partitions {
		t.Fatalf("auto partition: resolved=%v partitions=%d, want resolved with %d",
			got.Resolved, got.Stats.Partitions, want.Stats.Partitions)
	}
	if got.Distance != want.Distance || len(got.Changed) != len(want.Changed) {
		t.Errorf("auto pool changed the repair: distance %v vs %v, changed %v vs %v",
			got.Distance, want.Distance, got.Changed, want.Changed)
	}

	// SolverParallel = -1 on the incremental batch scan.
	inc := Options{
		Algorithm:      Incremental,
		TupleSlicing:   true,
		QuerySlicing:   true,
		SolverParallel: -1,
		TimeLimit:      30 * time.Second,
	}
	d0b, dirtyB, _, complaintsB := clusterWorkload(t, 1, 4)
	rep, err := Diagnose(d0b, dirtyB, complaintsB, inc)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Resolved {
		t.Fatalf("adaptive node search failed to resolve: %+v", rep.Stats)
	}
}
