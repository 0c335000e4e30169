package qfix_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	qfix "repro"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/oltp"
	"repro/internal/workload"
)

// Integration scenarios that cross module boundaries: generator →
// corruption → diagnosis → replay scoring.

func TestIntegrationMixedWorkloadOldCorruption(t *testing.T) {
	w := workload.MustGenerate(workload.Config{
		ND: 80, Na: 6, Nq: 30, Vd: 150, Range: 25, Mix: workload.Mixed, Seed: 77,
	})
	in, err := w.MakeInstance(2) // old corruption in a mixed log
	if err != nil {
		t.Fatal(err)
	}
	if len(in.Complaints) == 0 {
		t.Skip("harmless corruption")
	}
	rep, err := core.Diagnose(w.D0, in.Dirty, in.Complaints, core.Options{
		Algorithm:    core.Incremental,
		TupleSlicing: true,
		QuerySlicing: true,
		TimeLimit:    45 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Resolved {
		t.Fatalf("unresolved: %+v", rep.Stats)
	}
	acc, err := in.Evaluate(rep.Log)
	if err != nil {
		t.Fatal(err)
	}
	if acc.Recall < 1 {
		t.Errorf("recall = %v (%+v)", acc.Recall, acc)
	}
}

func TestIntegrationTwoCorruptionsBasic(t *testing.T) {
	w := workload.MustGenerate(workload.Config{
		ND: 30, Na: 5, Nq: 8, Vd: 150, Range: 40, Seed: 5,
	})
	in, err := w.MakeInstance(1, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.Complaints) == 0 {
		t.Skip("harmless corruption")
	}
	rep, err := core.Diagnose(w.D0, in.Dirty, in.Complaints, core.Options{
		Algorithm:    core.Basic,
		TupleSlicing: true,
		QuerySlicing: true,
		TimeLimit:    60 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Resolved {
		t.Fatalf("unresolved: %+v", rep.Stats)
	}
}

func TestIntegrationPartitionedThroughFacade(t *testing.T) {
	// The partition engine end to end through the public API: the bench
	// cluster generator, one corruption per cluster, diagnosis with
	// Options.Partition, replay scoring against the truth.
	w, corruptIdx, err := bench.PartitionClusters(6, 4, 1, 13)
	if err != nil {
		t.Fatal(err)
	}
	in, err := w.MakeInstance(corruptIdx...)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := qfix.Diagnose(w.D0, in.Dirty, in.Complaints, qfix.Options{
		Algorithm:    qfix.Basic,
		TupleSlicing: true,
		QuerySlicing: true,
		Partition:    4,
		TimeLimit:    60 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Resolved {
		t.Fatalf("unresolved: %+v", rep.Stats)
	}
	if rep.Stats.Partitions != 6 {
		t.Errorf("Stats.Partitions = %d, want 6", rep.Stats.Partitions)
	}
	acc, err := in.Evaluate(rep.Log)
	if err != nil {
		t.Fatal(err)
	}
	if acc.Recall < 1 {
		t.Errorf("recall = %v (%+v)", acc.Recall, acc)
	}
}

// TestIntegrationIncrementalSolverParallel runs the incremental scan
// with two in-solve workers on a generator instance whose corruption
// sits late in the log.
func TestIntegrationIncrementalSolverParallel(t *testing.T) {
	w := workload.MustGenerate(workload.Config{
		ND: 100, Na: 5, Nq: 25, Vd: 200, Range: 20, Seed: 31,
	})
	in, err := w.MakeInstance(20)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.Complaints) < 3 {
		t.Skip("not enough complaints")
	}
	rep, err := core.Diagnose(w.D0, in.Dirty, in.Complaints, core.Options{
		Algorithm:      core.Incremental,
		TupleSlicing:   true,
		QuerySlicing:   true,
		SolverParallel: 2,
		TimeLimit:      45 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Resolved {
		t.Fatalf("unresolved: %+v", rep.Stats)
	}
}

func TestIntegrationTATPThroughFacade(t *testing.T) {
	w := oltp.TATP(oltp.TATPConfig{Subscribers: 300, Queries: 100, Seed: 13})
	in, err := w.MakeInstance(99)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.Complaints) == 0 {
		t.Skip("harmless corruption")
	}
	rep, err := qfix.Diagnose(w.D0, in.Dirty, in.Complaints, qfix.Options{
		Algorithm:        qfix.Incremental,
		TupleSlicing:     true,
		QuerySlicing:     true,
		SingleCorruption: true,
		TimeLimit:        30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Resolved {
		t.Fatalf("unresolved: %+v", rep.Stats)
	}
	acc, err := in.Evaluate(rep.Log)
	if err != nil {
		t.Fatal(err)
	}
	if acc.F1 < 0.99 {
		t.Errorf("F1 = %v", acc.F1)
	}
}

func TestIntegrationDeleteInsertChains(t *testing.T) {
	// A DELETE-corrupted log where complaints demand resurrection, and
	// an INSERT-corrupted log where complaints fix the inserted values —
	// the two non-UPDATE repair paths end to end.
	for _, mix := range []workload.QueryMix{workload.DeleteOnly, workload.InsertOnly} {
		w := workload.MustGenerate(workload.Config{
			ND: 60, Na: 4, Nq: 12, Vd: 120, Range: 10, Mix: mix, Seed: 17,
		})
		in, err := w.MakeInstance(0)
		if err != nil {
			t.Fatal(err)
		}
		if len(in.Complaints) == 0 {
			continue
		}
		rep, err := core.Diagnose(w.D0, in.Dirty, in.Complaints, core.Options{
			Algorithm:    core.Incremental,
			TupleSlicing: true,
			TimeLimit:    45 * time.Second,
		})
		if err != nil {
			t.Fatalf("mix %v: %v", mix, err)
		}
		if !rep.Resolved {
			t.Errorf("mix %v unresolved: %+v", mix, rep.Stats)
		}
	}
}

// TestPaperExample1Wireless is the paper's Example 1: a wireless
// provider's discount policies run as UPDATEs over 150 accounts, and two
// of them were configured wrong (a credit keyed to plan 3 instead of 2,
// a discount of 21 instead of 12). A tenth of the wrongly billed
// accounts complain, and the basic algorithm repairs both queries
// jointly. The node limit, not a time limit, bounds the search, so the
// outcome is the same on every machine. The §5.1 refinement MILP stops
// at that limit, so the repair is not proven minimal; NodeLimitStops
// pins that.
func TestPaperExample1Wireless(t *testing.T) {
	if testing.Short() {
		t.Skip("solver-bound: 0.7 s, about 15 s under -race")
	}
	sch, err := qfix.NewSchema("Accounts", []string{"plan", "balance", "fee", "discount"}, "")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	d0 := qfix.NewTable(sch)
	for i := 0; i < 150; i++ {
		d0.MustInsert(float64(rng.Intn(6)+1), float64(40+rng.Intn(80)), 15, 0)
	}
	// Intended: plan 2 gets a $20 credit, plan 5's fee is waived, plans
	// >= 4 get a $12 discount applied to the balance.
	truthLog, err := qfix.ParseLog(sch, `
		UPDATE Accounts SET balance = balance - 20 WHERE plan = 2;
		UPDATE Accounts SET fee = 0 WHERE plan = 5;
		UPDATE Accounts SET discount = 12 WHERE plan >= 4;
		UPDATE Accounts SET balance = balance - discount WHERE plan >= 1`)
	if err != nil {
		t.Fatal(err)
	}
	dirtyLog, err := qfix.ParseLog(sch, `
		UPDATE Accounts SET balance = balance - 20 WHERE plan = 3;
		UPDATE Accounts SET fee = 0 WHERE plan = 5;
		UPDATE Accounts SET discount = 21 WHERE plan >= 4;
		UPDATE Accounts SET balance = balance - discount WHERE plan >= 1`)
	if err != nil {
		t.Fatal(err)
	}
	dirtyFinal, _ := qfix.Replay(dirtyLog, d0)
	truthFinal, _ := qfix.Replay(truthLog, d0)
	var reported []qfix.Complaint
	for i, c := range qfix.ComplaintsFromDiff(dirtyFinal, truthFinal, 1e-9) {
		if i%10 == 0 {
			reported = append(reported, c)
		}
	}

	rep, err := qfix.Diagnose(d0, dirtyLog, reported, qfix.Options{
		Algorithm:    qfix.Basic,
		TupleSlicing: true,
		QuerySlicing: true,
		AttrSlicing:  true,
		MaxNodes:     500,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(rep.Changed, []int{0, 2}) || math.Abs(rep.Distance-10) > 1e-6 {
		t.Errorf("changed %v at distance %v, want [0 2] at 10", rep.Changed, rep.Distance)
	}
	repairedFinal, err := qfix.Replay(rep.Log, d0)
	if err != nil {
		t.Fatal(err)
	}
	if wrong := qfix.DiffTables(repairedFinal, truthFinal, 1e-6); len(wrong) != 0 {
		t.Errorf("%d accounts still wrong after the repair", len(wrong))
	}
	if !rep.Stats.Refined {
		t.Error("Stats.Refined = false, want the §5.1 refinement to run")
	}
	if rep.Stats.NodeLimitStops != 1 {
		t.Errorf("Stats.NodeLimitStops = %d, want 1 (the refinement MILP)", rep.Stats.NodeLimitStops)
	}
}
