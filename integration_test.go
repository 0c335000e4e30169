package qfix_test

import (
	"math/rand"
	"testing"
	"time"

	qfix "repro"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/denoise"
	"repro/internal/oltp"
	"repro/internal/workload"
)

// Integration scenarios that cross module boundaries: generator →
// corruption → (denoise) → diagnosis → replay scoring.

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

func TestIntegrationDenoiseParallelPipeline(t *testing.T) {
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
	// Poison the inbox with two absurd fabricated complaints.
	rng := rand.New(rand.NewSource(9))
	noisy := append([]core.Complaint(nil), in.Complaints...)
	seen := map[int64]bool{}
	for _, c := range noisy {
		seen[c.TupleID] = true
	}
	added := 0
	for _, id := range in.DirtyFinal.IDs() {
		if seen[id] || added >= 2 {
			continue
		}
		tp, _ := in.DirtyFinal.Get(id)
		vals := append([]float64(nil), tp.Values...)
		vals[1+rng.Intn(len(vals)-1)] = 1e7
		noisy = append(noisy, core.Complaint{TupleID: id, Exists: true, Values: vals})
		added++
	}
	cleaned := denoise.Clean(in.DirtyFinal, noisy, denoise.Options{})
	if len(cleaned.Dropped) != added {
		t.Fatalf("denoiser dropped %d, want %d: %v", len(cleaned.Dropped), added, cleaned.Reasons)
	}
	rep, err := core.Diagnose(w.D0, in.Dirty, cleaned.Kept, core.Options{
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
