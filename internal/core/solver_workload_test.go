// External test: the solver rebuild against the paper's workload
// generator. This is the acceptance property for the sparse
// revised-simplex + presolve + parallel branch-and-bound stack: parallel
// node search returns a repair byte-identical to the sequential
// baseline, across the incremental batch scan and the partition scan,
// and the root presolve returns the identity presolve's optimum on every
// candidate batch the generator's instances encode. Parallel search is
// additionally pinned to identical solver statistics (nodes, LP
// iterations, refactorizations): the speculation must be invisible in
// the accounting, not just the answer.
package core_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/encode"
	"repro/internal/milp"
	"repro/internal/workload"
)

// TestSolverParallelMatchesSequential sweeps generator workloads through
// the incremental scan with parallel in-solve search and pins both the
// repair and the solver statistics to the sequential run.
func TestSolverParallelMatchesSequential(t *testing.T) {
	trials := 4
	if testing.Short() {
		trials = 2 // solver-bound; keep the race-short pass fast
	}
	// The generous limit matters: the identity property holds for solves
	// that complete. A time-limited stop is wall-clock-dependent, and a
	// slower configuration legitimately diverges when it runs out of
	// budget mid-scan (it still returns a valid, verified repair).
	base := core.Options{Algorithm: core.Incremental, TupleSlicing: true,
		QuerySlicing: true, TimeLimit: 600 * time.Second}
	rng := rand.New(rand.NewSource(61))
	done := 0
	for trial := 0; trial < 30 && done < trials; trial++ {
		w, err := workload.Generate(workload.Config{
			ND: 25, Na: 4, Nq: 20, Mix: workload.UpdateOnly, Seed: int64(trial) + 7})
		if err != nil {
			t.Fatal(err)
		}
		in, err := w.MakeInstance(10 + rng.Intn(9))
		if err != nil {
			t.Fatal(err)
		}
		if len(in.Complaints) == 0 {
			continue // no-op corruption: nothing to diagnose
		}
		done++
		want, err := core.Diagnose(in.W.D0, in.Dirty, in.Complaints, base)
		if err != nil {
			t.Fatal(err)
		}
		wf := diagFingerprint(in, want)
		for _, spar := range []int{2, 4, -1} {
			opt := base
			opt.SolverParallel = spar
			got, err := core.Diagnose(in.W.D0, in.Dirty, in.Complaints, opt)
			if err != nil {
				t.Fatal(err)
			}
			if gf := diagFingerprint(in, got); gf != wf {
				t.Errorf("trial %d SolverParallel=%d: repair differs from sequential:\n got %s\nwant %s",
					trial, spar, gf, wf)
			}
			if got.Stats.Nodes != want.Stats.Nodes ||
				got.Stats.LPIters != want.Stats.LPIters ||
				got.Stats.Refactorizations != want.Stats.Refactorizations {
				t.Errorf("trial %d SolverParallel=%d: solver stats diverged: nodes %d/%d iters %d/%d refac %d/%d",
					trial, spar, got.Stats.Nodes, want.Stats.Nodes,
					got.Stats.LPIters, want.Stats.LPIters,
					got.Stats.Refactorizations, want.Stats.Refactorizations)
			}
		}
	}
	if done == 0 {
		t.Fatal("setup: no seed produced a complaint-carrying instance")
	}
}

// TestNoPresolveMatchesDefault pins the root presolve against the
// identity presolve (milp.Options.NoPresolve) on the encoder's own
// models: every single-query candidate batch of each generator instance
// is encoded the way the tuple-sliced scan encodes it and solved both
// ways. Presolve changes the work (presolved rows, usually fewer nodes),
// never the optimum or the repaired parameters.
func TestNoPresolveMatchesDefault(t *testing.T) {
	trials := 4
	if testing.Short() {
		trials = 2
	}
	// The identity presolve can be ~25x slower on big-M batches; the
	// limit must be high enough that both solves complete.
	const limit = 600 * time.Second
	rng := rand.New(rand.NewSource(71))
	done, solved := 0, 0
	sawReduction := false
	for trial := 0; trial < 30 && done < trials; trial++ {
		w, err := workload.Generate(workload.Config{
			ND: 25, Na: 4, Nq: 20, Mix: workload.UpdateOnly, Seed: int64(trial) + 11})
		if err != nil {
			t.Fatal(err)
		}
		in, err := w.MakeInstance(10 + rng.Intn(9))
		if err != nil {
			t.Fatal(err)
		}
		if len(in.Complaints) == 0 {
			continue
		}
		done++
		ids := make([]int64, len(in.Complaints))
		complaints := make([]encode.Complaint, len(in.Complaints))
		for i, c := range in.Complaints {
			ids[i] = c.TupleID
			complaints[i] = encode.Complaint{TupleID: c.TupleID, Exists: c.Exists, Values: c.Values}
		}
		for q := range in.Dirty {
			enc, err := encode.Encode(in.W.D0, in.Dirty, complaints, encode.Options{
				ParamQueries: map[int]bool{q: true}, TupleIDs: ids})
			if err != nil {
				t.Fatal(err)
			}
			want, wantVals := enc.SolveOpts(milp.Options{TimeLimit: limit})
			got, gotVals := enc.SolveOpts(milp.Options{TimeLimit: limit, NoPresolve: true})
			if want.PresolvedRows > 0 {
				sawReduction = true
			}
			if got.PresolvedRows != 0 || got.PresolvedVars != 0 {
				t.Errorf("trial %d query %d: identity presolve reported %d rows, %d vars",
					trial, q, got.PresolvedRows, got.PresolvedVars)
			}
			if got.Status != want.Status || got.HasSolution != want.HasSolution {
				t.Fatalf("trial %d query %d: status %v/%v, want %v/%v",
					trial, q, got.Status, got.HasSolution, want.Status, want.HasSolution)
			}
			if !want.HasSolution {
				continue
			}
			solved++
			if math.Abs(got.Obj-want.Obj) > 1e-6*math.Max(1, math.Abs(want.Obj)) {
				t.Errorf("trial %d query %d: objective %v, presolved %v", trial, q, got.Obj, want.Obj)
			}
			if !slices.Equal(gotVals, wantVals) {
				t.Errorf("trial %d query %d: repaired parameters %v, presolved %v", trial, q, gotVals, wantVals)
			}
		}
	}
	if done == 0 || solved == 0 {
		t.Fatalf("setup: %d complaint-carrying instances, %d solvable batches", done, solved)
	}
	if !sawReduction {
		t.Error("presolve never reduced a model across the sweep; the comparison is vacuous")
	}
}

// TestSolverParallelPartitionScanMatches runs parallel in-solve search
// under the partition scan (partition workers solving concurrent MILPs,
// each itself searching in parallel) and pins the repair to the fully
// sequential run.
func TestSolverParallelPartitionScanMatches(t *testing.T) {
	w, corruptIdx, err := bench.PartitionClusters(6, 5, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	in, err := w.MakeInstance(corruptIdx...)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.Complaints) == 0 {
		t.Fatal("setup: cluster workload raised no complaints")
	}
	base := core.Options{Algorithm: core.Basic, TupleSlicing: true,
		QuerySlicing: true, Partition: 3, TimeLimit: 600 * time.Second}
	want, err := core.Diagnose(in.W.D0, in.Dirty, in.Complaints, base)
	if err != nil {
		t.Fatal(err)
	}
	opt := base
	opt.SolverParallel = 4
	got, err := core.Diagnose(in.W.D0, in.Dirty, in.Complaints, opt)
	if err != nil {
		t.Fatal(err)
	}
	if gf, wf := diagFingerprint(in, got), diagFingerprint(in, want); gf != wf {
		t.Errorf("SolverParallel=4: partitioned repair differs:\n got %s\nwant %s", gf, wf)
	}
}
