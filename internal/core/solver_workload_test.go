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
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/encode"
	"repro/internal/milp"
	"repro/internal/workload"
)

// TestSolverParallelMatchesSequential is the determinism test: every
// case is diagnosed repeatedly in one process, at GOMAXPROCS 1 and N
// and with SolverParallel at 1 and 4, and every run must return the
// sequential reference's repair and counters. Go randomizes map iteration order per
// range and the scheduler interleaves goroutines differently run to
// run, so a map order or a goroutine race that reaches a repair or a
// counter shows up here as a diff between two runs.
//
// Runs that stopped on a wall clock (a solve's TimeLimit, the
// diagnosis's TotalTimeLimit) are skipped: where such a stop lands is
// the documented divergence.
func TestSolverParallelMatchesSequential(t *testing.T) {
	repeats := 2
	if testing.Short() {
		repeats = 1
	}
	procs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(procs)
	n := max(procs, 4)
	// {GOMAXPROCS, SolverParallel}: every pair of values.
	configs := [][2]int{{1, 1}, {1, 4}, {n, 1}, {n, 4}}
	cases := determinismCases(t)
	runs, skipped := 0, 0
	for _, c := range cases {
		runtime.GOMAXPROCS(n)
		ref, err := core.Diagnose(c.in.W.D0, c.in.Dirty, c.in.Complaints, c.opt)
		if err != nil {
			t.Fatal(err)
		}
		runs++
		if clockStopped(ref.Stats) {
			skipped++
			continue
		}
		wantRep, wantCounters := diagFingerprint(c.in, ref), counters(ref.Stats)
		for r := 0; r < repeats; r++ {
			for _, cfg := range configs {
				runtime.GOMAXPROCS(cfg[0])
				opt := c.opt
				opt.SolverParallel = cfg[1]
				got, err := core.Diagnose(c.in.W.D0, c.in.Dirty, c.in.Complaints, opt)
				if err != nil {
					t.Fatal(err)
				}
				runs++
				if clockStopped(got.Stats) {
					skipped++
					continue
				}
				if g := diagFingerprint(c.in, got); g != wantRep {
					t.Errorf("%s repeat %d GOMAXPROCS=%d SolverParallel=%d: repair differs:\n got %s\nwant %s",
						c.name, r, cfg[0], cfg[1], g, wantRep)
				}
				if g := counters(got.Stats); g != wantCounters {
					t.Errorf("%s repeat %d GOMAXPROCS=%d SolverParallel=%d: counters differ:\n got %s\nwant %s",
						c.name, r, cfg[0], cfg[1], g, wantCounters)
				}
			}
		}
	}
	if 2*skipped > runs {
		t.Errorf("%d of %d runs stopped on a wall clock; the comparison is mostly vacuous", skipped, runs)
	}
}

// determinismCase is one instance and the options its runs start from.
type determinismCase struct {
	name string
	in   *workload.Instance
	opt  core.Options
}

// determinismCases are the determinism test's instances: generator
// logs under Incremental K=1, small generator logs under K=2 (the
// refinement path, where the soft objective's row order used to come
// from a map), and, outside -short, the TestSolverCountersPinned
// instances under the CLI's defaults.
func determinismCases(t *testing.T) []determinismCase {
	t.Helper()
	var out []determinismCase
	// The generous limit matters: the identity property holds for solves
	// that complete, and a slower configuration must not run out of
	// budget mid-scan.
	k1 := core.Options{Algorithm: core.Incremental, TupleSlicing: true,
		QuerySlicing: true, TimeLimit: 600 * time.Second}
	trials := 4
	if testing.Short() {
		trials = 2
	}
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 30 && trials > 0; trial++ {
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
		trials--
		out = append(out, determinismCase{fmt.Sprintf("k1 trial %d", trial), in, k1})
	}
	k2 := k1
	k2.K = 2
	for seed := int64(7); seed <= 12; seed++ {
		w, err := workload.Generate(workload.Config{
			ND: 25, Na: 4, Nq: 12, Mix: workload.UpdateOnly, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		in, err := w.MakeInstance(6)
		if err != nil {
			t.Fatal(err)
		}
		if len(in.Complaints) > 0 {
			out = append(out, determinismCase{fmt.Sprintf("k2 seed %d", seed), in, k2})
		}
	}
	if !testing.Short() {
		for i, in := range pinnedInstances(t) {
			out = append(out, determinismCase{fmt.Sprintf("pinned seed %d", pinnedGolden[i].seed), in, pinnedOptions()})
		}
	}
	if len(out) < 5 {
		t.Fatalf("setup: only %d complaint-carrying instances", len(out))
	}
	return out
}

// clockStopped reports whether a wall clock ended any of the run's
// solves or its scan.
func clockStopped(st core.Stats) bool {
	return st.TimeLimitStops > 0 || st.LastStatus == milp.Limit.String() ||
		st.LastStatus == "total-time-limit"
}

// counters renders every Stats field that is not a duration: what two
// runs of one diagnosis must agree on.
func counters(st core.Stats) string {
	st.PartitionStats = slices.Clone(st.PartitionStats)
	zeroDurations(reflect.ValueOf(&st).Elem())
	return fmt.Sprintf("%+v", st)
}

func zeroDurations(v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			zeroDurations(v.Field(i))
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			zeroDurations(v.Index(i))
		}
	case reflect.Int64:
		if v.Type() == reflect.TypeFor[time.Duration]() {
			v.SetInt(0)
		}
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
